// Package materials implements the materials archetype (paper §3.4,
// Table 1): DFT-style simulation outputs are parsed from a POSCAR-like
// text format, atomic descriptors are normalized, structures are encoded
// as periodic cutoff graphs for GNN training (HydraGNN-style), and the
// train split is sharded as self-describing ADIOS-style BP process groups,
// one graph per record — parse → normalize → encode → shard. ExportBP
// assembles the same process groups into a BP container.
package materials

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// Structure is one crystal: a cubic lattice constant, fractional atomic
// positions, species, and DFT-style labels (energy, per-atom forces).
type Structure struct {
	ID      string
	Lattice float64      // cubic cell edge (Angstrom)
	Species []string     // per-atom element symbols
	Frac    [][3]float64 // fractional coordinates in [0,1)
	Energy  float64      // total energy (eV)
	Forces  [][3]float64 // per-atom forces (eV/A)
	Class   string       // material class label (e.g. "metal", "insulator")
}

// NumAtoms returns the atom count.
func (s *Structure) NumAtoms() int { return len(s.Species) }

// Validate checks structural consistency.
func (s *Structure) Validate() error {
	if s.Lattice <= 0 {
		return fmt.Errorf("materials: %s lattice %v must be positive", s.ID, s.Lattice)
	}
	if len(s.Frac) != len(s.Species) {
		return fmt.Errorf("materials: %s has %d positions, %d species", s.ID, len(s.Frac), len(s.Species))
	}
	if s.Forces != nil && len(s.Forces) != len(s.Species) {
		return fmt.Errorf("materials: %s has %d forces, %d atoms", s.ID, len(s.Forces), len(s.Species))
	}
	for i, p := range s.Frac {
		for d := 0; d < 3; d++ {
			if p[d] < 0 || p[d] >= 1 {
				return fmt.Errorf("materials: %s atom %d fractional coord %v out of [0,1)", s.ID, i, p[d])
			}
		}
	}
	return nil
}

// atomicNumbers for the species the generator emits.
var atomicNumbers = map[string]int{
	"H": 1, "C": 6, "N": 7, "O": 8, "Al": 13, "Si": 14, "Ti": 22, "Fe": 26, "Cu": 29,
}

// AtomicNumber returns Z for a symbol (0 for unknown).
func AtomicNumber(symbol string) int { return atomicNumbers[symbol] }

// SynthConfig sizes the synthetic DFT-archive generator.
type SynthConfig struct {
	Structures int
	MinAtoms   int
	MaxAtoms   int
	// ImbalanceRatio skews class frequencies (Table 1 lists class
	// imbalance as a materials readiness challenge). 1 = balanced.
	ImbalanceRatio float64
	Seed           int64
}

// DefaultSynthConfig returns a small OMat24-like archive.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Structures: 60, MinAtoms: 4, MaxAtoms: 16, ImbalanceRatio: 5, Seed: 1}
}

// Classes emitted by the generator.
var Classes = []string{"metal", "semiconductor", "insulator"}

// Synthesize generates random-but-physical structures: atoms jittered off
// a cubic sublattice (no overlaps), energies roughly extensive in atom
// count with class-dependent offsets, and forces consistent in magnitude.
func Synthesize(cfg SynthConfig) ([]*Structure, error) {
	if cfg.Structures <= 0 {
		return nil, fmt.Errorf("materials: structures=%d must be positive", cfg.Structures)
	}
	if cfg.MinAtoms < 1 || cfg.MaxAtoms < cfg.MinAtoms {
		return nil, fmt.Errorf("materials: atom range [%d,%d] invalid", cfg.MinAtoms, cfg.MaxAtoms)
	}
	if cfg.ImbalanceRatio < 1 {
		return nil, fmt.Errorf("materials: imbalance ratio %v must be >=1", cfg.ImbalanceRatio)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	species := []string{"Fe", "Cu", "Si", "O", "Al", "Ti"}
	// Class weights: metal is ImbalanceRatio times more likely than
	// insulator; semiconductor in between.
	weights := []float64{cfg.ImbalanceRatio, (cfg.ImbalanceRatio + 1) / 2, 1}
	wsum := weights[0] + weights[1] + weights[2]

	out := make([]*Structure, 0, cfg.Structures)
	for k := 0; k < cfg.Structures; k++ {
		n := cfg.MinAtoms + rng.Intn(cfg.MaxAtoms-cfg.MinAtoms+1)
		// Cubic sublattice with enough sites.
		side := int(math.Ceil(math.Cbrt(float64(n))))
		lattice := 3.0 * float64(side) * (0.9 + 0.2*rng.Float64())

		r := rng.Float64() * wsum
		class := Classes[2]
		if r < weights[0] {
			class = Classes[0]
		} else if r < weights[0]+weights[1] {
			class = Classes[1]
		}

		s := &Structure{
			ID:      fmt.Sprintf("struct-%05d", k),
			Lattice: lattice,
			Class:   class,
		}
		perm := rng.Perm(side * side * side)[:n]
		for _, site := range perm {
			x := float64(site%side) / float64(side)
			y := float64(site/side%side) / float64(side)
			z := float64(site/(side*side)) / float64(side)
			jitter := 0.02
			pos := [3]float64{
				wrap01(x + jitter*rng.NormFloat64()),
				wrap01(y + jitter*rng.NormFloat64()),
				wrap01(z + jitter*rng.NormFloat64()),
			}
			s.Frac = append(s.Frac, pos)
			s.Species = append(s.Species, species[rng.Intn(len(species))])
		}
		classOffset := map[string]float64{"metal": -4.2, "semiconductor": -3.1, "insulator": -2.0}[class]
		s.Energy = classOffset*float64(n) + rng.NormFloat64()*0.1
		s.Forces = make([][3]float64, n)
		for i := range s.Forces {
			for d := 0; d < 3; d++ {
				s.Forces[i][d] = rng.NormFloat64() * 0.05
			}
		}
		if err := s.Validate(); err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func wrap01(x float64) float64 {
	x = math.Mod(x, 1)
	if x < 0 {
		x++
	}
	return x
}

// ToPOSCAR renders the structure in a POSCAR-like text format (the DFT
// community's interchange format):
//
//	comment (ID class=… energy=…)
//	scale
//	3 lattice vectors (cubic here)
//	species line, counts line, "Direct", then fractional coords.
func (s *Structure) ToPOSCAR() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s class=%s energy=%.6f\n", s.ID, s.Class, s.Energy)
	b.WriteString("1.0\n")
	fmt.Fprintf(&b, "%.6f 0.0 0.0\n0.0 %.6f 0.0\n0.0 0.0 %.6f\n", s.Lattice, s.Lattice, s.Lattice)

	// Group atoms by species in first-appearance order.
	order := []string{}
	counts := map[string]int{}
	for _, sp := range s.Species {
		if counts[sp] == 0 {
			order = append(order, sp)
		}
		counts[sp]++
	}
	b.WriteString(strings.Join(order, " ") + "\n")
	parts := make([]string, len(order))
	for i, sp := range order {
		parts[i] = strconv.Itoa(counts[sp])
	}
	b.WriteString(strings.Join(parts, " ") + "\n")
	b.WriteString("Direct\n")
	for _, sp := range order {
		for i, atomSp := range s.Species {
			if atomSp != sp {
				continue
			}
			fmt.Fprintf(&b, "%.8f %.8f %.8f\n", s.Frac[i][0], s.Frac[i][1], s.Frac[i][2])
		}
	}
	return b.String()
}

// ParsePOSCAR parses the format produced by ToPOSCAR. Forces are not part
// of POSCAR and are left nil.
func ParsePOSCAR(content string) (*Structure, error) {
	sc := bufio.NewScanner(strings.NewReader(content))
	read := func() (string, error) {
		for sc.Scan() {
			line := strings.TrimSpace(sc.Text())
			if line != "" {
				return line, nil
			}
		}
		return "", fmt.Errorf("materials: unexpected end of POSCAR")
	}
	header, err := read()
	if err != nil {
		return nil, err
	}
	s := &Structure{}
	fields := strings.Fields(header)
	if len(fields) > 0 {
		s.ID = fields[0]
	}
	for _, f := range fields[1:] {
		switch {
		case strings.HasPrefix(f, "class="):
			s.Class = strings.TrimPrefix(f, "class=")
		case strings.HasPrefix(f, "energy="):
			if _, err := fmt.Sscanf(f, "energy=%f", &s.Energy); err != nil {
				return nil, fmt.Errorf("materials: bad energy in header: %w", err)
			}
		}
	}
	scaleLine, err := read()
	if err != nil {
		return nil, err
	}
	scale, err := strconv.ParseFloat(scaleLine, 64)
	if err != nil {
		return nil, fmt.Errorf("materials: bad scale %q: %w", scaleLine, err)
	}
	var lat [3][3]float64
	for r := 0; r < 3; r++ {
		line, err := read()
		if err != nil {
			return nil, err
		}
		cols := strings.Fields(line)
		if len(cols) != 3 {
			return nil, fmt.Errorf("materials: lattice row %q", line)
		}
		for cI, c := range cols {
			v, err := strconv.ParseFloat(c, 64)
			if err != nil {
				return nil, fmt.Errorf("materials: lattice value %q: %w", c, err)
			}
			lat[r][cI] = v * scale
		}
	}
	if lat[0][1] != 0 || lat[0][2] != 0 || lat[1][0] != 0 || lat[1][2] != 0 || lat[2][0] != 0 || lat[2][1] != 0 {
		return nil, fmt.Errorf("materials: only cubic (diagonal) lattices supported")
	}
	if lat[0][0] != lat[1][1] || lat[1][1] != lat[2][2] {
		return nil, fmt.Errorf("materials: only cubic lattices supported")
	}
	s.Lattice = lat[0][0]

	speciesLine, err := read()
	if err != nil {
		return nil, err
	}
	species := strings.Fields(speciesLine)
	countsLine, err := read()
	if err != nil {
		return nil, err
	}
	countFields := strings.Fields(countsLine)
	if len(countFields) != len(species) {
		return nil, fmt.Errorf("materials: %d species but %d counts", len(species), len(countFields))
	}
	counts := make([]int, len(species))
	total := 0
	for i, cf := range countFields {
		n, err := strconv.Atoi(cf)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("materials: bad count %q", cf)
		}
		counts[i] = n
		total += n
	}
	mode, err := read()
	if err != nil {
		return nil, err
	}
	if !strings.EqualFold(mode, "Direct") {
		return nil, fmt.Errorf("materials: only Direct coordinates supported, got %q", mode)
	}
	for i, sp := range species {
		for a := 0; a < counts[i]; a++ {
			line, err := read()
			if err != nil {
				return nil, fmt.Errorf("materials: missing coordinates for %s atom %d", sp, a)
			}
			cols := strings.Fields(line)
			if len(cols) != 3 {
				return nil, fmt.Errorf("materials: coordinate line %q", line)
			}
			var pos [3]float64
			for d, c := range cols {
				v, err := strconv.ParseFloat(c, 64)
				if err != nil {
					return nil, fmt.Errorf("materials: coordinate %q: %w", c, err)
				}
				pos[d] = wrap01(v)
			}
			s.Species = append(s.Species, sp)
			s.Frac = append(s.Frac, pos)
		}
	}
	if total != len(s.Species) {
		return nil, fmt.Errorf("materials: expected %d atoms, parsed %d", total, len(s.Species))
	}
	return s, s.Validate()
}

// ClassCounts tallies class labels across structures (imbalance
// diagnostics), sorted by class name.
func ClassCounts(structs []*Structure) map[string]int {
	out := make(map[string]int)
	for _, s := range structs {
		out[s.Class]++
	}
	return out
}

// SortedClasses lists the classes present, sorted.
func SortedClasses(structs []*Structure) []string {
	set := ClassCounts(structs)
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
