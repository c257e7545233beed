package domain

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite testdata/served_bytes.golden from the current code")

// goldenSpec is the benchmark's scale-16 spec for a domain and seed, its
// values written out here so the pin does not move with the benchmark.
func goldenSpec(d core.Domain, seed int64) wire.Spec {
	s := wire.Spec{Domain: d, Seed: seed}
	switch d {
	case core.Climate:
		s.Months, s.Lat, s.Lon = 37, 32, 64
	case core.Fusion:
		s.Shots = 16
	case core.BioHealth:
		s.Subjects, s.SeqLen = 125, 2048
	case core.Materials:
		s.Structures = 312
	}
	return s
}

// servedDigests runs one job in memory and describes what it serves:
// the SHA-256 of its manifest, then per shard the SHA-256 of its
// sidecar's plaintext (a sealed job's sidecar is read back unsealed,
// since its key is random) and of the NDJSON line holding all of the
// shard's records under a fixed header.
func servedDigests(t *testing.T, p Plugin, spec wire.Spec) string {
	t.Helper()
	store := shard.NewMemSink()
	run, err := p.Build(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Pipeline.Run(run.Dataset); err != nil {
		t.Fatal(err)
	}
	m, err := p.Manifest(run.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "%s seed=%d manifest %x\n", p.Domain, spec.Seed, sha256.Sum256(mb))
	if _, err := BuildShardSidecars(p, store, m, run.Key); err != nil {
		t.Fatal(err)
	}
	open := p.Opener(store, run.Key)
	for _, info := range m.Shards {
		b, err := shard.ReadObject(open, SidecarName(info.Name))
		if err != nil {
			t.Fatal(err)
		}
		sc, err := ParseSidecar(b)
		if err != nil {
			t.Fatal(err)
		}
		lf, err := sc.Lines()
		if err != nil {
			t.Fatal(err)
		}
		line := bytes.NewBuffer(AppendLineHeader(nil, wire.BatchHeader{Batch: 0, Cursor: "0:0", Kind: sc.Kind()}))
		if err := WriteLineColumns(line, []LineRange{{F: lf, A: 0, B: lf.Count()}}); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "  %s records=%d sidecar %x line %x\n", info.Name, info.Records, sha256.Sum256(b), sha256.Sum256(line.Bytes()))
	}
	return out.String()
}

// TestServedBytesGolden pins what every domain serves, byte for byte:
// each plugin at seeds 1–3 of the benchmark's scale-16 spec must
// produce the recorded manifest, sidecars and NDJSON lines. A change
// that means to alter served bytes reruns it with -update and says why.
func TestServedBytesGolden(t *testing.T) {
	var got bytes.Buffer
	for _, p := range Plugins() {
		for seed := int64(1); seed <= 3; seed++ {
			got.WriteString(servedDigests(t, p, goldenSpec(p.Domain, seed)))
		}
	}
	path := filepath.Join("testdata", "served_bytes.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < max(len(gl), len(wl)); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("served bytes differ from %s at line %d:\n got  %s\n want %s", path, i+1, g, w)
			}
		}
	}
}
