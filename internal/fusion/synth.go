package fusion

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
)

// SynthConfig sizes the synthetic tokamak campaign generator.
type SynthConfig struct {
	Shots          int
	DisruptionRate float64 // fraction of shots that disrupt
	FlattopSeconds float64 // flattop duration
	DropoutRate    float64 // per-sample NaN probability (sensor dropouts)
	Seed           int64
}

// DefaultSynthConfig returns a small DIII-D-like campaign.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Shots: 20, DisruptionRate: 0.3, FlattopSeconds: 3.0, DropoutRate: 0.01, Seed: 1}
}

// Diagnostics generated per shot, at heterogeneous sample rates — the
// multi-rate alignment problem the paper highlights.
var diagnosticRates = map[string]float64{
	"ip":    1000, // plasma current [MA], 1 kHz
	"vloop": 500,  // loop voltage [V], 500 Hz
	"ne":    200,  // line-averaged density [1e19 m^-3], 200 Hz
	"coil":  1000, // coil voltage proxy [V], 1 kHz
}

// DiagnosticNames returns the generated channel names, sorted.
func DiagnosticNames() []string {
	return []string{"coil", "ip", "ne", "vloop"}
}

// SynthesizeCampaign generates a shot archive with ramp-up / flattop /
// ramp-down plasma-current waveforms; disrupted shots terminate with a
// current quench and a precursor oscillation on the coil channel (giving
// the downstream classifier real signal).
func SynthesizeCampaign(cfg SynthConfig) (*Store, error) {
	if cfg.Shots <= 0 {
		return nil, fmt.Errorf("fusion: shots=%d must be positive", cfg.Shots)
	}
	if cfg.DisruptionRate < 0 || cfg.DisruptionRate > 1 {
		return nil, fmt.Errorf("fusion: disruption rate %v out of [0,1]", cfg.DisruptionRate)
	}
	if cfg.FlattopSeconds <= 0 {
		return nil, fmt.Errorf("fusion: flattop %v must be positive", cfg.FlattopSeconds)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := NewStore()
	const rampUp, rampDown = 0.5, 0.5
	for k := 0; k < cfg.Shots; k++ {
		num := 170000 + k
		disrupted := rng.Float64() < cfg.DisruptionRate
		flattop := cfg.FlattopSeconds * (0.8 + 0.4*rng.Float64())
		tEnd := rampUp + flattop + rampDown
		tDisrupt := 0.0
		if disrupted {
			// Disruption strikes mid-flattop.
			tDisrupt = rampUp + flattop*(0.3+0.6*rng.Float64())
			tEnd = tDisrupt + 0.05 // fast current quench
		}
		ipMax := 1.0 + 0.5*rng.Float64() // MA

		shot := &Shot{Number: num, Signals: make(map[string]*Signal),
			Disrupted: disrupted, TDisrupt: tDisrupt}
		// Sorted, not map order: every draw comes from the one seeded
		// rng, so the channel order fixes the campaign a seed yields.
		for _, name := range slices.Sorted(maps.Keys(diagnosticRates)) {
			rate := diagnosticRates[name]
			dt := 1 / rate
			n := int(tEnd / dt)
			sig := &Signal{Name: name, Times: make([]float64, 0, n), Data: make([]float64, 0, n)}
			switch name {
			case "ip":
				sig.Units = "MA"
			case "vloop", "coil":
				sig.Units = "V"
			case "ne":
				sig.Units = "1e19 m^-3"
			}
			for i := 0; i < n; i++ {
				t := float64(i) * dt
				var v float64
				switch name {
				case "ip":
					v = ipWaveform(t, rampUp, flattop, rampDown, ipMax, disrupted, tDisrupt)
				case "vloop":
					v = 1.2*math.Exp(-t) + 0.1*rng.NormFloat64()
				case "ne":
					v = 3 + 1.5*math.Tanh(t) + 0.05*rng.NormFloat64()
				case "coil":
					v = 0.2 * rng.NormFloat64()
					if disrupted && t > tDisrupt-0.3 && t < tDisrupt {
						// Precursor: growing locked-mode oscillation.
						grow := (t - (tDisrupt - 0.3)) / 0.3
						v += 3 * grow * math.Sin(2*math.Pi*200*t)
					}
				}
				if rng.Float64() < cfg.DropoutRate {
					v = math.NaN()
				}
				sig.Times = append(sig.Times, t)
				sig.Data = append(sig.Data, v)
			}
			shot.Signals[name] = sig
		}
		if err := st.Put(shot); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func ipWaveform(t, rampUp, flattop, rampDown, ipMax float64, disrupted bool, tDisrupt float64) float64 {
	if disrupted && t >= tDisrupt {
		// Current quench: exponential collapse over ~20 ms.
		return ipMax * math.Exp(-(t-tDisrupt)/0.02)
	}
	switch {
	case t < rampUp:
		return ipMax * t / rampUp
	case t < rampUp+flattop:
		return ipMax
	default:
		d := t - rampUp - flattop
		v := ipMax * (1 - d/rampDown)
		if v < 0 {
			v = 0
		}
		return v
	}
}
