// Package experiments contains one harness per table and figure of the
// paper's evaluation (Section 4). Each harness builds the workload and
// system configurations the paper describes, runs the simulator, and
// returns typed rows/series that can be rendered with internal/report.
//
// Every harness takes a Scale: FullScale reproduces the paper's run
// lengths, QuickScale shortens them for CI and testing.B benchmarks. The
// shapes (who wins, crossover points) are stable across scales; absolute
// confidence intervals tighten with FullScale.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// Scale sets run lengths and sweep densities.
type Scale struct {
	// Warmup and Measure bound steady-state runs (Fig. 5).
	Warmup  sim.Cycle
	Measure sim.Cycle
	// SeriesLength and Bucket bound time-series runs (Figs. 6, 7).
	SeriesLength sim.Cycle
	Bucket       sim.Cycle
	// Windows is the Tw sweep of Fig. 5(a-c).
	Windows []sim.Cycle
	// Thresholds is the average-threshold sweep of Fig. 5(d-f).
	Thresholds []float64
	// Rates3 are the light/medium/heavy injection rates (packets/cycle)
	// of Fig. 5(a-f); the paper uses 1.25 / 3.3 / 5.05.
	Rates3 []float64
	// InjectionRates is the x-axis of Fig. 5(g,h).
	InjectionRates []float64
	// PacketFlits is the synthetic packet size.
	PacketFlits int
	// Seed drives the whole suite.
	Seed uint64
	// Shards is the parallel-core shard count passed through to every
	// network the harness builds (0/1 = sequential). Results are
	// byte-identical across shard counts (DESIGN.md §6g), so this is
	// purely a wall-clock knob.
	Shards int
	// Policy selects the adaptive link policy every harness runs with; the
	// zero value is the paper's DVS controller.
	Policy policy.Kind
}

// FullScale reproduces the paper's sweeps at full length.
func FullScale() Scale {
	return Scale{
		Warmup:         20_000,
		Measure:        200_000,
		SeriesLength:   1_500_000,
		Bucket:         25_000,
		Windows:        []sim.Cycle{100, 200, 500, 1000, 2000, 5000, 10_000},
		Thresholds:     []float64{0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65},
		Rates3:         []float64{1.25, 3.3, 5.05},
		InjectionRates: []float64{0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 5.5, 6},
		PacketFlits:    5,
		Seed:           1,
	}
}

// QuickScale shortens everything ~10× for benchmarks and CI.
func QuickScale() Scale {
	return Scale{
		Warmup:         5_000,
		Measure:        25_000,
		SeriesLength:   150_000,
		Bucket:         5_000,
		Windows:        []sim.Cycle{100, 1000, 5000},
		Thresholds:     []float64{0.35, 0.5, 0.65},
		Rates3:         []float64{1.25, 3.3, 5.05},
		InjectionRates: []float64{1, 3, 5},
		PacketFlits:    5,
		Seed:           1,
	}
}

// baseConfig returns the paper's default system with this scale's seed and
// policy kind.
func (s Scale) baseConfig() network.Config {
	cfg := network.DefaultConfig()
	cfg.Seed = s.Seed
	cfg.Shards = s.Shards
	cfg.Policy.Kind = s.Policy
	return cfg
}

// normalisedPair runs the power-aware cfg and its non-power-aware twin,
// each on a fresh generator from mk, and returns the power-aware run's
// latency normalised against the twin's and its normalised power. label
// names the pair in the error when either run delivers nothing.
func (s Scale) normalisedPair(cfg network.Config, mk func(nodes int) (traffic.Generator, error), label string) (normLatency, normPower float64, err error) {
	non := cfg
	non.PowerAware = false
	var rs [2]core.Result
	for i, c := range []network.Config{cfg, non} {
		gen, err := mk(c.Nodes())
		if err != nil {
			return 0, 0, err
		}
		if rs[i], err = core.Run(c, gen, s.Warmup, s.Measure); err != nil {
			return 0, 0, err
		}
		if rs[i].Packets == 0 {
			return 0, 0, fmt.Errorf("experiments: %s delivered nothing", label)
		}
	}
	return rs[0].MeanLatencyCycles / rs[1].MeanLatencyCycles, rs[0].NormPower, nil
}
