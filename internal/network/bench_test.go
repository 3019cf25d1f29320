package network

import (
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// BenchmarkNetworkStepIdle measures the simulator's fixed per-cycle cost on
// the full 64-rack system with no traffic — what every idle cycle pays when
// stepped rather than skipped.
func BenchmarkNetworkStepIdle(b *testing.B) {
	n := MustNew(DefaultConfig(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
}

// BenchmarkNetworkFastForwardIdle measures RunTo across 10k idle cycles per
// op on the power-aware system, where fast-forward hops from policy window
// to policy window instead of stepping.
func BenchmarkNetworkFastForwardIdle(b *testing.B) {
	n := MustNew(DefaultConfig(), nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.RunTo(n.Now() + 10_000)
	}
}

func benchStepAtLoad(b *testing.B, rate float64, pa bool) {
	cfg := DefaultConfig()
	cfg.PowerAware = pa
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), rate, 5))
	n.RunTo(5_000) // reach steady occupancy before timing
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	if n.DeliveredPackets() == 0 {
		b.Fatal("network delivered nothing")
	}
}

// BenchmarkStepLight/Medium/Heavy measure cycles/second at the paper's
// three load points on the power-aware system.
func BenchmarkStepLight(b *testing.B)  { benchStepAtLoad(b, 1.25, true) }
func BenchmarkStepMedium(b *testing.B) { benchStepAtLoad(b, 3.3, true) }
func BenchmarkStepHeavy(b *testing.B)  { benchStepAtLoad(b, 5.05, true) }

// BenchmarkStepNonPA isolates the policy controllers' overhead.
func BenchmarkStepNonPA(b *testing.B) { benchStepAtLoad(b, 3.3, false) }

// BenchmarkStepFaults measures the reliable-link path: the paper system at
// 1.75 packets/cycle with the margin-derived BER scaled by 1e9 over 23 dB of
// extra path loss, relock failures at probability 0.3, recovery on, and the
// loss-aware rule engine with a 1e-12 BER guard, so every flit is stamped
// and checked by CRC and replayed go-back-N when corrupted. It reports the
// retransmits of its fixed 5000-cycle warm-up, which only a change in the
// simulated behaviour can move.
func BenchmarkStepFaults(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Link.PathLossDB += 23
	cfg.Fault = fault.Config{BERScale: 1e9, RelockFailProb: 0.3}
	cfg.Recovery = RecoveryConfig{Enabled: true}
	cfg.Policy.Kind = policy.KindRules
	cfg.Policy.Rules = policy.DefaultRulesConfig()
	cfg.Policy.MaxBER = 1e-12
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 1.75, 5))
	n.RunTo(5_000)
	retx := n.FaultStats().Retransmits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	if retx == 0 {
		b.Fatal("no retransmits: the reliable path was not exercised")
	}
	b.ReportMetric(float64(retx), "warmup-retx")
}

func benchTelemetry(b *testing.B, enabled bool) {
	cfg := DefaultConfig()
	cfg.Telemetry = telemetry.Config{Enabled: enabled} // default 1024-cycle sampling
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 3.3, 5))
	n.RunTo(5_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Step()
	}
	b.StopTimer()
	if n.DeliveredPackets() == 0 {
		b.Fatal("network delivered nothing")
	}
}

// BenchmarkStepTelemetryOff / BenchmarkStepTelemetryOn bracket the
// telemetry subsystem's overhead on a loaded full-scale system at the
// default sampling period — the acceptance budget is <3%. Compare with:
//
//	go test -run xxx -bench 'StepTelemetry' -count 5 ./internal/network | benchstat
func BenchmarkStepTelemetryOff(b *testing.B) { benchTelemetry(b, false) }
func BenchmarkStepTelemetryOn(b *testing.B)  { benchTelemetry(b, true) }

// BenchmarkStepParallel measures the sharded core at the paper's three
// load points across shard counts. Speedup over shards=1 requires real
// cores: on a single-core runner the extra shards only add barrier cost,
// so judge scaling by the per-shard work division, not wall clock.
func BenchmarkStepParallel(b *testing.B) {
	loads := []struct {
		name string
		rate float64
	}{
		{"light", 1.25},
		{"medium", 3.3},
		{"heavy", 5.05},
	}
	for _, load := range loads {
		for _, k := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", load.name, k), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.Shards = k
				n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), load.rate, 5))
				defer n.Close()
				n.RunTo(5_000)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
				b.StopTimer()
				if n.DeliveredPackets() == 0 {
					b.Fatal("network delivered nothing")
				}
			})
		}
	}
}

// BenchmarkLevelHistogram proves summary-time level reads are free of
// allocation churn: the buckets are preallocated at network build.
func BenchmarkLevelHistogram(b *testing.B) {
	n := MustNew(DefaultConfig(), nil)
	n.RunTo(100)
	n.LevelHistogram() // warm the lazy link state machines
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lv, _ := n.LevelHistogram(); len(lv) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// TestLevelHistogramNoAllocs pins the zero-allocation contract down as a
// plain test, so a regression fails `go test` and not only a bench diff.
func TestLevelHistogramNoAllocs(t *testing.T) {
	n := MustNew(smallConfig(), nil)
	n.RunTo(10)
	n.LevelHistogram()
	if allocs := testing.AllocsPerRun(100, func() { n.LevelHistogram() }); allocs != 0 {
		t.Errorf("LevelHistogram allocates %v per call, want 0", allocs)
	}
}

// TestStepNoAllocs pins ROADMAP's zero-allocation Step at one and two
// shards, on the paper system at the Fig. 5 medium load once it has
// reached steady occupancy.
func TestStepNoAllocs(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Shards = k
			n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 3.3, 5))
			defer n.Close()
			n.RunTo(5_000)
			if allocs := testing.AllocsPerRun(200, n.Step); allocs != 0 {
				t.Errorf("Step allocates %v per cycle, want 0", allocs)
			}
		})
	}
}

// BenchmarkBuild measures full-system wiring cost (1248 links, 64 routers).
func BenchmarkBuild(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		if _, err := New(cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
