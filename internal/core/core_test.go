package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/traffic"
)

func smallConfig() network.Config {
	cfg := network.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.NodesPerRack = 2
	return cfg
}

func TestRunBasics(t *testing.T) {
	cfg := smallConfig()
	gen := traffic.NewUniform(cfg.Nodes(), 0.2, 5)
	r, err := Run(cfg, gen, 5_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Packets == 0 {
		t.Fatal("no packets measured")
	}
	if r.MeanLatencyCycles <= 0 {
		t.Error("non-positive mean latency")
	}
	if r.MeanHeadLatencyCycles <= 0 || r.MeanHeadLatencyCycles >= r.MeanLatencyCycles {
		t.Errorf("head latency %g should be positive and below tail latency %g",
			r.MeanHeadLatencyCycles, r.MeanLatencyCycles)
	}
	if r.NormPower <= 0 || r.NormPower > 1.01 {
		t.Errorf("norm power %g outside (0,1]", r.NormPower)
	}
	if r.Duration != 50_000 {
		t.Errorf("duration %d, want 50000", r.Duration)
	}
	if r.EnergyJ <= 0 {
		t.Error("no energy recorded")
	}
	if math.Abs(r.AvgThroughputPktsPerCycle-float64(r.Packets)/50_000) > 1e-12 {
		t.Error("throughput inconsistent with packet count")
	}
}

func TestWarmupExcludesEnergyAndLatency(t *testing.T) {
	cfg := smallConfig()
	gen := traffic.NewUniform(cfg.Nodes(), 0.2, 5)
	s, err := NewSystem(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	s.Warmup(20_000)
	r := s.Measure(20_000)
	// Energy over 20k cycles must be well below whole-run energy.
	whole := s.Net.LinkEnergyJ()
	if r.EnergyJ >= whole {
		t.Errorf("measured energy %g not less than cumulative %g", r.EnergyJ, whole)
	}
	// And NormPower must still be a sane ratio.
	if r.NormPower <= 0 || r.NormPower > 1.01 {
		t.Errorf("norm power %g", r.NormPower)
	}
}

func TestNonPANormPowerIsOne(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	gen := traffic.NewUniform(cfg.Nodes(), 0.2, 5)
	r := MustRun(cfg, gen, 2_000, 20_000)
	if math.Abs(r.NormPower-1) > 1e-9 {
		t.Errorf("non-PA norm power = %g, want 1", r.NormPower)
	}
	if math.Abs(r.FabricNormPower-1) > 1e-9 {
		t.Errorf("non-PA fabric norm power = %g, want 1", r.FabricNormPower)
	}
}

func TestRunSeriesShapes(t *testing.T) {
	cfg := smallConfig()
	gen := traffic.NewUniform(cfg.Nodes(), 0.3, 5)
	r, ts, err := RunSeries(cfg, gen, 50_000, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.InjectionRate) != 10 || len(ts.NormPower) != 10 {
		t.Fatalf("series lengths %d/%d, want 10", len(ts.InjectionRate), len(ts.NormPower))
	}
	if len(ts.MeanLatency) == 0 || len(ts.MeanLatency) > 10 {
		t.Fatalf("latency series length %d", len(ts.MeanLatency))
	}
	// Injection-rate series integrates back to the injected total.
	var sum float64
	for _, p := range ts.InjectionRate {
		sum += p.V * 5_000
	}
	if int64(sum+0.5) != r.InjectedPackets {
		t.Errorf("series integrates to %g, injected %d", sum, r.InjectedPackets)
	}
	// Power series stays within physical bounds.
	for _, p := range ts.NormPower {
		if p.V <= 0.1 || p.V > 1.01 {
			t.Errorf("norm power point %g out of range", p.V)
		}
	}
}

func TestRunSeriesRejectsBadBuckets(t *testing.T) {
	cfg := smallConfig()
	gen := traffic.NewUniform(cfg.Nodes(), 0.3, 5)
	if _, _, err := RunSeries(cfg, gen, 50_000, 7_000); err == nil {
		t.Error("non-divisor bucket accepted")
	}
	if _, _, err := RunSeries(cfg, gen, 0, 100); err == nil {
		t.Error("zero total accepted")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.VCs = 0
	if _, err := Run(cfg, nil, 10, 10); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestZeroLoadLatency(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	z, err := ZeroLoadLatency(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 racks, 5-flit packets: a handful of hops plus serialisation.
	if z < 10 || z > 80 {
		t.Errorf("zero-load latency %g implausible", z)
	}
}

// TestPowerMonotoneInLoad: normalised power must not decrease as offered
// load grows (below saturation).
func TestPowerMonotoneInLoad(t *testing.T) {
	cfg := smallConfig()
	prev := 0.0
	for _, rate := range []float64{0.05, 0.2, 0.4} {
		r := MustRun(cfg, traffic.NewUniform(cfg.Nodes(), rate, 5), 5_000, 40_000)
		if r.NormPower+0.02 < prev { // small tolerance for stochastic jitter
			t.Errorf("norm power dropped from %g to %g at rate %g", prev, r.NormPower, rate)
		}
		prev = r.NormPower
	}
}

func TestSystemConfigAccessor(t *testing.T) {
	cfg := smallConfig()
	s := MustNewSystem(cfg, nil)
	if s.Config().MeshW != cfg.MeshW {
		t.Error("Config accessor mismatch")
	}
	var _ sim.Cycle = s.Net.Now()
}

// TestRunClosesShardPool: Run and RunSeries at Shards > 1 close the
// network they build, so their K-1 pool workers exit instead of leaking
// one set per run. Workers leave asynchronously after the close, so the
// goroutine count is polled for up to a second.
func TestRunClosesShardPool(t *testing.T) {
	cfg := network.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 4, 4
	cfg.NodesPerRack = 2
	cfg.Shards = 2
	start := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		if _, err := Run(cfg, traffic.NewUniform(cfg.Nodes(), 0.5, 5), 200, 800); err != nil {
			t.Fatal(err)
		}
		if _, _, err := RunSeries(cfg, traffic.NewUniform(cfg.Nodes(), 0.5, 5), 1_000, 500); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > start && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > start {
		t.Errorf("%d goroutines after six sharded runs, %d before: pool workers leaked", got, start)
	}
}
