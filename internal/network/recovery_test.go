package network

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// recoveryConfig is a 3×3 mesh with fault-aware routing enabled: 3 VCs (1
// escape + 2 adaptive) and default watchdog horizons.
func recoveryConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshH = 3, 3
	cfg.NodesPerRack = 2
	cfg.VCs = 3
	cfg.Seed = *faultSeed
	cfg.Recovery = RecoveryConfig{Enabled: true}
	return cfg
}

// meshLinkIndex resolves the global link index of a mesh hop without
// building the network under test (wiring order is deterministic).
func meshLinkIndex(t *testing.T, cfg Config, r, dir int) int {
	t.Helper()
	c := cfg
	c.Fault = fault.Config{}
	c.Recovery = RecoveryConfig{}
	probe := MustNew(c, nil)
	li := probe.MeshLinkIndex(r, dir)
	if li < 0 {
		t.Fatalf("no mesh link at router %d dir %d", r, dir)
	}
	return li
}

// TestRecoveryChaosExactDrain is the tentpole acceptance test: with two
// overlapping hard link failures (plus background corruption), under all
// three routing schemes, the recovery subsystem keeps the accounting
// exact — every injected packet is either delivered or counted as a drop —
// and the network drains to quiescence once the links repair.
func TestRecoveryChaosExactDrain(t *testing.T) {
	routings := []struct {
		name string
		r    Routing
	}{
		{"XY", RoutingXY},
		{"YX", RoutingYX},
		{"WestFirst", RoutingWestFirst},
	}
	for _, rt := range routings {
		t.Run(rt.name, func(t *testing.T) {
			cfg := recoveryConfig()
			cfg.Routing = rt.r
			center := cfg.RouterAt(1, 1)
			cfg.Fault = fault.Config{
				BERFloor: 1e-4,
				LinkFailures: []fault.LinkFailure{
					// Two failures concurrent over [6k, 26k).
					{Link: meshLinkIndex(t, cfg, center, DirE), At: 4_000, RepairAt: 26_000},
					{Link: meshLinkIndex(t, cfg, center, DirS), At: 6_000, RepairAt: 30_000},
				},
			}
			gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
			n := MustNew(cfg, gen)

			n.RunTo(40_000)
			if err := n.Audit(); err != nil {
				t.Fatalf("audit during recovery chaos: %v", err)
			}
			gen.Stop()
			if !n.RunUntilQuiescent(n.Now() + 500_000) {
				t.Fatalf("not quiescent by cycle %d: injected %d delivered %d dropped %d",
					n.Now(), n.InjectedPackets(), n.DeliveredPackets(), n.DroppedPackets())
			}
			inj, del, drop := n.InjectedPackets(), n.DeliveredPackets(), n.DroppedPackets()
			if inj != del+drop {
				t.Fatalf("exact drain violated: injected %d != delivered %d + dropped %d", inj, del, drop)
			}
			if del == 0 {
				t.Fatal("nothing delivered")
			}
			if err := n.Audit(); err != nil {
				t.Fatalf("audit after drain: %v", err)
			}
			rs := n.RecoveryStats()
			if rs.Reroutes == 0 {
				t.Errorf("no liveness-filtered reroutes despite two failed links: %+v", rs)
			}
			if rs.DownMeshLinks != 0 {
				t.Errorf("%d links still marked dead after every repair", rs.DownMeshLinks)
			}
		})
	}
}

// TestRecoveryDeadlockFreedomPermanentFailure holds the network under
// sustained load with a permanently failed central link for ≥1M cycles.
// Fault-aware routing must keep steering traffic around the failure and
// the watchdog must keep escalating — delivery never stops, the audit
// holds, and nothing wedges.
func TestRecoveryDeadlockFreedomPermanentFailure(t *testing.T) {
	t.Parallel() // the package's longest single-threaded test: overlap it with TestInvariance
	cfg := recoveryConfig()
	center := cfg.RouterAt(1, 1)
	cfg.Fault = fault.Config{
		LinkFailures: []fault.LinkFailure{
			{Link: meshLinkIndex(t, cfg, center, DirE), At: 2_000, RepairAt: 1 << 40},
		},
	}
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.25, 5))

	last := int64(0)
	for _, checkpoint := range []sim.Cycle{200_000, 400_000, 600_000, 800_000, 1_000_000} {
		n.RunTo(checkpoint)
		if err := n.Audit(); err != nil {
			t.Fatalf("audit at cycle %d: %v", checkpoint, err)
		}
		del := n.DeliveredPackets() + n.DroppedPackets()
		if del <= last {
			t.Fatalf("no forward progress in (%d, %d]: completed stuck at %d", checkpoint-200_000, checkpoint, del)
		}
		last = del
	}
	rs := n.RecoveryStats()
	if rs.DownMeshLinks != 1 {
		t.Errorf("liveness table sees %d dead links, want exactly the permanent one", rs.DownMeshLinks)
	}
	if rs.Reroutes == 0 {
		t.Errorf("traffic never rerouted around the permanent failure: %+v", rs)
	}
}

// TestRecoveryDeterminism: two identical recovery runs (failures, watchdog
// drops and all) produce identical counters.
func TestRecoveryDeterminism(t *testing.T) {
	run := func() (int64, int64, interface{}) {
		cfg := recoveryConfig()
		center := cfg.RouterAt(1, 1)
		cfg.Fault = fault.Config{
			BERFloor: 1e-4,
			LinkFailures: []fault.LinkFailure{
				{Link: meshLinkIndex(t, cfg, center, DirW), At: 3_000, RepairAt: 25_000},
			},
		}
		gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
		n := MustNew(cfg, gen)
		n.RunTo(30_000)
		gen.Stop()
		n.RunUntilQuiescent(n.Now() + 300_000)
		return n.DeliveredPackets(), n.DroppedPackets(), n.RecoveryStats()
	}
	d1, p1, s1 := run()
	d2, p2, s2 := run()
	if d1 != d2 || p1 != p2 || s1 != s2 {
		t.Errorf("nondeterministic recovery: (%d,%d,%+v) vs (%d,%d,%+v)", d1, p1, s1, d2, p2, s2)
	}
}

// TestRecoveryUnreachableDrops partitions a 1×2 mesh by failing both
// directions of its only inter-router hop: cross-partition packets must be
// dropped and counted at injection (NICs never wedge), local traffic keeps
// flowing, and after repair the network drains exactly.
func TestRecoveryUnreachableDrops(t *testing.T) {
	cfg := recoveryConfig()
	cfg.MeshW, cfg.MeshH = 2, 1
	cfg.Fault = fault.Config{
		LinkFailures: []fault.LinkFailure{
			{Link: meshLinkIndex(t, cfg, 0, DirE), At: 100, RepairAt: 60_000},
			{Link: meshLinkIndex(t, cfg, 1, DirW), At: 100, RepairAt: 60_000},
		},
	}
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.2, 5))
	n := MustNew(cfg, gen)
	n.RunTo(50_000)
	rs := n.RecoveryStats()
	if rs.UnreachableDrops == 0 {
		t.Error("no unreachable-destination drops during the partition")
	}
	if n.DeliveredPackets() == 0 {
		t.Error("intra-partition traffic stopped flowing")
	}
	gen.Stop()
	if !n.RunUntilQuiescent(n.Now() + 300_000) {
		t.Fatalf("not quiescent by cycle %d: injected %d delivered %d dropped %d",
			n.Now(), n.InjectedPackets(), n.DeliveredPackets(), n.DroppedPackets())
	}
	if inj, del, drop := n.InjectedPackets(), n.DeliveredPackets(), n.DroppedPackets(); inj != del+drop {
		t.Fatalf("exact drain violated: injected %d != delivered %d + dropped %d", inj, del, drop)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit after drain: %v", err)
	}
}

// TestRecoveryDisabledIdentical: a run with the recovery knobs at their
// zero value must be bit-identical to one predating the subsystem — the
// same invariant TestFastForwardEquivalence pins for fast-forward. Here we
// pin the next best observable: enabling recovery with zero faults changes
// nothing measurable versus disabled except the VC discipline's own
// effects, and disabled-vs-disabled runs are deterministic.
func TestRecoveryDisabledIdentical(t *testing.T) {
	run := func() (int64, float64, float64) {
		cfg := smallConfig()
		n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.3, 5))
		n.RunTo(30_000)
		return n.DeliveredPackets(), n.MeanLatency(), n.LinkEnergyJ()
	}
	d1, l1, e1 := run()
	d2, l2, e2 := run()
	if d1 != d2 || l1 != l2 || e1 != e2 {
		t.Errorf("disabled-recovery runs differ: (%d,%v,%v) vs (%d,%v,%v)", d1, l1, e1, d2, l2, e2)
	}
}

// TestFaultRoutingVariants exercises the PR 2 fault/retransmission layer
// (recovery disabled) under RoutingYX and RoutingWestFirst — the chaos and
// fault tests above it only cover the default XY scheme.
func TestFaultRoutingVariants(t *testing.T) {
	for _, rt := range []struct {
		name string
		r    Routing
	}{{"YX", RoutingYX}, {"WestFirst", RoutingWestFirst}} {
		t.Run(rt.name, func(t *testing.T) {
			cfg := faultyConfig()
			cfg.Routing = rt.r
			gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
			n := MustNew(cfg, gen)
			n.RunTo(20_000)
			if err := n.Audit(); err != nil {
				t.Fatalf("audit mid-run: %v", err)
			}
			gen.Stop()
			if !n.RunUntilQuiescent(n.Now() + 300_000) {
				t.Fatalf("not quiescent by cycle %d: injected %d delivered %d",
					n.Now(), n.InjectedPackets(), n.DeliveredPackets())
			}
			if inj, del := n.InjectedPackets(), n.DeliveredPackets(); inj != del {
				t.Fatalf("exact drain violated: injected %d delivered %d", inj, del)
			}
			if rel := n.FaultStats(); rel.CrcDrops == 0 || rel.Retransmits == 0 {
				t.Errorf("fault layer inactive under %s: %+v", rt.name, rel)
			}
		})
	}
}
