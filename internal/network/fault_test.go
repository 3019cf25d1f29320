package network

import (
	"flag"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// faultSeed parameterises the fault tests so CI can sweep seeds:
//
//	go test ./internal/network -run Fault -faultseed 7
var faultSeed = flag.Uint64("faultseed", 1, "scenario seed for fault-injection tests")

// faultyConfig is smallConfig with all three fault classes active: flit
// corruption from a BER floor, CDR relock failures, and one hard failure
// window on an inter-router link.
func faultyConfig() Config {
	cfg := smallConfig()
	cfg.Seed = *faultSeed
	cfg.Fault = fault.Config{
		BERFloor:       2e-4, // ~0.3%/flit: replay machinery constantly busy
		RelockFailProb: 0.3,
		LinkFailures:   []fault.LinkFailure{{Link: 0, At: 6_000, RepairAt: 11_000}},
	}
	return cfg
}

// TestFaultInjectionExactDrain is the acceptance test for the reliability
// layer: with corruption, relock failures, and a hard link failure all
// active, the conservation audit passes throughout, no packet is lost or
// duplicated, and once injection stops the network drains exactly.
func TestFaultInjectionExactDrain(t *testing.T) {
	// Power-aware (the default) keeps the multi-level rate table, so both
	// the policy and the chaos loop below can drive real transitions — the
	// relock injector only fires on frequency switches.
	cfg := faultyConfig()
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n := MustNew(cfg, gen)
	chaos := sim.NewStream(cfg.Seed, 77)

	sawDown := false
	for step := 0; step < 40_000; step++ {
		n.Step()
		if step%50 == 0 {
			// Random bit-rate transitions give the relock injector
			// frequency switches to fail.
			ch := n.Channels()[chaos.Intn(len(n.Channels()))]
			dir := +1
			if chaos.Bernoulli(0.5) {
				dir = -1
			}
			ch.PLink().RequestStep(n.Now(), dir)
		}
		if step%500 == 0 {
			if err := n.Audit(); err != nil {
				t.Fatalf("audit failed at cycle %d: %v", n.Now(), err)
			}
			if n.DownLinks() > 0 {
				sawDown = true
			}
		}
	}
	if !sawDown {
		t.Error("failure window never observed as a down link")
	}

	gen.Stop()
	if !n.RunUntilQuiescent(n.Now() + 400_000) {
		t.Fatalf("network wedged under faults: not quiescent by cycle %d (injected %d, delivered %d)",
			n.Now(), n.InjectedPackets(), n.DeliveredPackets())
	}
	if inj, del := n.InjectedPackets(), n.DeliveredPackets(); inj != del {
		t.Fatalf("packet lost or duplicated: injected %d, delivered %d", inj, del)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit after drain: %v", err)
	}
	for i, ch := range n.Channels() {
		if ch.OutstandingFlits() != 0 {
			t.Errorf("link %d still holds %d unacknowledged flits after drain", i, ch.OutstandingFlits())
		}
	}

	rel := n.FaultStats()
	if rel.CorruptedFlits == 0 {
		t.Error("corruption injector never fired")
	}
	if rel.CrcDrops == 0 {
		t.Error("no CRC drops despite corruption")
	}
	if rel.Retransmits == 0 {
		t.Error("no retransmissions despite CRC drops")
	}
	if rel.RelockFailures == 0 {
		t.Error("relock injector never fired despite transitions")
	}
	if rel.DownLinks != 0 {
		t.Errorf("%d links still down after the repair window", rel.DownLinks)
	}
	t.Logf("fault stats (seed %d): %+v", cfg.Seed, rel)
}

// TestFaultQuiescentCreditsRestored: after a faulty run drains, every
// output's credit count is exactly the buffer depth again — the replay
// machinery returns each credit exactly once.
func TestFaultQuiescentCreditsRestored(t *testing.T) {
	cfg := faultyConfig()
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n := MustNew(cfg, gen)
	n.RunTo(30_000)
	gen.Stop()
	if !n.RunUntilQuiescent(n.Now() + 400_000) {
		t.Fatalf("not quiescent by cycle %d", n.Now())
	}
	for r := 0; r < cfg.Routers(); r++ {
		rt := n.Routers()[r]
		for p := 0; p < cfg.PortsPerRouter(); p++ {
			out := rt.Output(p)
			if out.Channel() == nil {
				continue
			}
			for v := 0; v < cfg.VCs; v++ {
				if out.Credits(v) != cfg.BufDepth {
					t.Errorf("router %d port %d vc %d: %d credits after faulty drain, want %d",
						r, p, v, out.Credits(v), cfg.BufDepth)
				}
			}
		}
	}
}

// TestFaultDisabledIsIdentical: a zero fault.Config must leave the
// simulation bit-identical to a build that never heard of faults — same
// packet counts, same energy, same quiescence cycle.
func TestFaultDisabledIsIdentical(t *testing.T) {
	run := func(withZeroFault bool) (int64, int64, sim.Cycle, float64) {
		cfg := smallConfig()
		if withZeroFault {
			cfg.Fault = fault.Config{} // explicit zero value
		}
		gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
		n := MustNew(cfg, gen)
		n.RunTo(20_000)
		gen.Stop()
		if !n.RunUntilQuiescent(n.Now() + 200_000) {
			t.Fatalf("not quiescent by %d", n.Now())
		}
		if n.Injector() != nil {
			t.Fatal("zero fault config built an injector")
		}
		return n.InjectedPackets(), n.DeliveredPackets(), n.Now(), n.LinkEnergyJ()
	}
	i1, d1, t1, e1 := run(false)
	i2, d2, t2, e2 := run(true)
	if i1 != i2 || d1 != d2 || t1 != t2 || e1 != e2 {
		t.Errorf("zero fault config perturbed the run: %d/%d/%d/%g vs %d/%d/%d/%g",
			i1, d1, t1, e1, i2, d2, t2, e2)
	}
}

// TestFaultHardFailureOnly isolates the hard-failure class: no corruption,
// no relock faults, one long down window. Flits caught in flight are lost
// on the wire and must be recovered by the retransmit watchdog alone.
func TestFaultHardFailureOnly(t *testing.T) {
	cfg := smallConfig()
	cfg.Seed = *faultSeed
	cfg.Fault = fault.Config{
		LinkFailures: []fault.LinkFailure{
			{Link: 0, At: 3_000, RepairAt: 9_000},
			{Link: 5, At: 12_000, RepairAt: 15_000},
		},
	}
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n := MustNew(cfg, gen)
	n.RunTo(4_000)
	if n.DownLinks() == 0 {
		t.Error("link 0 not reported down inside its failure window")
	}
	n.RunTo(20_000)
	gen.Stop()
	if !n.RunUntilQuiescent(n.Now() + 400_000) {
		t.Fatalf("not quiescent by cycle %d", n.Now())
	}
	if inj, del := n.InjectedPackets(), n.DeliveredPackets(); inj != del {
		t.Fatalf("hard failure lost packets: injected %d, delivered %d", inj, del)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit after drain: %v", err)
	}
	if n.DownLinks() != 0 {
		t.Errorf("%d links down after all repairs", n.DownLinks())
	}
}
