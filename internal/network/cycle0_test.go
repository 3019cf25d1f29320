package network

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
)

// cycleZeroConfig is the telemetry recovery mesh with one failure window
// that opens at cycle 0.
func cycleZeroConfig(t *testing.T) (Config, int) {
	cfg := telemetryConfig(t)
	li := meshLinkIndex(t, cfg, cfg.RouterAt(1, 1), DirE)
	cfg.Fault.LinkFailures = []fault.LinkFailure{{Link: li, At: 0, RepairAt: 4_000}}
	return cfg, li
}

// TestLinkFailureAtCycleZero: a failure window that opens at cycle 0 takes
// effect in the first Step everywhere at once: the link is down, recovery
// marks it dead and the flight recorder logs link_down at cycle 0.
func TestLinkFailureAtCycleZero(t *testing.T) {
	cfg, li := cycleZeroConfig(t)
	n := MustNew(cfg, nil)
	n.Step()
	if !n.Channels()[li].DownAt(0) {
		t.Fatalf("link %d is not down at cycle 0", li)
	}
	ref := n.meshRef[li]
	if n.rec.live[ref.r][ref.dir] {
		t.Errorf("recovery still counts link %d live after cycle 0", li)
	}
	var downs []telemetry.Event
	for _, e := range n.Telemetry().Flight().Events() {
		if e.Kind == telemetry.EventLinkDown {
			downs = append(downs, e)
		}
	}
	if len(downs) != 1 || downs[0].Link != li || downs[0].At != 0 {
		t.Errorf("link_down events after cycle 0: %+v, want one for link %d at cycle 0", downs, li)
	}
}

// TestResumeBeforeFirstStep: a network checkpointed at cycle 0, before its
// first Step, resumes byte for byte. Its wheel sits one cycle behind the
// network from construction and already holds the sources' first arrivals
// and the cycle-0 failure window.
func TestResumeBeforeFirstStep(t *testing.T) {
	cfg, _ := cycleZeroConfig(t)
	c := invCase{cfg: cfg, rate: 0.05, stopAt: 6_000}
	ref, n := c.run(t, 1, false, straight)
	if n.DeliveredPackets() == 0 {
		t.Fatal("reference delivered nothing — vacuous comparison")
	}
	if got, _ := c.run(t, 1, true, 0); got != ref {
		line, want, have := firstDiff(ref, got)
		t.Errorf("resumed from cycle 0, diverges at fingerprint line %d:\n  want %s\n  got  %s", line, want, have)
	}
}
