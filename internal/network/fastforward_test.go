package network

import (
	"testing"

	"repro/internal/powerlink"
	"repro/internal/router"
)

// TestFastForwardSkipsPolicyBounded: on a quiet power-aware network the
// fast path must still execute every policy window tick — skips are
// bounded by Tw, and controller window counts match cycle stepping.
func TestFastForwardSkipsPolicyBounded(t *testing.T) {
	run := func(ff bool) (windows int, skips, skipped int64) {
		cfg := smallConfig()
		n := MustNew(cfg, nil) // no traffic at all
		n.SetFastForward(ff)
		n.RunTo(50_000)
		for _, c := range n.Controllers() {
			windows += c.Stats().Windows
		}
		skips, skipped = n.FastForwardStats()
		return
	}
	wSlow, _, _ := run(false)
	wFast, skips, skipped := run(true)
	if wSlow != wFast {
		t.Errorf("policy windows: stepped %d, fast-forward %d", wSlow, wFast)
	}
	if wFast == 0 {
		t.Error("no policy windows ran on a power-aware network")
	}
	if skips == 0 || skipped == 0 {
		t.Errorf("idle power-aware network took %d skips over %d cycles, want >0", skips, skipped)
	}
}

// TestFastForwardIdleNonPA: with no traffic and no controllers there is
// nothing to simulate; RunTo must cross the whole span in one skip.
func TestFastForwardIdleNonPA(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	n := MustNew(cfg, nil)
	n.RunTo(10_000_000)
	skips, cycles := n.FastForwardStats()
	if skips != 1 || cycles != 10_000_000 {
		t.Errorf("idle non-PA network: %d skips over %d cycles, want 1 skip over 10000000", skips, cycles)
	}
	if n.Now() != 10_000_000 {
		t.Errorf("Now = %d, want 10000000", n.Now())
	}
}

// TestRunUntilQuiescentDrainsBurst: a finite burst drains to exact
// quiescence well before the deadline, and credits are fully restored.
func TestRunUntilQuiescentDrainsBurst(t *testing.T) {
	cfg := smallConfig()
	gen := &burstGen{node: 0, dst: 7, count: 20, size: 8}
	n := MustNew(cfg, gen)
	if !n.RunUntilQuiescent(100_000) {
		t.Fatalf("burst did not quiesce by cycle %d", n.Now())
	}
	if n.Now() >= 100_000 {
		t.Errorf("quiesced only at the deadline (cycle %d)", n.Now())
	}
	if n.DeliveredPackets() != 20 {
		t.Errorf("delivered %d of 20 at quiescence", n.DeliveredPackets())
	}
	if err := n.Audit(); err != nil {
		t.Errorf("audit at quiescence: %v", err)
	}
}

// TestLevelHistogramClampsOverflow: a link whose own level ladder is longer
// than the configured one must be counted (clamped to the top), not
// silently dropped.
func TestLevelHistogramClampsOverflow(t *testing.T) {
	cfg := smallConfig()
	n := MustNew(cfg, nil)
	// Wire in one extra channel whose link has a taller ladder than
	// cfg.Link.LevelRates (6 levels) and sits above its top index.
	lc := cfg.Link
	lc.LevelRates = powerlink.Levels(3, 10, 9)
	pl, err := powerlink.New(lc)
	if err != nil {
		t.Fatal(err)
	}
	n.channels = append(n.channels, router.NewChannel(pl, n.wheel, nil))
	if lv := pl.Level(0); lv < len(cfg.Link.LevelRates) {
		t.Fatalf("setup: overflow link starts at level %d, want >= %d", lv, len(cfg.Link.LevelRates))
	}
	levels, off := n.LevelHistogram()
	sum := 0
	for _, c := range levels {
		sum += c
	}
	if sum+off != cfg.TotalLinks()+1 {
		t.Errorf("histogram counts %d links, want %d — overflow link dropped", sum+off, cfg.TotalLinks()+1)
	}
	if levels[len(levels)-1] == 0 {
		t.Error("overflow link not clamped into the top configured level")
	}
}
