package policy

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fakeLoss feeds the rule engine arbitrary reliability counters.
type fakeLoss struct {
	retx, crc, esc, relock int64
}

func (f *fakeLoss) Retransmits() int64                 { return f.retx }
func (f *fakeLoss) CrcDrops() int64                    { return f.crc }
func (f *fakeLoss) Escalations() int64                 { return f.esc }
func (f *fakeLoss) RelockFailures(now sim.Cycle) int64 { return f.relock }

// fakeTimers records every armed policy timer.
type fakeTimers struct {
	armed []sim.Cycle
}

func (f *fakeTimers) ArmPolicyTimer(at sim.Cycle, ordinal int) { f.armed = append(f.armed, at) }

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
	}{
		{"", KindDVS}, {"dvs", KindDVS}, {"rules", KindRules},
		{"pid", KindPID}, {"oracle-replay", KindOracleReplay}, {"oracle", KindOracleReplay},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseKind("thermostat"); err == nil || !strings.Contains(err.Error(), "thermostat") {
		t.Errorf("ParseKind(thermostat) err = %v, want unknown-kind error naming the input", err)
	}
	for _, k := range []Kind{KindDVS, KindRules, KindPID, KindOracleReplay} {
		back, err := ParseKind(k.String())
		if err != nil || back != k {
			t.Errorf("ParseKind(%q) = %v, %v; want round-trip to %v", k.String(), back, err, k)
		}
	}
}

// rulesCfg is cfgN1 with the rule engine selected and a fast hysteresis
// tuning so tests can walk the whole derate/hold/recover cycle in a few
// windows.
func rulesCfg() Config {
	cfg := cfgN1()
	cfg.Kind = KindRules
	cfg.Rules = RulesConfig{
		LossHigh:       0.05,
		LossLow:        0.01,
		StormRelocks:   2,
		SafeLevel:      0,
		HoldCycles:     4000,
		RecoverWindows: 2,
	}
	return cfg
}

func newTestRules(t *testing.T, cfg Config) (*RuleEngine, *fakeSource, *fakeLoss, *fakeTimers) {
	t.Helper()
	src := &fakeSource{cap: 16}
	loss := &fakeLoss{}
	timers := &fakeTimers{}
	p, err := New(cfg, Deps{Link: testLink(), Util: src, Loss: loss, Timers: timers})
	if err != nil {
		t.Fatal(err)
	}
	return p.(*RuleEngine), src, loss, timers
}

// TestRulesLossDerate: a window whose measured per-flit loss ratio exceeds
// LossHigh must derate (R2), count a LossDerate, and arm the hold timer.
func TestRulesLossDerate(t *testing.T) {
	cfg := rulesCfg()
	e, src, loss, timers := newTestRules(t, cfg)
	now := cfg.Window
	src.addWindow(0.9, 0.5, cfg.Window, 16)
	src.flits += 100
	loss.retx += 10 // 10% loss, well above LossHigh
	if d := e.Tick(now); d != StepDown {
		t.Fatalf("lossy window: %v, want StepDown", d)
	}
	st := e.Stats()
	if st.LossDerates != 1 || st.Downs != 1 {
		t.Errorf("stats = %+v, want LossDerates=1 Downs=1", st)
	}
	if len(timers.armed) != 1 || timers.armed[0] != now+cfg.Rules.HoldCycles {
		t.Errorf("hold timer armed at %v, want [%d]", timers.armed, now+cfg.Rules.HoldCycles)
	}
}

// TestRulesStormBackoff: StormRelocks relock/reset events in one window
// trigger R1 ahead of everything else.
func TestRulesStormBackoff(t *testing.T) {
	cfg := rulesCfg()
	e, src, loss, _ := newTestRules(t, cfg)
	now := cfg.Window
	src.addWindow(0.9, 0.5, cfg.Window, 16)
	src.flits += 100
	loss.relock += 2
	if d := e.Tick(now); d != StepDown {
		t.Fatalf("storm window: %v, want StepDown", d)
	}
	if st := e.Stats(); st.StormBackoffs != 1 || st.LossDerates != 0 {
		t.Errorf("stats = %+v, want StormBackoffs=1 and no LossDerates", st)
	}
}

// TestRulesRecoveryHysteresis walks the full graceful-degradation cycle:
// derate under loss, refuse to step up while the hold timer is armed or the
// clean streak is short, then recover exactly one gated step after both
// clear. A stale timer firing (superseded deadline) must not end the hold.
func TestRulesRecoveryHysteresis(t *testing.T) {
	cfg := rulesCfg()
	e, src, loss, timers := newTestRules(t, cfg)
	w := cfg.Window

	// Window 1: loss → derate, hold armed for 4000 cycles.
	now := w
	src.addWindow(0.9, 0.5, w, 16)
	src.flits += 100
	loss.retx += 10
	if d := e.Tick(now); d != StepDown {
		t.Fatalf("window 1: %v, want StepDown", d)
	}
	holdAt := timers.armed[0]

	// Windows 2-4: clean and busy — recovery must stay blocked by the hold.
	for i := 0; i < 3; i++ {
		now += w
		src.addWindow(0.9, 0.5, w, 16)
		src.flits += 100
		if d := e.Tick(now); d != Hold {
			t.Fatalf("window %d (holding): %v, want Hold", 2+i, d)
		}
	}

	// A stale firing (not the armed deadline) must not release the hold.
	e.OnTimer(holdAt - 1)
	now += w
	src.addWindow(0.9, 0.5, w, 16)
	src.flits += 100
	if d := e.Tick(now); d != Hold {
		t.Fatalf("window 5 (stale timer fired): %v, want Hold", d)
	}

	// The real deadline releases it; the streak is long since clean, so the
	// next busy window steps up and the streak resets.
	e.OnTimer(holdAt)
	now += w
	src.addWindow(0.9, 0.5, w, 16)
	src.flits += 100
	if d := e.Tick(now); d != StepUp {
		t.Fatalf("window 6 (hold released): %v, want StepUp", d)
	}
	st := e.Stats()
	if st.GradualUps != 1 || st.Ups != 1 {
		t.Errorf("stats = %+v, want GradualUps=1 Ups=1", st)
	}

	// Streak was consumed: one clean window is fewer than RecoverWindows=2,
	// so the immediately following busy window holds.
	now += w
	src.addWindow(0.9, 0.5, w, 16)
	src.flits += 100
	if d := e.Tick(now); d != Hold {
		t.Fatalf("window 7 (streak reset by the up): %v, want Hold", d)
	}
	if st := e.Stats(); st.Ups != 1 || st.GradualUps != 1 {
		t.Errorf("window 7 stats = %+v, want Ups=1 GradualUps=1", st)
	}

	// The second clean window completes the streak: the rule engine steps
	// up again, and the link, already at its top level, rejects the step.
	now += w
	src.addWindow(0.9, 0.5, w, 16)
	src.flits += 100
	if d := e.Tick(now); d != StepUp {
		t.Fatalf("window 8 (streak rebuilt): %v, want StepUp", d)
	}
	if st := e.Stats(); st.GradualUps != 2 || st.Rejected != 1 {
		t.Errorf("window 8 stats = %+v, want GradualUps=2 Rejected=1", st)
	}
}

// TestPIDServo: the PID tracker steps down on sustained idleness and back
// up on sustained saturation, clearing the integral on each step.
func TestPIDServo(t *testing.T) {
	cfg := cfgN1()
	cfg.Kind = KindPID
	src := &fakeSource{cap: 16}
	p, err := New(cfg, Deps{Link: testLink(), Util: src})
	if err != nil {
		t.Fatal(err)
	}
	// Idle window: err = -0.5 → u = Kp·(-0.5) + Ki·(-0.5) = -1.25.
	now := cfg.Window
	if d := p.Tick(now); d != StepDown {
		t.Fatalf("idle window: %v, want StepDown", d)
	}
	// Saturated window: err = +0.5, integral reset by the step, derivative
	// +1 → u = 1 + 0 + 1 = 2 ≥ threshold.
	now += cfg.Window
	src.addWindow(1.0, 0.5, cfg.Window, 16)
	if d := p.Tick(now); d != StepUp {
		t.Fatalf("saturated window: %v, want StepUp", d)
	}
	if st := p.Stats(); st.Downs != 1 || st.Ups != 1 {
		t.Errorf("stats = %+v, want Downs=1 Ups=1", st)
	}
}

// TestComputeOracleChoosesCheapestSafeLevel: per window the oracle picks the
// lowest level that serialises the demand, clamped by the recorded BER
// ceiling, and prices the schedule at steady-state power.
func TestComputeOracleChoosesCheapestSafeLevel(t *testing.T) {
	link := testLink()
	nl := link.NumLevels()
	top := nl - 1
	window := sim.Cycle(1000)
	capacity := func(lv int) int64 {
		return int64(window) * 1000 / flitMilliCycles(link.LevelRate(lv))
	}

	tr := Trace{Window: window, Links: []LinkTrace{{
		Flits: []int64{
			0,                 // idle → level 0
			capacity(0),       // fits level 0 exactly
			capacity(0) + 1,   // needs more than level 0
			capacity(top),     // needs the top level
			capacity(top) * 2, // over capacity → best safe level, queueing eaten
			capacity(top),     // top-level demand, but ceiling clamps to 1
			capacity(0),       // trivial demand, no safe level at all
		},
		MaxSafe: []int8{int8(top), int8(top), int8(top), int8(top), int8(top), 1, -1},
	}}}
	o, err := ComputeOracle(tr, []LinkModel{link})
	if err != nil {
		t.Fatal(err)
	}
	want := []int8{0, 0, 1, int8(top), int8(top), 1, 0}
	if !reflect.DeepEqual(o.Levels[0], want) {
		t.Errorf("oracle schedule = %v, want %v", o.Levels[0], want)
	}
	var energy float64
	for _, lv := range want {
		energy += link.LevelPowerW(int(lv)) * window.Seconds()
	}
	if o.EnergyJ != energy {
		t.Errorf("oracle energy = %g, want %g", o.EnergyJ, energy)
	}

	if _, err := ComputeOracle(tr, nil); err == nil {
		t.Error("ComputeOracle with mismatched link models: want error")
	}
}

// TestRecorderDifferencesCumulativeFlits: Observe takes cumulative counters
// and stores per-window deltas.
func TestRecorderDifferencesCumulativeFlits(t *testing.T) {
	r := NewRecorder(1000, 2)
	r.Observe(0, 10, 3)
	r.Observe(0, 25, 2)
	r.Observe(1, 7, -1)
	tr := r.Trace()
	if want := []int64{10, 15}; !reflect.DeepEqual(tr.Links[0].Flits, want) {
		t.Errorf("link 0 flit deltas = %v, want %v", tr.Links[0].Flits, want)
	}
	if want := []int8{3, 2}; !reflect.DeepEqual(tr.Links[0].MaxSafe, want) {
		t.Errorf("link 0 maxSafe = %v, want %v", tr.Links[0].MaxSafe, want)
	}
	if want := []int64{7}; !reflect.DeepEqual(tr.Links[1].Flits, want) {
		t.Errorf("link 1 flit deltas = %v, want %v", tr.Links[1].Flits, want)
	}
}

// TestReplayFollowsSchedule: the replay policy steps one level per window
// toward the oracle's prescription and holds past the schedule's end.
func TestReplayFollowsSchedule(t *testing.T) {
	link := testLink()
	top := link.NumLevels() - 1
	cfg := cfgN1()
	cfg.Kind = KindOracleReplay
	cfg.Oracle = &Oracle{
		Window: cfg.Window,
		Levels: [][]int8{{int8(top - 1), int8(top - 2), int8(top - 2)}},
	}
	p, err := New(cfg, Deps{Link: link})
	if err != nil {
		t.Fatal(err)
	}
	now := cfg.Window
	wantDecisions := []Decision{StepDown, StepDown, Hold, Hold}
	for i, want := range wantDecisions {
		if d := p.Tick(now); d != want {
			t.Fatalf("window %d: %v, want %v", i, d, want)
		}
		now += cfg.Window
	}
	if lv := link.Level(now); lv != top-2 {
		t.Errorf("final level = %d, want %d", lv, top-2)
	}
}

// TestReplayRequiresSchedule: building the replay without an oracle, or for
// an ordinal the schedule does not cover, must fail loudly.
func TestReplayRequiresSchedule(t *testing.T) {
	cfg := cfgN1()
	cfg.Kind = KindOracleReplay
	if _, err := New(cfg, Deps{Link: testLink()}); err == nil {
		t.Error("New(KindOracleReplay) without an Oracle: want error")
	}
	cfg.Oracle = &Oracle{Window: cfg.Window, Levels: [][]int8{{0}}}
	if _, err := New(cfg, Deps{Link: testLink(), Ordinal: 1}); err == nil {
		t.Error("New(KindOracleReplay) with out-of-range ordinal: want error")
	}
}

// TestPolicyStateRoundTrip: for every kind, state exported after activity
// restores into a fresh same-config instance so that a re-export is
// deep-equal — the invariant the checkpoint layer builds on.
func TestPolicyStateRoundTrip(t *testing.T) {
	build := func(t *testing.T, kind Kind) LinkPolicy {
		t.Helper()
		cfg := rulesCfg()
		cfg.Kind = kind
		if kind == KindOracleReplay {
			cfg.Oracle = &Oracle{Window: cfg.Window, Levels: [][]int8{{0, 1, 2}}}
		}
		src := &fakeSource{cap: 16}
		p, err := New(cfg, Deps{Link: testLink(), Util: src, Loss: &fakeLoss{}, Timers: &fakeTimers{}})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, kind := range []Kind{KindDVS, KindRules, KindPID, KindOracleReplay} {
		t.Run(kind.String(), func(t *testing.T) {
			a := build(t, kind)
			now := sim.Cycle(0)
			for i := 0; i < 3; i++ {
				now += 1000
				a.Tick(now)
			}
			st := a.ExportPolicy()
			if st.Kind != kind {
				t.Fatalf("exported kind %v, want %v", st.Kind, kind)
			}
			b := build(t, kind)
			if err := b.RestorePolicy(st); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := b.ExportPolicy(); !reflect.DeepEqual(got, st) {
				t.Errorf("re-export diverges:\ngot  %+v\nwant %+v", got, st)
			}
		})
	}
}

// TestPolicyStateKindMismatch: restoring a wrong-kind snapshot fails.
func TestPolicyStateKindMismatch(t *testing.T) {
	cfg := rulesCfg()
	src := &fakeSource{cap: 16}
	p, err := New(cfg, Deps{Link: testLink(), Util: src, Loss: &fakeLoss{}})
	if err != nil {
		t.Fatal(err)
	}
	pidState := PolicyState{Kind: KindPID, History: make([]float64, cfg.SlidingN)}
	if err := p.RestorePolicy(pidState); err == nil {
		t.Error("restoring a PID snapshot into the rule engine: want error")
	}
}

// TestTraceStateRoundTrip: the recorder's snapshot is a deep copy that
// restores exactly.
func TestTraceStateRoundTrip(t *testing.T) {
	a := NewRecorder(1000, 2)
	a.Observe(0, 10, 3)
	a.Observe(1, 4, 5)
	a.Observe(0, 30, 2)
	st := a.ExportState()
	b := NewRecorder(1000, 2)
	if err := b.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.ExportState(), st) {
		t.Error("restored recorder re-export diverges")
	}
	// Mutating the restored recorder must not alias the snapshot.
	b.Observe(0, 50, 1)
	if len(st.Links[0].Flits) != 2 {
		t.Error("snapshot aliases the restored recorder's slices")
	}
	c := NewRecorder(1000, 3)
	if err := c.RestoreState(st); err == nil {
		t.Error("restoring a 2-link trace into a 3-link recorder: want error")
	}
}
