package policy

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/powerlink"
	"repro/internal/sim"
)

// pinWindow is one scripted window of sensor activity: the link's busy
// fraction and downstream buffer fill, plus the flits, replays and relock
// failures the window added to the cumulative counters.
type pinWindow struct {
	lu, bu                float64
	flits, retx, relockFs int64
}

// pinScript drives every kind through idle, busy, congested, lossy and
// storm windows, including an over-unity busy window that exercises the
// Lu cap.
var pinScript = []pinWindow{
	{0.9, 0.1, 450, 0, 0},
	{0.95, 0.2, 950, 0, 0},
	{0.2, 0.1, 200, 0, 0},
	{0.1, 0, 100, 0, 0},
	{0, 0, 0, 0, 0},
	{0.5, 0.6, 500, 40, 0},
	{0.7, 0.7, 700, 0, 2},
	{0.65, 0.3, 650, 0, 0},
	{0.3, 0.1, 300, 0, 0},
	{0.9, 0.1, 600, 0, 0},
	{0.9, 0.1, 900, 0, 0},
	{0.9, 0.9, 900, 5, 0},
	{0.95, 0.1, 950, 0, 0},
	{1.2, 0.1, 1300, 0, 0},
	{0.9, 0.1, 500, 0, 0},
	{0.45, 0.1, 450, 0, 1},
	{0.8, 0.1, 800, 0, 0},
	{0.9, 0.1, 900, 0, 0},
}

// pinTimerWindow is the window before whose tick the newest armed policy
// timer (if any) fires.
const pinTimerWindow = 12

// pinResult is what one variant did over the script.
type pinResult struct {
	decisions string // one letter per window: U(p), D(own), H(old)
	levels    []int  // link level right after each tick
	stats     Stats
	energyJ   string // EnergyJ at the end, exact round-trip formatting
	timers    []sim.Cycle
}

func runPinScript(t *testing.T, cfg Config, link *powerlink.Link) pinResult {
	t.Helper()
	src := &fakeSource{cap: 16}
	loss := &fakeLoss{}
	timers := &fakeTimers{}
	p, err := New(cfg, Deps{Link: link, Util: src, Loss: loss, Timers: timers})
	if err != nil {
		t.Fatal(err)
	}
	var r pinResult
	now := sim.Cycle(0)
	for i, w := range pinScript {
		src.addWindow(w.lu, w.bu, cfg.Window, src.cap)
		src.flits += w.flits
		loss.retx += w.retx
		loss.relock += w.relockFs
		now += cfg.Window
		if tp, ok := p.(TimerPolicy); ok && i == pinTimerWindow && len(timers.armed) > 0 {
			tp.OnTimer(timers.armed[len(timers.armed)-1])
		}
		d := p.Tick(now)
		r.decisions += map[Decision]string{Hold: "H", StepUp: "U", StepDown: "D"}[d]
		r.levels = append(r.levels, link.Level(now))
	}
	r.stats = p.Stats()
	r.energyJ = strconv.FormatFloat(link.EnergyJ(now+cfg.Window), 'g', -1, 64)
	r.timers = timers.armed
	return r
}

// TestKindPins pins, per policy kind and sensor variant, the exact
// decisions, levels, counters, link energy and armed timers over one
// scripted run. The values were recorded from the per-kind
// implementations; any refactor of the shared policy skeleton must leave
// every one of them unchanged.
func TestKindPins(t *testing.T) {
	dvs := PaperConfig()
	guardedDVS := dvs
	guardedDVS.MaxBER = 1e-9
	flitDVS := dvs
	flitDVS.Lu = LuFlitFraction
	ewmaDVS := dvs
	ewmaDVS.Predictor = PredictEWMA
	ewmaDVS.EWMAAlpha = 0.5

	rules := rulesCfg()
	rules.SlidingN = 2
	guardedRules := rules
	guardedRules.MaxBER = 1e-9

	pid := cfgN1()
	pid.Kind = KindPID
	guardedPID := pid
	guardedPID.MaxBER = 1e-9

	replay := cfgN1()
	replay.Kind = KindOracleReplay
	replay.Oracle = &Oracle{Window: replay.Window, Levels: [][]int8{{5, 4, 3, 3, 2, 0, 0, 1, 2, 5, 5, 4}}}

	cases := []struct {
		name string
		cfg  Config
		link func() *powerlink.Link
		want pinResult
	}{
		{"dvs-busy", dvs, testLink, pinResult{
			decisions: "UUUHDDDHHUUUUUUUUU",
			levels:    []int{5, 5, 5, 5, 5, 4, 3, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5, 5},
			stats:     Stats{Windows: 18, Ups: 12, Downs: 3, Holds: 3, Rejected: 9},
			energyJ:   "7.470791566174901e-06",
			timers:    nil,
		}},
		{"dvs-flit", flitDVS, testLink, pinResult{
			decisions: "HUHHDDDHHHUHUUUUUU",
			levels:    []int{5, 5, 5, 5, 5, 4, 3, 2, 2, 2, 2, 3, 3, 4, 5, 5, 5, 5},
			stats:     Stats{Windows: 18, Ups: 8, Downs: 3, Holds: 7, Rejected: 5},
			energyJ:   "7.01637985582548e-06",
			timers:    nil,
		}},
		{"dvs-ewma", ewmaDVS, testLink, pinResult{
			decisions: "UUHDDDDHHUUUUUUUUU",
			levels:    []int{5, 5, 5, 5, 4, 3, 2, 1, 1, 1, 2, 3, 4, 5, 5, 5, 5, 5},
			stats:     Stats{Windows: 18, Ups: 11, Downs: 4, Holds: 3, Rejected: 7},
			energyJ:   "6.77843412859433e-06",
			timers:    nil,
		}},
		{"dvs-guarded", guardedDVS, lossyLink, pinResult{
			decisions: "UUUHDDDHHUUUUUUUUU",
			levels:    []int{5, 5, 5, 5, 5, 4, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
			stats:     Stats{Windows: 18, Ups: 3, Downs: 3, Holds: 3, Rejected: 3, Guarded: 9},
			energyJ:   "5.3989273564976766e-06",
			timers:    nil,
		}},
		{"rules", rules, testLink, pinResult{
			decisions: "HUHDDDDHHHHHUHUHHU",
			levels:    []int{5, 5, 5, 5, 4, 3, 2, 1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3},
			stats:     Stats{Windows: 18, Ups: 4, Downs: 4, Holds: 10, Rejected: 1, LossDerates: 1, StormBackoffs: 1, GradualUps: 4},
			energyJ:   "5.170325629266527e-06",
			timers:    []sim.Cycle{10000, 11000},
		}},
		{"rules-guarded", guardedRules, lossyLink, pinResult{
			decisions: "DDDDDDHHHHHHHHHHHH",
			levels:    []int{5, 4, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			stats:     Stats{Windows: 18, Downs: 6, Holds: 12, Rejected: 1, Guarded: 4, LossDerates: 5},
			energyJ:   "2.858748693729195e-06",
			timers:    []sim.Cycle{5000, 6000, 7000, 8000, 9000},
		}},
		{"pid", pid, testLink, pinResult{
			decisions: "UUDDDHHHHUUUUUHHUU",
			levels:    []int{5, 5, 5, 4, 3, 2, 2, 2, 2, 2, 3, 4, 5, 5, 5, 5, 5, 5},
			stats:     Stats{Windows: 18, Ups: 9, Downs: 3, Holds: 6, Rejected: 6},
			energyJ:   "6.944697513755596e-06",
			timers:    nil,
		}},
		{"pid-guarded", guardedPID, lossyLink, pinResult{
			decisions: "UUDDDHHHHHHHHHHHHH",
			levels:    []int{5, 5, 5, 4, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
			stats:     Stats{Windows: 18, Ups: 2, Downs: 3, Holds: 13, Rejected: 2, Guarded: 8},
			energyJ:   "4.872833304078371e-06",
			timers:    nil,
		}},
		{"replay", replay, testLink, pinResult{
			decisions: "HDDHDDDUUUUHHHHHHH",
			levels:    []int{5, 5, 4, 3, 3, 2, 1, 0, 1, 2, 3, 4, 4, 4, 4, 4, 4, 4},
			stats:     Stats{Windows: 18, Ups: 4, Downs: 5, Holds: 9},
			energyJ:   "5.817832428943869e-06",
			timers:    nil,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := runPinScript(t, c.cfg, c.link())
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("pinned run diverged:\ngot  %#v\nwant %#v", got, c.want)
			}
		})
	}
}
