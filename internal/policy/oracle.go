package policy

import (
	"fmt"

	"repro/internal/powerlink"
	"repro/internal/sim"
)

// The regret oracle: a recorded run yields, per controlled link and policy
// window, the demand (flit transmissions) and the reliability ceiling (the
// highest level whose margin-projected BER was acceptable). ComputeOracle
// then solves the offline rate-assignment problem every online policy
// approximates: per window, the cheapest level that serialises the
// recorded flits within the window without exceeding the BER ceiling.
// Transition costs and queueing are ignored, so the oracle's energy is a
// lower bound and a policy's regret (its measured controlled-link energy
// minus the oracle's) is an upper bound on what better control could save.
// KindOracleReplay feeds the schedule back through the normal wheel-driven
// tick path, giving the oracle an executable, equivalence-checked form.

// Trace is the per-window recording ComputeOracle consumes.
type Trace struct {
	// Window is the policy window Tw the trace was recorded at.
	Window sim.Cycle
	// Links holds one series per controlled link, in controller order.
	Links []LinkTrace
}

// LinkTrace is one link's recorded series.
type LinkTrace struct {
	// Flits is the number of flit transmissions (including replays) per
	// window.
	Flits []int64
	// MaxSafe is the highest electrical level whose margin-projected BER
	// was within the policy's MaxBER at the window boundary (-1 when no
	// level qualified; the full ladder when the guard is disabled).
	MaxSafe []int8
}

// Recorder accumulates a Trace during a run. Observation-only: it reads
// cumulative counters and the lazily-advanced margin projection, both of
// which the policy tick reads anyway, so recording never perturbs a run.
type Recorder struct {
	trace     Trace
	lastFlits []int64
}

// NewRecorder builds a recorder for `links` controlled links at window Tw.
func NewRecorder(window sim.Cycle, links int) *Recorder {
	return &Recorder{
		trace:     Trace{Window: window, Links: make([]LinkTrace, links)},
		lastFlits: make([]int64, links),
	}
}

// Observe appends one window observation for the link at `ordinal`:
// the cumulative flit counter and the window's max-safe level.
func (r *Recorder) Observe(ordinal int, flits int64, maxSafe int) {
	lt := &r.trace.Links[ordinal]
	lt.Flits = append(lt.Flits, flits-r.lastFlits[ordinal])
	r.lastFlits[ordinal] = flits
	lt.MaxSafe = append(lt.MaxSafe, int8(maxSafe))
}

// MaxSafeLevel is the reliability ceiling the recorder logs: the highest
// electrical level of link whose margin-projected BER is within maxBER at
// now, -1 when no level qualifies, and the ladder top when the guard is
// disabled (maxBER <= 0).
func MaxSafeLevel(now sim.Cycle, link *powerlink.Link, maxBER float64) int {
	nl := link.NumLevels()
	if maxBER <= 0 {
		return nl - 1
	}
	for lv := nl - 1; lv >= 0; lv-- {
		if link.ProjectedBER(now, lv) <= maxBER {
			return lv
		}
	}
	return -1
}

// Trace returns the recording so far (shared slices; callers must not
// mutate while the run continues).
func (r *Recorder) Trace() Trace { return r.trace }

// Oracle is an offline-optimal per-link level schedule and its energy.
type Oracle struct {
	// Window is the policy window the schedule is indexed by.
	Window sim.Cycle
	// Levels holds, per controlled link (controller order), the optimal
	// electrical level for each recorded window.
	Levels [][]int8
	// EnergyJ is the schedule's total steady-state energy over the
	// recorded span (transitions are free for the oracle).
	EnergyJ float64
}

// LinkModel is the per-level cost/capacity view the oracle needs;
// *powerlink.Link satisfies it.
type LinkModel interface {
	NumLevels() int
	LevelRate(i int) float64
	LevelPowerW(i int) float64
}

// flitMilliCycles returns the serialisation time of one flit at the given
// bit rate in milli-cycles, mirroring router.Channel.transmit exactly so
// the oracle's capacity model matches the wire.
func flitMilliCycles(rateGbps float64) int64 {
	mbpc := sim.MilliBitsPerCycle(rateGbps)
	d := (sim.FlitMilliBits*1000 + mbpc/2) / mbpc
	if d < 1 {
		d = 1
	}
	return d
}

// ComputeOracle solves the offline problem for a recorded trace. links
// supplies the per-level rate/power models in the same controller order
// the trace was recorded in.
func ComputeOracle(tr Trace, links []LinkModel) (Oracle, error) {
	if len(links) != len(tr.Links) {
		return Oracle{}, fmt.Errorf("policy: oracle has %d link models for %d traces", len(links), len(tr.Links))
	}
	o := Oracle{Window: tr.Window, Levels: make([][]int8, len(tr.Links))}
	windowMC := int64(tr.Window) * 1000
	secPerWindow := tr.Window.Seconds()
	for li, lt := range tr.Links {
		lm := links[li]
		nl := lm.NumLevels()
		sched := make([]int8, len(lt.Flits))
		for w, flits := range lt.Flits {
			maxSafe := int(lt.MaxSafe[w])
			if maxSafe < 0 || maxSafe >= nl {
				// No level was within bounds (or the guard was disabled
				// with a sentinel): the most robust operating point is
				// level 0; the ladder top otherwise.
				if maxSafe < 0 {
					maxSafe = 0
				} else {
					maxSafe = nl - 1
				}
			}
			// Lowest level that serialises the window's flits in time and
			// respects the BER ceiling; if demand exceeds even maxSafe's
			// capacity, the oracle pays maxSafe and eats the queueing —
			// exactly what the best safe online policy could do.
			best := maxSafe
			for lv := 0; lv <= maxSafe; lv++ {
				if flits*flitMilliCycles(lm.LevelRate(lv)) <= windowMC {
					best = lv
					break
				}
			}
			sched[w] = int8(best)
			o.EnergyJ += lm.LevelPowerW(best) * secPerWindow
		}
		o.Levels[li] = sched
	}
	return o, nil
}

// Replay is the KindOracleReplay policy: at every window boundary it steps
// the link one level toward the oracle schedule's prescription for that
// window. Past the end of the schedule it holds the last prescription.
type Replay struct {
	base
	sched []int8
}

// NewReplay builds the replay policy for the link at d.Ordinal from
// cfg.Oracle's schedule.
func NewReplay(cfg Config, d Deps) (*Replay, error) {
	b, err := newBase(KindOracleReplay, cfg, d)
	if err != nil {
		return nil, err
	}
	if d.Ordinal >= len(cfg.Oracle.Levels) {
		return nil, fmt.Errorf("policy: oracle schedule has %d links, replay needs ordinal %d", len(cfg.Oracle.Levels), d.Ordinal)
	}
	return &Replay{base: b, sched: cfg.Oracle.Levels[d.Ordinal]}, nil
}

// Tick steps the link one level toward the schedule's prescription. An
// empty schedule holds without reading the link.
func (p *Replay) Tick(now sim.Cycle) Decision {
	w := p.st.Stats.Windows
	p.st.Stats.Windows++
	if len(p.sched) == 0 {
		return p.apply(now, Hold)
	}
	target := int(p.sched[min(w, len(p.sched)-1)])
	lv := p.link.Level(now)
	decision := Hold
	switch {
	case lv < target:
		decision = StepUp
	case lv > target:
		decision = StepDown
	}
	return p.apply(now, decision)
}
