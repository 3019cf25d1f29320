package policy

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint/wire"
	"repro/internal/sim"
)

// PolicyState is the whole mutable state of one link policy, for every
// kind: the live policy keeps it as its base's st field, so a checkpoint
// is a deep copy and a restore is a kind check, a history check and an
// assignment. Fields a kind does not use stay zero. The configuration,
// link and sensors are identified structurally by the restore target (a
// freshly built policy over the same link), so only this record travels.
type PolicyState struct {
	Kind Kind

	// Sensor baselines: each cumulative counter at the last window
	// boundary.
	LastBusy   float64
	LastFlits  int64
	LastOccInt float64
	LastRetx   int64
	LastCrc    int64
	LastEsc    int64
	LastRelock int64

	// History is the ring of the last SlidingN window utilisations
	// (Eq. 11); HIdx is the next slot and HCount the slots filled.
	History []float64
	HIdx    int
	HCount  int

	// The DVS EWMA predictor and external laser controller epoch.
	EWMA          float64
	EpochEnd      sim.Cycle
	EWMASet       bool
	EpochAllLower bool // whole epoch so far could run on a lower optical level

	// The rule engine's post-derate hold: TimerAt is the newest armed
	// hold timer (older firings are stale).
	Holding     bool
	TimerAt     sim.Cycle
	CleanStreak int

	// The PID integrator; LastErr holds a real observation once Primed.
	Integ   float64
	LastErr float64
	Primed  bool

	Stats Stats
}

// Wire lists the record's fields to c in declaration order.
func (st *PolicyState) Wire(c *wire.Codec) {
	wire.Int(c, &st.Kind)
	wire.Float(c, &st.LastBusy)
	wire.Int(c, &st.LastFlits)
	wire.Float(c, &st.LastOccInt)
	wire.Int(c, &st.LastRetx)
	wire.Int(c, &st.LastCrc)
	wire.Int(c, &st.LastEsc)
	wire.Int(c, &st.LastRelock)
	wire.Slice(c, &st.History, wire.Float)
	wire.Int(c, &st.HIdx)
	wire.Int(c, &st.HCount)
	wire.Float(c, &st.EWMA)
	wire.Int(c, &st.EpochEnd)
	wire.Bool(c, &st.EWMASet)
	wire.Bool(c, &st.EpochAllLower)
	wire.Bool(c, &st.Holding)
	wire.Int(c, &st.TimerAt)
	wire.Int(c, &st.CleanStreak)
	wire.Float(c, &st.Integ)
	wire.Float(c, &st.LastErr)
	wire.Bool(c, &st.Primed)
	st.Stats.Wire(c)
}

// exportPolicy deep-copies the live state.
func (b *base) exportPolicy() PolicyState {
	st := b.st
	st.History = slices.Clone(b.st.History)
	return st
}

// restorePolicy overwrites the live state from a snapshot taken from a
// same-kind policy built with the same SlidingN. The history ring keeps
// its own backing array, so the snapshot can be restored again.
func (b *base) restorePolicy(st PolicyState) error {
	if st.Kind != b.st.Kind {
		return fmt.Errorf("policy: snapshot kind %v does not match %v policy", st.Kind, b.st.Kind)
	}
	n := len(b.st.History)
	if len(st.History) != n || st.HIdx < 0 || st.HIdx >= n || st.HCount < 0 || st.HCount > n {
		return fmt.Errorf("policy: snapshot history of %d (cursor %d/%d) does not fit the policy's SlidingN of %d",
			len(st.History), st.HIdx, st.HCount, n)
	}
	hist := b.st.History
	copy(hist, st.History)
	b.st = st
	b.st.History = hist
	return nil
}

// Each kind keeps its own ExportPolicy/RestorePolicy, so its struct stays
// a root of optolint's snapshotcomplete rule: a mutable field added to a
// kind outside st is reported.

// ExportPolicy implements LinkPolicy for the DVS controller.
func (c *Controller) ExportPolicy() PolicyState { return c.exportPolicy() }

// RestorePolicy implements LinkPolicy for the DVS controller.
func (c *Controller) RestorePolicy(st PolicyState) error { return c.restorePolicy(st) }

// ExportPolicy implements LinkPolicy for the rule engine.
func (e *RuleEngine) ExportPolicy() PolicyState { return e.exportPolicy() }

// RestorePolicy implements LinkPolicy for the rule engine.
func (e *RuleEngine) RestorePolicy(st PolicyState) error { return e.restorePolicy(st) }

// ExportPolicy implements LinkPolicy for the PID tracker.
func (p *PIDTracker) ExportPolicy() PolicyState { return p.exportPolicy() }

// RestorePolicy implements LinkPolicy for the PID tracker.
func (p *PIDTracker) RestorePolicy(st PolicyState) error { return p.restorePolicy(st) }

// ExportPolicy implements LinkPolicy for the replay policy (the schedule
// itself is configuration and travels with the Config).
func (p *Replay) ExportPolicy() PolicyState { return p.exportPolicy() }

// RestorePolicy implements LinkPolicy for the replay policy.
func (p *Replay) RestorePolicy(st PolicyState) error { return p.restorePolicy(st) }

// TraceState is the exportable state of a trace Recorder, so an
// auto-checkpointed recording run resumes with its trace intact.
type TraceState struct {
	Window    sim.Cycle
	Links     []LinkTrace
	LastFlits []int64
}

// Wire lists the trace's fields to c in declaration order.
func (st *TraceState) Wire(c *wire.Codec) {
	wire.Int(c, &st.Window)
	wire.Records(c, &st.Links)
	wire.Slice(c, &st.LastFlits, wire.Int)
}

// Wire lists the link trace's fields to c in declaration order.
func (lt *LinkTrace) Wire(c *wire.Codec) {
	wire.Slice(c, &lt.Flits, wire.Int)
	wire.Slice(c, &lt.MaxSafe, wire.Int)
}

// ExportState captures the recorder (deep copy).
func (r *Recorder) ExportState() TraceState {
	st := TraceState{
		Window:    r.trace.Window,
		Links:     make([]LinkTrace, len(r.trace.Links)),
		LastFlits: append([]int64(nil), r.lastFlits...),
	}
	for i, lt := range r.trace.Links {
		st.Links[i] = LinkTrace{
			Flits:   append([]int64(nil), lt.Flits...),
			MaxSafe: append([]int8(nil), lt.MaxSafe...),
		}
	}
	return st
}

// RestoreState overwrites the recorder from a snapshot.
func (r *Recorder) RestoreState(st TraceState) error {
	if len(st.Links) != len(r.trace.Links) || len(st.LastFlits) != len(r.lastFlits) {
		return fmt.Errorf("policy: trace snapshot has %d links, recorder has %d", len(st.Links), len(r.trace.Links))
	}
	r.trace.Window = st.Window
	for i, lt := range st.Links {
		r.trace.Links[i] = LinkTrace{
			Flits:   append([]int64(nil), lt.Flits...),
			MaxSafe: append([]int8(nil), lt.MaxSafe...),
		}
	}
	copy(r.lastFlits, st.LastFlits)
	return nil
}
