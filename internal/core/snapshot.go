package core

import (
	"repro/internal/checkpoint/wire"
	"repro/internal/network"
	"repro/internal/sim"
)

// MeterState is the measurement protocol's record: the link energy, over
// all links and over the router-to-router links, already consumed when the
// measured window opened. The window's start is the network's own
// (network.State.MeasureFrom).
type MeterState struct {
	WarmupEnergy       float64
	WarmupFabricEnergy float64
}

// Wire lists the record's fields to c in declaration order.
func (st *MeterState) Wire(c *wire.Codec) {
	wire.Float(c, &st.WarmupEnergy)
	wire.Float(c, &st.WarmupFabricEnergy)
}

// State is the checkpointable state of a System: the network snapshot plus
// the system's record.
type State struct {
	Net *network.State
	MeterState
}

// Wire lists the state's fields to c in declaration order; it is the
// layout of a checkpoint's payload.
func (st *State) Wire(c *wire.Codec) {
	wire.Ptr(c, &st.Net)
	st.MeterState.Wire(c)
}

// ExportState captures the system's complete state. Must be called between
// steps (RunTo boundaries); it does not perturb the run.
func (s *System) ExportState() (*State, error) {
	ns, err := s.Net.ExportState()
	if err != nil {
		return nil, err
	}
	return &State{Net: ns, MeterState: s.st}, nil
}

// RestoreState overwrites a freshly constructed System (same Config and
// generator) with a snapshot. After a successful restore the system resumes
// from the snapshot cycle and produces byte-identical results to the
// uninterrupted run.
func (s *System) RestoreState(st *State) error {
	if err := s.Net.RestoreState(st.Net); err != nil {
		return err
	}
	s.st = st.MeterState
	return nil
}

// Now returns the system's current cycle.
func (s *System) Now() sim.Cycle { return s.Net.Now() }

// RunTo advances the network to the given cycle (no-op if already past).
func (s *System) RunTo(c sim.Cycle) { s.Net.RunTo(c) }

// ResultAt computes the standard result for a measured window ending at end.
// It is the checkpoint-aware sibling of Measure: a supervisor that restored
// mid-measurement calls RunTo(end) then ResultAt(end).
func (s *System) ResultAt(end sim.Cycle) Result {
	s.debugAudit()
	return s.resultAt(end)
}
