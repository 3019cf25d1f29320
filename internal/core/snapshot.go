package core

import (
	"repro/internal/network"
	"repro/internal/sim"
)

// State is the checkpointable state of a System: the network snapshot plus
// the measurement-protocol bookkeeping that lives outside the network. The
// measured window's start is the network's own (network.State.MeasureFrom).
type State struct {
	Net *network.State

	WarmupEnergy       float64
	WarmupFabricEnergy float64
}

// ExportState captures the system's complete state. Must be called between
// steps (RunTo boundaries); it does not perturb the run.
func (s *System) ExportState() (*State, error) {
	ns, err := s.Net.ExportState()
	if err != nil {
		return nil, err
	}
	return &State{
		Net:                ns,
		WarmupEnergy:       s.warmupEnergy,
		WarmupFabricEnergy: s.warmupFabricEnergy,
	}, nil
}

// RestoreState overwrites a freshly constructed System (same Config and
// generator) with a snapshot. After a successful restore the system resumes
// from the snapshot cycle and produces byte-identical results to the
// uninterrupted run.
func (s *System) RestoreState(st *State) error {
	if err := s.Net.RestoreState(st.Net); err != nil {
		return err
	}
	s.warmupEnergy = st.WarmupEnergy
	s.warmupFabricEnergy = st.WarmupFabricEnergy
	return nil
}

// Now returns the system's current cycle.
func (s *System) Now() sim.Cycle { return s.Net.Now() }

// RunTo advances the network to the given cycle (no-op if already past).
func (s *System) RunTo(c sim.Cycle) { s.Net.RunTo(c) }

// StartMeasure begins the measured window at the current cycle, equivalent
// to the tail of Warmup without re-running: it restricts latency statistics
// to later packets and zeroes the energy meter.
func (s *System) StartMeasure() {
	now := s.Net.Now()
	s.Net.SetMeasureFrom(now)
	s.warmupEnergy = s.Net.LinkEnergyJ()
	s.warmupFabricEnergy = s.Net.FabricEnergyJ()
}

// ResultAt computes the standard result for a measured window ending at end.
// It is the checkpoint-aware sibling of Measure: a supervisor that restored
// mid-measurement calls RunTo(end) then ResultAt(end).
func (s *System) ResultAt(end sim.Cycle) Result {
	s.debugAudit()
	return s.resultAt(end)
}
