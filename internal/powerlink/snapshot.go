package powerlink

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// State is the whole mutable state of a Link: the live link keeps it as
// its st field, so a checkpoint is a copy with TimeAtLevel cloned and a
// restore is a range check and an assignment. Configuration, fault
// sources and observability hooks are not part of it — a restore target
// is a freshly constructed link with the same configuration and
// re-installed hooks.
//
// Export reads the record without advancing the lazy state machine:
// energy integration is floating-point and segmentation-sensitive
// (p·(a+b) ≠ p·a + p·b), so forcing an accrual boundary at the checkpoint
// cycle would make the restored run's energy differ in the last bits from
// the uninterrupted one. Restoring the raw accumulator and LastTime keeps
// the integration segments — and therefore every summed energy — identical.
type State struct {
	Level    int // current electrical level (index into LevelRates), or OffLevel
	Target   int // level being transitioned to (== Level when steady)
	Phase    phase
	PhaseEnd sim.Cycle

	OpticalLevel int // current optical level index (modulator multi-level)

	// Piecewise energy accounting: PowerW is billed from LastTime on.
	PowerW   float64
	EnergyJ  float64
	LastTime sim.Cycle

	// Diagnostics.
	TimeAtLevel []sim.Cycle // per electrical level; off time tracked separately
	TimeOff     sim.Cycle
	Transitions int
	DisabledFor sim.Cycle // total cycles spent with the link disabled

	// RelockRetry counts the current frequency switch's consecutive relock
	// failures; RelockFails all of them.
	RelockRetry int
	RelockFails int
}

// ExportState captures the link's mutable state verbatim (no lazy advance).
func (l *Link) ExportState() State {
	st := l.st
	st.TimeAtLevel = slices.Clone(l.st.TimeAtLevel)
	return st
}

// RestoreState overwrites the link's mutable state from a snapshot. The
// link must have been built with the same configuration (level ladder).
// TimeAtLevel keeps the link's own backing array, so the snapshot can be
// restored again.
func (l *Link) RestoreState(st State) error {
	if len(st.TimeAtLevel) != len(l.st.TimeAtLevel) {
		return fmt.Errorf("powerlink: snapshot has %d levels, link has %d", len(st.TimeAtLevel), len(l.st.TimeAtLevel))
	}
	if st.Level < offLevel || st.Level >= len(l.cfg.LevelRates) ||
		st.Target < offLevel || st.Target >= len(l.cfg.LevelRates) {
		return fmt.Errorf("powerlink: snapshot level %d/target %d out of range", st.Level, st.Target)
	}
	if st.Phase < phaseSteady || st.Phase > phaseWake {
		return fmt.Errorf("powerlink: snapshot phase %d out of range", st.Phase)
	}
	tal := l.st.TimeAtLevel
	copy(tal, st.TimeAtLevel)
	l.st = st
	l.st.TimeAtLevel = tal
	return nil
}
