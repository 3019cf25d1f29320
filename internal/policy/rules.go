package policy

import (
	"fmt"

	"repro/internal/sim"
)

// The PROTEUS-style rule engine (arXiv 2008.07566): where the DVS
// controller can only *guard* (refuse a step-up whose projected BER is out
// of bounds) and then re-attempt it every window, the rule engine reacts to
// *measured* loss — retransmissions, CRC drops, relock failures — and
// degrades gracefully:
//
//	R1  relock storm        ≥ StormRelocks relock/reset events in a window
//	                        → step down toward SafeLevel, hold
//	R2  sustained loss      per-flit loss ratio > LossHigh
//	                        → step down (trade bit rate for margin), hold
//	R3  projected BER       ProjectedBER(current level) > MaxBER
//	                        → step down before the errors arrive, hold
//	R4  energy saving       predicted utilisation < TL → step down
//	R5  gradual recovery    predicted utilisation > TH AND not holding AND
//	                        ≥ RecoverWindows consecutive clean windows AND
//	                        target BER acceptable → step up
//
// Measured loss matters because the fault injector scales the *actual* bit
// error rate off the link's margin (fault.Config.BERScale), which the
// static projection underestimates; sensing replays closes that loop.
// Rules are evaluated top-down; the first match wins. A derate (R1-R3)
// arms a wheel-timer hold of HoldCycles during which R5 is blocked — the
// hysteresis that prevents the guard-clamp oscillation DVS exhibits under
// sustained faults.

// RulesConfig parameterises the rule engine. The zero value selects
// DefaultRulesConfig when the engine is built through New.
type RulesConfig struct {
	// LossHigh is the per-flit loss ratio (replays + CRC drops per
	// transmitted flit, per window) above which R2 derates.
	LossHigh float64
	// LossLow is the ratio at or below which a window counts as clean for
	// the R5 recovery streak.
	LossLow float64
	// StormRelocks is the number of relock failures + escalated resets in
	// one window that triggers R1 (0 disables storm detection).
	StormRelocks int64
	// SafeLevel is the electrical level R1 backs off toward.
	SafeLevel int
	// HoldCycles is the post-derate hold during which recovery step-ups
	// are blocked; armed as a real wheel timer (0 disables holds).
	HoldCycles sim.Cycle
	// RecoverWindows is the number of consecutive clean windows required
	// per recovery step-up.
	RecoverWindows int
}

// DefaultRulesConfig returns the rule-engine defaults: derate above 5%
// per-flit loss, recover below 1% after 3 clean windows, treat 2 relock
// events in one window as a storm, and hold 4 windows after any derate.
func DefaultRulesConfig() RulesConfig {
	return RulesConfig{
		LossHigh:       0.05,
		LossLow:        0.01,
		StormRelocks:   2,
		SafeLevel:      0,
		HoldCycles:     4000,
		RecoverWindows: 3,
	}
}

// Validate reports configuration errors. The zero value is valid (it means
// "use defaults").
func (c RulesConfig) Validate() error {
	if c == (RulesConfig{}) {
		return nil
	}
	if c.LossHigh < 0 || c.LossLow < 0 || c.LossLow > c.LossHigh {
		return fmt.Errorf("policy: rules loss thresholds invalid: low=%g high=%g", c.LossLow, c.LossHigh)
	}
	if c.StormRelocks < 0 || c.SafeLevel < 0 || c.HoldCycles < 0 || c.RecoverWindows < 0 {
		return fmt.Errorf("policy: rules config has negative field")
	}
	return nil
}

// RuleEngine is the loss-aware self-adaptive policy for one link.
type RuleEngine struct {
	base
	timers  TimerSink
	ordinal int
}

// NewRuleEngine builds the rule engine for one link. cfg.Rules must be
// fully populated (New substitutes defaults for the zero value).
func NewRuleEngine(cfg Config, d Deps) (*RuleEngine, error) {
	b, err := newBase(KindRules, cfg, d)
	if err != nil {
		return nil, err
	}
	return &RuleEngine{base: b, timers: d.Timers, ordinal: d.Ordinal}, nil
}

// Tick evaluates the rule table at a window boundary.
func (e *RuleEngine) Tick(now sim.Cycle) Decision {
	e.st.Stats.Windows++
	r := e.cfg.Rules

	// Sensors, differenced per window.
	lu := e.busyFrac()
	dFlits := e.flitDelta()
	bu := e.bufferUtil(now)

	var dRetx, dCrc, dEsc, dRelock int64
	if e.loss != nil {
		retx := e.loss.Retransmits()
		dRetx, e.st.LastRetx = retx-e.st.LastRetx, retx
		crc := e.loss.CrcDrops()
		dCrc, e.st.LastCrc = crc-e.st.LastCrc, crc
		esc := e.loss.Escalations()
		dEsc, e.st.LastEsc = esc-e.st.LastEsc, esc
		rl := e.loss.RelockFailures(now)
		dRelock, e.st.LastRelock = rl-e.st.LastRelock, rl
	}
	lossRatio := 0.0
	if dFlits > 0 {
		lossRatio = float64(dRetx+dCrc) / float64(dFlits)
	}
	relockEvents := dRelock + dEsc

	// Clean-window streak for R5.
	if lossRatio <= r.LossLow && relockEvents == 0 {
		e.st.CleanStreak++
	} else {
		e.st.CleanStreak = 0
	}

	lua := e.slidingMean(lu) // predicted utilisation (Eq. 11)
	lv := e.link.Level(now)
	tl, th := e.cfg.Thresholds.Select(bu)

	decision := Hold
	switch {
	case r.StormRelocks > 0 && relockEvents >= r.StormRelocks && lv > r.SafeLevel:
		// R1: relock storm — back off one level per window toward the safe
		// level and hold there until the storm demonstrably passed.
		decision = StepDown
		e.st.Stats.StormBackoffs++
		e.armHold(now)
	case lossRatio > r.LossHigh && lv > 0:
		// R2: sustained measured loss — trade bit rate for optical margin.
		decision = StepDown
		e.st.Stats.LossDerates++
		e.armHold(now)
	case e.cfg.MaxBER > 0 && lv > 0 && e.link.ProjectedBER(now, lv) > e.cfg.MaxBER:
		// R3: the margin projection already condemns the current level —
		// derate before the errors arrive.
		decision = StepDown
		e.st.Stats.LossDerates++
		e.armHold(now)
	case lua < tl:
		// R4: the DVS energy-saving rule.
		decision = StepDown
	case lua > th:
		// R5: recovery — gradual and hysteresis-gated.
		switch {
		case e.st.Holding || e.st.CleanStreak < r.RecoverWindows:
			// Not yet: still holding after a derate, or the link has not
			// proven clean for long enough.
		case e.upGuarded(now):
			e.st.Stats.Guarded++
		default:
			decision = StepUp
			e.st.Stats.GradualUps++
			e.st.CleanStreak = 0
		}
	}
	return e.apply(now, decision)
}

// armHold starts (or extends) the post-derate hold via a wheel timer, so
// the deadline is visible to fast-forward and travels with checkpoints.
func (e *RuleEngine) armHold(now sim.Cycle) {
	if e.cfg.Rules.HoldCycles <= 0 || e.timers == nil {
		return
	}
	at := now + e.cfg.Rules.HoldCycles
	if e.st.Holding && at <= e.st.TimerAt {
		return // an armed timer already covers this hold
	}
	e.st.Holding = true
	e.st.TimerAt = at
	e.timers.ArmPolicyTimer(at, e.ordinal)
}

// OnTimer ends the hold. Re-arming leaves stale wheel entries behind; only
// the newest armed deadline releases the hold.
func (e *RuleEngine) OnTimer(now sim.Cycle) {
	if !e.st.Holding || now != e.st.TimerAt {
		return
	}
	e.st.Holding = false
}
