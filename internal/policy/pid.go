package policy

import (
	"fmt"

	"repro/internal/sim"
)

// The PID-style utilisation tracker: instead of the paper's threshold
// bands, the link rate is servoed around a utilisation setpoint. The
// per-window error (measured utilisation minus setpoint) feeds a discrete
// PID whose control output, once it crosses ±StepThreshold, requests one
// level step; the integral term is cleared on every step so the next one
// must be re-earned — a natural pacing that avoids slewing the ladder end
// to end on a single burst.

// PIDConfig parameterises the PID tracker. The zero value selects
// DefaultPIDConfig when built through New.
type PIDConfig struct {
	// Setpoint is the target link utilisation (0..1).
	Setpoint float64
	// Kp, Ki, Kd are the proportional, integral, and derivative gains.
	Kp, Ki, Kd float64
	// IntegralClamp bounds the integral accumulator to ±IntegralClamp
	// (anti-windup).
	IntegralClamp float64
	// StepThreshold is the |control| magnitude that triggers a level step.
	StepThreshold float64
}

// DefaultPIDConfig returns gains tuned for the paper's Tw = 1000 windows:
// a sustained ±0.25 utilisation error crosses the step threshold within
// two windows.
func DefaultPIDConfig() PIDConfig {
	return PIDConfig{
		Setpoint:      0.5,
		Kp:            2,
		Ki:            0.5,
		Kd:            1,
		IntegralClamp: 3,
		StepThreshold: 1,
	}
}

// Validate reports configuration errors. The zero value is valid (it means
// "use defaults").
func (c PIDConfig) Validate() error {
	if c == (PIDConfig{}) {
		return nil
	}
	if c.Setpoint <= 0 || c.Setpoint >= 1 {
		return fmt.Errorf("policy: pid setpoint %g outside (0,1)", c.Setpoint)
	}
	if c.Kp < 0 || c.Ki < 0 || c.Kd < 0 {
		return fmt.Errorf("policy: pid gains must be non-negative")
	}
	if c.IntegralClamp < 0 || c.StepThreshold <= 0 {
		return fmt.Errorf("policy: pid clamp/threshold invalid")
	}
	return nil
}

// PIDTracker is the PID utilisation policy for one link.
type PIDTracker struct {
	base
}

// NewPIDTracker builds the PID policy for one link. cfg.PID must be fully
// populated (New substitutes defaults for the zero value).
func NewPIDTracker(cfg Config, d Deps) (*PIDTracker, error) {
	b, err := newBase(KindPID, cfg, d)
	if err != nil {
		return nil, err
	}
	return &PIDTracker{base: b}, nil
}

// Tick runs one PID update at a window boundary.
func (p *PIDTracker) Tick(now sim.Cycle) Decision {
	p.st.Stats.Windows++
	c := p.cfg.PID

	err := p.busyFrac() - c.Setpoint
	p.st.Integ += err
	if p.st.Integ > c.IntegralClamp {
		p.st.Integ = c.IntegralClamp
	} else if p.st.Integ < -c.IntegralClamp {
		p.st.Integ = -c.IntegralClamp
	}
	deriv := 0.0
	if p.st.Primed {
		deriv = err - p.st.LastErr
	}
	p.st.LastErr = err
	p.st.Primed = true

	u := c.Kp*err + c.Ki*p.st.Integ + c.Kd*deriv

	decision := Hold
	switch {
	case u >= c.StepThreshold:
		if p.upGuarded(now) {
			p.st.Stats.Guarded++
			break
		}
		decision = StepUp
	case u <= -c.StepThreshold:
		decision = StepDown
	}
	if decision != Hold {
		p.st.Integ = 0 // the next step must be re-earned
	}
	return p.apply(now, decision)
}
