// Package powerlink implements the power-aware opto-electronic link state
// machine of Sections 2.3 and 3.2 of the paper: a link that operates at one
// of several discrete bit-rate levels, with supply voltage scaled alongside
// bit rate, and — for modulator-based links — an optical power level set by
// external attenuators.
//
// Transition sequencing follows the paper exactly:
//
//   - Rate increases: the supply voltage is pulled up first (the link keeps
//     operating during the slow Tv ramp), then the frequency switches, which
//     disables the link for Tbr cycles while the receiver's CDR relocks.
//   - Rate decreases: the frequency drops first (Tbr disable), then the
//     voltage ramps down while the link operates.
//   - Optical increases (modulator scheme, multiple optical levels): the
//     attenuator transition (~100 µs) must complete before the electrical
//     bit rate may rise above what the current light level supports; the
//     electrical rate and voltage remain constant until then.
//
// Energy is integrated piecewise: power only changes at phase boundaries,
// so accounting costs O(transitions), not O(cycles).
package powerlink

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/linkmodel"
	"repro/internal/optics"
	"repro/internal/sim"
)

// Levels returns n bit-rate levels evenly spaced over [minGbps, maxGbps],
// ascending. The paper uses 6 levels; its two ranges are 5-10 Gb/s and
// 3.3-10 Gb/s.
func Levels(minGbps, maxGbps float64, n int) []float64 {
	if n < 2 || minGbps >= maxGbps {
		panic(fmt.Sprintf("powerlink: invalid level spec [%g,%g] n=%d", minGbps, maxGbps, n))
	}
	out := make([]float64, n)
	step := (maxGbps - minGbps) / float64(n-1)
	for i := range out {
		out[i] = minGbps + float64(i)*step
	}
	out[n-1] = maxGbps // avoid FP residue at the anchor point
	return out
}

// OpticalConfig describes the discrete optical power levels available to a
// modulator-based link (Section 3.2.2). Level i delivers PowersW[i] watts
// to the modulator and supports electrical bit rates up to MaxRateGbps[i].
// Both slices are ascending and the last MaxRateGbps must cover the link's
// top electrical level.
type OpticalConfig struct {
	PowersW          []float64
	MaxRateGbps      []float64
	TransitionCycles sim.Cycle // attenuator response, paper: 100 µs
}

// PaperOpticalLevels returns the paper's three optical levels bound to
// bit-rate bands: Plow (<4 Gb/s) = 0.5·Pmid, Pmid (4-6 Gb/s) = 0.5·Phigh,
// Phigh (6-10 Gb/s) = the full per-link optical power phighW.
func PaperOpticalLevels(phighW float64) OpticalConfig {
	return OpticalConfig{
		PowersW:          []float64{phighW / 4, phighW / 2, phighW},
		MaxRateGbps:      []float64{4, 6, math.Inf(1)},
		TransitionCycles: sim.CyclesFromMicros(100),
	}
}

// RequiredLevel returns the lowest optical level index whose light supports
// the given electrical bit rate.
func (o *OpticalConfig) RequiredLevel(rateGbps float64) int {
	for i, max := range o.MaxRateGbps {
		if rateGbps <= max {
			return i
		}
	}
	return len(o.MaxRateGbps) - 1
}

// Config parameterises one power-aware link.
type Config struct {
	// Scheme selects VCSEL or modulator transmitter.
	Scheme linkmodel.Scheme
	// Params is the circuit model (linkmodel.DefaultParams for the paper).
	Params linkmodel.Params
	// LevelRates are the bit-rate levels in Gb/s, ascending. A
	// non-power-aware link passes exactly one level.
	LevelRates []float64
	// Tbr is the bit-rate transition delay: the link is disabled this many
	// cycles after every frequency change while the CDR relocks (paper: 20).
	Tbr sim.Cycle
	// Tv is the supply-voltage transition time (paper: 100 cycles). The
	// link operates during voltage ramps.
	Tv sim.Cycle
	// Optical, when non-nil, enables multiple optical power levels for a
	// modulator-based link. Ignored for the VCSEL scheme, whose optical
	// output follows the driver supply automatically.
	Optical *OpticalConfig
	// OffEnabled permits an extra "off" level below level 0 in which the
	// link consumes only OffPowerW; waking costs OffWakeCycles of disable.
	// This models the on/off networks of Soteriou & Peh [26] for the
	// ablation benches; the paper's own design never switches links off.
	OffEnabled    bool
	OffPowerW     float64
	OffWakeCycles sim.Cycle
	// PathLossDB is the optical loss (dB) between the transmitter's output
	// and the receiver's photodetector — coupling, connectors, fibre. It
	// erodes the receiver margin that MarginDBAt/ProjectedBER report, and
	// through them the fault injector's corruption rate. Zero (the
	// default) models the paper's idealized lossless path.
	PathLossDB float64
}

// Validate reports configuration errors.
func (c *Config) Validate() error {
	if len(c.LevelRates) == 0 {
		return fmt.Errorf("powerlink: no bit-rate levels")
	}
	for i := 1; i < len(c.LevelRates); i++ {
		if c.LevelRates[i] <= c.LevelRates[i-1] {
			return fmt.Errorf("powerlink: level rates not ascending at %d: %v", i, c.LevelRates)
		}
	}
	if c.LevelRates[0] <= 0 {
		return fmt.Errorf("powerlink: non-positive bit rate %g", c.LevelRates[0])
	}
	if c.Tbr < 0 || c.Tv < 0 {
		return fmt.Errorf("powerlink: negative transition delay (Tbr=%d Tv=%d)", c.Tbr, c.Tv)
	}
	if c.PathLossDB < 0 {
		return fmt.Errorf("powerlink: negative path loss %g dB", c.PathLossDB)
	}
	if c.Optical != nil {
		o := c.Optical
		if len(o.PowersW) == 0 || len(o.PowersW) != len(o.MaxRateGbps) {
			return fmt.Errorf("powerlink: optical levels malformed")
		}
		top := c.LevelRates[len(c.LevelRates)-1]
		if o.MaxRateGbps[len(o.MaxRateGbps)-1] < top {
			return fmt.Errorf("powerlink: top optical level supports %g Gb/s < max electrical %g",
				o.MaxRateGbps[len(o.MaxRateGbps)-1], top)
		}
		// Physical feasibility: each optical level must leave enough light
		// at the receiver for the fastest bit rate it claims to support
		// (capped at the link's own top rate).
		for i, pw := range o.PowersW {
			rate := math.Min(o.MaxRateGbps[i], top)
			if !c.Params.OpticalLevelFeasible(pw, rate) {
				return fmt.Errorf("powerlink: optical level %d (%.1f µW) cannot meet the receiver sensitivity at %.3g Gb/s",
					i, pw*1e6, rate)
			}
		}
	}
	return c.Params.Validate()
}

// phase is the link state-machine phase.
type phase int

const (
	phaseSteady phase = iota
	// phaseVoltUp: ramping voltage up before a frequency increase. Link
	// operates at the old bit rate; power billed at the higher voltage.
	phaseVoltUp
	// phaseFreqSwitch: frequency changing; link disabled for Tbr.
	phaseFreqSwitch
	// phaseVoltDown: ramping voltage down after a frequency decrease. Link
	// operates at the new bit rate; power billed at the old voltage.
	phaseVoltDown
	// phaseWaitOptical: waiting for the external attenuator to raise the
	// optical level before an electrical increase may begin. Link operates
	// at the old bit rate.
	phaseWaitOptical
	// phaseOff: link switched off (ablation mode only).
	phaseOff
	// phaseWake: waking from off; link disabled.
	phaseWake
)

// OffLevel is the Level value reported while the link is switched off
// (on/off ablation mode only).
const OffLevel = -1

const offLevel = OffLevel

// Link is one power-aware unidirectional opto-electronic link.
//
// All methods take the current simulation time and lazily advance the
// internal state machine; callers must present non-decreasing times.
type Link struct {
	cfg Config
	st  State

	// CDR relock fault injection (nil = relocks always succeed).
	//optolint:derived fault-injector wiring, re-installed by SetRelockFaults at construction
	relock RelockFaults
	//optolint:derived fault-injector wiring, re-installed by SetRelockFaults at construction
	relockMax int

	// Observability hooks (nil when telemetry is disabled). They fire
	// during the lazy advance, which can be later than the transition's
	// logical cycle; the logical cycle is what they are passed.
	onLevel  func(at sim.Cycle, from, to int)
	onRelock func(at sim.Cycle, retries int)
}

// RelockFaults abstracts the fault injector's CDR relock decision: each
// frequency-switch completion asks it whether the receiver's clock-and-data
// recovery failed to relock, in which case the Tbr disable extends with
// bounded exponential backoff. Implementations must be deterministic per
// link (the injector uses a per-link RNG stream) so that lazy state-machine
// evaluation — whose timing depends on when the link is next observed —
// cannot change outcomes.
type RelockFaults interface {
	RelockFails() bool
}

// SetRelockFaults installs a relock fault source. After maxRetries
// consecutive failures the relock is forced to succeed (the backoff is
// bounded); each retry doubles the disable time.
func (l *Link) SetRelockFaults(f RelockFaults, maxRetries int) {
	l.relock = f
	l.relockMax = maxRetries
}

// OnLevelChange installs fn, called each time the electrical level commits
// (frequency switch completes, wake completes, or the link switches off).
// at is the logical cycle of the commit — because the state machine is
// lazily evaluated, fn may run when the link is next observed, which can be
// after at. Probes must therefore order by at, not call order.
func (l *Link) OnLevelChange(fn func(at sim.Cycle, from, to int)) { l.onLevel = fn }

// OnRelockFail installs fn, called on each fault-injected CDR relock
// failure with the consecutive retry count. Same lazy-timing caveat as
// OnLevelChange.
func (l *Link) OnRelockFail(fn func(at sim.Cycle, retries int)) { l.onRelock = fn }

// New returns a link in steady state at the highest level with full optical
// power, as at system start-up.
func New(cfg Config) (*Link, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	top := len(cfg.LevelRates) - 1
	l := &Link{cfg: cfg, st: State{
		Level:       top,
		Target:      top,
		Phase:       phaseSteady,
		TimeAtLevel: make([]sim.Cycle, len(cfg.LevelRates)),
	}}
	if cfg.Optical != nil {
		l.st.OpticalLevel = len(cfg.Optical.PowersW) - 1
	}
	l.st.PowerW = l.steadyPower(l.st.Level)
	return l, nil
}

// MustNew is New but panics on configuration error; for tests and tables.
func MustNew(cfg Config) *Link {
	l, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// NumLevels returns the number of electrical bit-rate levels.
func (l *Link) NumLevels() int { return len(l.cfg.LevelRates) }

// LevelRate returns the bit rate (Gb/s) of electrical level i.
func (l *Link) LevelRate(i int) float64 { return l.cfg.LevelRates[i] }

// opticalPowerW returns the optical power currently delivered to the
// modulator (modulator scheme only; full power otherwise).
func (l *Link) opticalPowerW() float64 {
	if l.cfg.Scheme == linkmodel.SchemeModulator && l.cfg.Optical != nil {
		return l.cfg.Optical.PowersW[l.st.OpticalLevel]
	}
	return l.cfg.Params.ModInputOpticalW
}

// steadyPower returns the link's electrical power (W) in steady state at
// the given level.
func (l *Link) steadyPower(level int) float64 {
	if level == offLevel {
		return l.cfg.OffPowerW
	}
	br := l.cfg.LevelRates[level]
	vdd := l.cfg.Params.VddAt(br)
	return l.cfg.Params.LinkPower(l.cfg.Scheme, br, vdd, l.opticalPowerW())
}

// transitionPower returns the power billed during a transition between two
// levels: conservatively, the higher of the two steady powers (during a
// voltage ramp the circuits see the higher voltage; during a frequency
// switch the CDR and TIA remain biased).
func (l *Link) transitionPower(a, b int) float64 {
	return math.Max(l.steadyPower(a), l.steadyPower(b))
}

// accrue integrates energy up to time t at the current power.
func (l *Link) accrue(t sim.Cycle) {
	if t < l.st.LastTime {
		panic(fmt.Sprintf("powerlink: time went backwards: %d < %d", t, l.st.LastTime))
	}
	dt := t - l.st.LastTime
	if dt == 0 {
		return
	}
	l.st.EnergyJ += l.st.PowerW * sim.Cycle(dt).Seconds()
	if l.st.Phase == phaseFreqSwitch || l.st.Phase == phaseWake {
		l.st.DisabledFor += dt
	}
	if l.st.Level == offLevel {
		l.st.TimeOff += dt
	} else {
		l.st.TimeAtLevel[l.st.Level] += dt
	}
	l.st.LastTime = t
}

// setPhase moves to a new phase ending at end, re-deriving billed power.
func (l *Link) setPhase(p phase, end sim.Cycle) {
	l.st.Phase = p
	l.st.PhaseEnd = end
	switch p {
	case phaseSteady, phaseOff:
		l.st.PowerW = l.steadyPower(l.st.Level)
	case phaseWaitOptical:
		l.st.PowerW = l.steadyPower(l.st.Level)
	case phaseVoltUp, phaseVoltDown, phaseFreqSwitch, phaseWake:
		l.st.PowerW = l.transitionPower(l.st.Level, l.st.Target)
	}
}

// advance processes all phase completions at or before now.
func (l *Link) advance(now sim.Cycle) {
	for l.st.Phase != phaseSteady && l.st.Phase != phaseOff && now >= l.st.PhaseEnd {
		end := l.st.PhaseEnd
		l.accrue(end)
		switch l.st.Phase {
		case phaseWaitOptical:
			// Attenuator has finished raising the light level; begin the
			// electrical sequence: voltage first, then frequency.
			if l.cfg.Optical != nil {
				l.st.OpticalLevel = l.cfg.Optical.RequiredLevel(l.cfg.LevelRates[l.st.Target])
			}
			l.setPhase(phaseVoltUp, end+l.cfg.Tv)
		case phaseVoltUp:
			l.setPhase(phaseFreqSwitch, end+l.cfg.Tbr)
		case phaseFreqSwitch:
			// The frequency has switched; the receiver's CDR must relock
			// before the link is usable. A fault-injected relock failure
			// extends the disable with doubled backoff, bounded by
			// relockMax consecutive retries.
			if l.relock != nil && l.st.RelockRetry < l.relockMax && l.relock.RelockFails() {
				l.st.RelockRetry++
				l.st.RelockFails++
				if l.onRelock != nil {
					l.onRelock(end, l.st.RelockRetry)
				}
				l.setPhase(phaseFreqSwitch, end+l.cfg.Tbr<<uint(l.st.RelockRetry))
				continue
			}
			l.st.RelockRetry = 0
			old := l.st.Level
			decrease := l.st.Target < l.st.Level
			l.st.Level = l.st.Target
			l.st.Transitions++
			if l.onLevel != nil {
				l.onLevel(end, old, l.st.Level)
			}
			if decrease {
				l.setPhase(phaseVoltDown, end+l.cfg.Tv)
				// The voltage is still at the old (higher) level while it
				// ramps down; bill the old level's power for the ramp.
				l.st.PowerW = l.transitionPower(old, l.st.Level)
			} else {
				l.setPhase(phaseSteady, 0)
			}
		case phaseVoltDown:
			l.setPhase(phaseSteady, 0)
		case phaseWake:
			l.st.Level = l.st.Target
			l.st.Transitions++
			if l.onLevel != nil {
				l.onLevel(end, offLevel, l.st.Level)
			}
			l.setPhase(phaseSteady, 0)
		}
	}
	l.accrue(now)
}

// Level returns the current electrical level index, or -1 when the link is
// off (ablation mode).
func (l *Link) Level(now sim.Cycle) int {
	l.advance(now)
	return l.st.Level
}

// Transitioning reports whether a level transition is in progress.
func (l *Link) Transitioning(now sim.Cycle) bool {
	l.advance(now)
	return l.st.Phase != phaseSteady && l.st.Phase != phaseOff
}

// BitRateGbps returns the current usable bit rate: 0 while the link is
// disabled (frequency switch, wake) or off, the operating rate otherwise.
// During a voltage ramp the link keeps its pre-switch rate (increase) or
// already runs at the new rate (decrease), exactly as in Section 3.2.1.
func (l *Link) BitRateGbps(now sim.Cycle) float64 {
	l.advance(now)
	switch l.st.Phase {
	case phaseFreqSwitch, phaseWake:
		return 0
	case phaseOff:
		return 0
	default:
		if l.st.Level == offLevel {
			return 0
		}
		return l.cfg.LevelRates[l.st.Level]
	}
}

// AvailableAt returns the earliest cycle at or after now when the link can
// transmit (bit rate > 0). While the link is off (ablation mode) it returns
// now + OffWakeCycles as an estimate assuming an immediate wake request;
// callers that observe an off link should issue RequestStep(now, +1) first.
func (l *Link) AvailableAt(now sim.Cycle) sim.Cycle {
	l.advance(now)
	switch l.st.Phase {
	case phaseFreqSwitch, phaseWake:
		return l.st.PhaseEnd
	case phaseOff:
		now += l.cfg.OffWakeCycles
	}
	return now
}

// PowerW returns the link's current electrical power draw.
func (l *Link) PowerW(now sim.Cycle) float64 {
	l.advance(now)
	return l.st.PowerW
}

// EnergyJ returns the total energy consumed up to now, in joules.
func (l *Link) EnergyJ(now sim.Cycle) float64 {
	l.advance(now)
	return l.st.EnergyJ
}

// LevelPowerW returns the steady-state electrical power at the given
// electrical level under the link's current optical operating point — the
// per-level cost model the offline policy oracle prices schedules with.
// Read-only: it does not advance the link's lazy state machine.
func (l *Link) LevelPowerW(level int) float64 { return l.steadyPower(level) }

// RelockFailures returns the cumulative count of fault-injected CDR relock
// failures on this link, advancing the lazy state machine so failures from
// any pending transition at `now` are included. A cheap accessor for the
// loss-aware policy's per-window differencing (Stats copies slices).
func (l *Link) RelockFailures(now sim.Cycle) int64 {
	l.advance(now)
	return int64(l.st.RelockFails)
}

// VddV returns the supply voltage currently applied (V): the voltage of the
// higher of the operating and target levels (voltage leads frequency on the
// way up and lags it on the way down), or 0 while the link is off.
func (l *Link) VddV(now sim.Cycle) float64 {
	l.advance(now)
	lv := l.st.Level
	if l.st.Target > lv {
		lv = l.st.Target
	}
	if lv == offLevel {
		return 0
	}
	return l.cfg.Params.VddAt(l.cfg.LevelRates[lv])
}

// OpticalPowerW returns the optical power currently in play (W): the
// attenuator's delivered power for the modulator scheme, or the VCSEL's
// average emitted power at the present supply. 0 while the link is off.
func (l *Link) OpticalPowerW(now sim.Cycle) float64 {
	l.advance(now)
	if l.st.Level == offLevel && l.st.Target == offLevel {
		return 0
	}
	if l.cfg.Scheme == linkmodel.SchemeVCSEL {
		p := &l.cfg.Params
		vdd := l.VddV(now)
		return p.EmittedOpticalPower(p.VCSELIbias + p.VCSELIm*vdd/p.VddMax/2)
	}
	return l.opticalPowerW()
}

// RequestStep asks the link to move one level up (dir > 0) or down
// (dir < 0). It returns false when the request cannot start: already at the
// extreme level, or a transition is still in progress (the policy simply
// retries at its next window). A step up from "off" wakes the link.
func (l *Link) RequestStep(now sim.Cycle, dir int) bool {
	l.advance(now)
	if l.st.Phase != phaseSteady && l.st.Phase != phaseOff {
		return false
	}
	switch {
	case dir > 0:
		return l.requestUp(now)
	case dir < 0:
		return l.requestDown(now)
	default:
		return false
	}
}

func (l *Link) requestUp(now sim.Cycle) bool {
	if l.st.Level == offLevel {
		l.st.Target = 0
		l.setPhase(phaseWake, now+l.cfg.OffWakeCycles)
		return true
	}
	if l.st.Level >= len(l.cfg.LevelRates)-1 {
		return false
	}
	l.st.Target = l.st.Level + 1
	// If the new rate needs more light than the attenuator currently
	// passes, the optical transition gates the electrical one: send Pinc
	// and hold rate/voltage until the light arrives (Section 3.3).
	if l.cfg.Scheme == linkmodel.SchemeModulator && l.cfg.Optical != nil {
		need := l.cfg.Optical.RequiredLevel(l.cfg.LevelRates[l.st.Target])
		if need > l.st.OpticalLevel {
			l.setPhase(phaseWaitOptical, now+l.cfg.Optical.TransitionCycles)
			return true
		}
	}
	l.setPhase(phaseVoltUp, now+l.cfg.Tv)
	return true
}

func (l *Link) requestDown(now sim.Cycle) bool {
	if l.st.Level == offLevel {
		return false
	}
	if l.st.Level == 0 {
		if !l.cfg.OffEnabled {
			return false
		}
		l.accrue(now)
		old := l.st.Level
		l.st.Level = offLevel
		l.st.Target = offLevel
		l.st.Transitions++
		if l.onLevel != nil {
			l.onLevel(now, old, offLevel)
		}
		l.setPhase(phaseOff, 0)
		return true
	}
	l.st.Target = l.st.Level - 1
	l.setPhase(phaseFreqSwitch, now+l.cfg.Tbr)
	return true
}

// LowerOptical drops the optical level by one step (the external laser
// source controller's Pdec, which halves the light). It refuses when the
// current electrical rate needs the present light level, or when the link
// is mid-transition. The attenuator change is modelled as immediate for
// decreases: less light is always safe, and the paper's latency penalty
// applies only to increases, which gate the electrical rate.
func (l *Link) LowerOptical(now sim.Cycle) bool {
	l.advance(now)
	if l.cfg.Scheme != linkmodel.SchemeModulator || l.cfg.Optical == nil {
		return false
	}
	if l.st.Phase != phaseSteady || l.st.OpticalLevel == 0 || l.st.Level == offLevel {
		return false
	}
	need := l.cfg.Optical.RequiredLevel(l.cfg.LevelRates[l.st.Level])
	if need >= l.st.OpticalLevel {
		return false
	}
	l.accrue(now)
	l.st.OpticalLevel--
	l.setPhase(phaseSteady, 0) // re-derive power with the new light level
	return true
}

// CouldUseLowerOptical reports whether the link's current electrical bit
// rate (or the rate it is transitioning toward, if higher) would function
// on an optical level below the present one. The external laser source
// controller samples this over its 200 µs epoch to decide on Pdec.
func (l *Link) CouldUseLowerOptical(now sim.Cycle) bool {
	l.advance(now)
	if l.cfg.Scheme != linkmodel.SchemeModulator || l.cfg.Optical == nil {
		return false
	}
	if l.st.OpticalLevel == 0 || l.st.Level == offLevel {
		return false
	}
	lvl := l.st.Level
	if l.st.Target > lvl {
		lvl = l.st.Target
	}
	return l.cfg.Optical.RequiredLevel(l.cfg.LevelRates[lvl]) < l.st.OpticalLevel
}

// MarginDBAt returns the receiver's optical margin (dB) the link would have
// operating at electrical level lv: received power over the sensitivity the
// target BER of 1e-12 requires at lv's bit rate. The received power uses
// the optical level the link would run at (the current one, raised as a
// rate increase would force), the transmitter's emitted power (VCSEL: set
// by the scaled supply; modulator: the attenuator level after insertion
// loss), and Config.PathLossDB. Power-aware operation erodes this margin
// from both sides: higher bit rates need more light, and lower optical
// levels deliver less.
func (l *Link) MarginDBAt(now sim.Cycle, lv int) float64 {
	l.advance(now)
	if lv < 0 || lv >= len(l.cfg.LevelRates) {
		return math.Inf(-1)
	}
	rate := l.cfg.LevelRates[lv]
	p := &l.cfg.Params
	var txW float64
	if l.cfg.Scheme == linkmodel.SchemeModulator {
		inW := p.ModInputOpticalW
		if l.cfg.Optical != nil {
			opt := l.cfg.Optical.RequiredLevel(rate)
			if l.st.OpticalLevel > opt {
				opt = l.st.OpticalLevel
			}
			inW = l.cfg.Optical.PowersW[opt]
		}
		txW = inW * (1 - p.ModInsertionLoss)
	} else {
		// VCSEL: average emitted power at the drive current the scaled
		// supply sustains (Eq. 1 with I = Ibias + Im(Vdd)/2).
		vdd := p.VddAt(rate)
		txW = p.EmittedOpticalPower(p.VCSELIbias + p.VCSELIm*vdd/p.VddMax/2)
	}
	rxW := txW * optics.FromDB(-l.cfg.PathLossDB)
	sens := p.RecvSensitivityAt(rate)
	if rxW <= 0 {
		return math.Inf(-1)
	}
	return optics.DB(rxW / sens)
}

// ProjectedBER returns the margin-derived bit error rate the link would see
// at electrical level lv (1e-12 at zero margin, worse below). The policy's
// reliability guard consults this before stepping rates up.
func (l *Link) ProjectedBER(now sim.Cycle, lv int) float64 {
	return optics.BERAtMargin(l.MarginDBAt(now, lv))
}

// OpticalLevel returns the current optical level index (0 for links without
// multiple optical levels).
func (l *Link) OpticalLevel(now sim.Cycle) int {
	l.advance(now)
	if l.cfg.Optical == nil {
		return 0
	}
	return l.st.OpticalLevel
}

// Stats is a snapshot of the link's lifetime counters.
type Stats struct {
	EnergyJ       float64
	Transitions   int
	DisabledFor   sim.Cycle
	TimeAtLevel   []sim.Cycle
	TimeOff       sim.Cycle
	CurrentPowerW float64
	// RelockFailures counts fault-injected CDR relock failures (each one
	// extended a frequency switch's disable window).
	RelockFailures int
}

// Stats returns lifetime counters up to now.
func (l *Link) Stats(now sim.Cycle) Stats {
	l.advance(now)
	return Stats{
		EnergyJ:        l.st.EnergyJ,
		Transitions:    l.st.Transitions,
		DisabledFor:    l.st.DisabledFor,
		TimeAtLevel:    slices.Clone(l.st.TimeAtLevel),
		TimeOff:        l.st.TimeOff,
		CurrentPowerW:  l.st.PowerW,
		RelockFailures: l.st.RelockFails,
	}
}
