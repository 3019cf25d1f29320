// Package policy implements the control policies of Section 3.3 of the
// paper: the per-link history-based DVS policy controller that sits at
// every router output, and the external laser source controller that
// manages optical power levels for modulator-based links.
//
// At the start of every time window Tw, the link policy controller compares
// the sliding-window average link utilisation Lu,a against two thresholds
// (TH, TL). Above TH the link steps one bit-rate level up; below TL it
// steps one level down. The thresholds are chosen by the congestion state
// of the downstream buffer (Bu, Table 1): when the network is congested,
// queueing delay masks link delay, so the policy can be more aggressive.
package policy

import (
	"fmt"

	"repro/internal/powerlink"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Thresholds holds the Bu-conditioned link-utilisation thresholds of
// Table 1.
type Thresholds struct {
	// CongestionBu is Bu_con: buffer utilisation at or above which the
	// network is considered congested (paper: 0.5).
	CongestionBu float64
	// LowUncongested/HighUncongested apply when Bu < CongestionBu
	// (paper: 0.4 / 0.6).
	LowUncongested  float64
	HighUncongested float64
	// LowCongested/HighCongested apply when Bu >= CongestionBu
	// (paper: 0.6 / 0.7).
	LowCongested  float64
	HighCongested float64
}

// PaperThresholds returns Table 1's values.
func PaperThresholds() Thresholds {
	return Thresholds{
		CongestionBu:    0.5,
		LowUncongested:  0.4,
		HighUncongested: 0.6,
		LowCongested:    0.6,
		HighCongested:   0.7,
	}
}

// ThresholdsAround builds a threshold set centred on avg with the paper's
// fixed TH−TL = 0.1 gap (the Fig. 5(d-f) sweep). The congested set sits
// 0.15 above the uncongested centre with the same 0.1 gap, which
// reproduces Table 1 exactly at avg = 0.5: (0.4, 0.6) uncongested and
// (0.6, 0.7) congested. Pairs are shifted (gap preserved) to stay inside
// (0, 1).
func ThresholdsAround(avg float64) Thresholds {
	pair := func(lo, hi float64) (float64, float64) {
		if hi > 0.99 {
			lo -= hi - 0.99
			hi = 0.99
		}
		if lo < 0.01 {
			hi += 0.01 - lo
			lo = 0.01
		}
		return lo, hi
	}
	tl, th := pair(avg-0.05, avg+0.05)
	ctl, cth := pair(avg+0.10, avg+0.20)
	return Thresholds{
		CongestionBu:    0.5,
		LowUncongested:  tl,
		HighUncongested: th,
		LowCongested:    ctl,
		HighCongested:   cth,
	}
}

// Select returns the (TL, TH) pair for the given buffer utilisation.
func (t Thresholds) Select(bu float64) (low, high float64) {
	if bu >= t.CongestionBu {
		return t.LowCongested, t.HighCongested
	}
	return t.LowUncongested, t.HighUncongested
}

// Validate reports configuration errors.
func (t Thresholds) Validate() error {
	check := func(name string, lo, hi float64) error {
		if !(0 <= lo && lo < hi && hi <= 1) {
			return fmt.Errorf("policy: %s thresholds invalid: TL=%g TH=%g", name, lo, hi)
		}
		return nil
	}
	if err := check("uncongested", t.LowUncongested, t.HighUncongested); err != nil {
		return err
	}
	if err := check("congested", t.LowCongested, t.HighCongested); err != nil {
		return err
	}
	if t.CongestionBu < 0 || t.CongestionBu > 1 {
		return fmt.Errorf("policy: CongestionBu %g outside [0,1]", t.CongestionBu)
	}
	return nil
}

// LuMode selects how link utilisation is measured.
type LuMode int

const (
	// LuBusyFraction measures Lu as the fraction of time the link spends
	// serialising — utilisation relative to the *current* bit rate. This
	// is the default: it keeps the published thresholds meaningful at
	// every level (a saturated 5 Gb/s link reads Lu = 1.0).
	LuBusyFraction LuMode = iota
	// LuFlitFraction is the paper's Eq. 10 read literally: the fraction of
	// router clock cycles in which a flit traverses the link. At reduced
	// bit rates this underestimates demand (a saturated 5 Gb/s link reads
	// Lu = 0.5 and can never cross TH = 0.6); provided for the ablation
	// study.
	LuFlitFraction
)

// UtilizationSource is what the policy controller observes: cumulative
// counters maintained by the network for one link and its downstream input
// buffer. All counters are monotonically non-decreasing; the controller
// differences them across windows.
type UtilizationSource interface {
	// BusyCycles returns the cumulative time (in router cycles, fractional)
	// this link has spent serialising flits.
	BusyCycles() float64
	// FlitCount returns the cumulative number of flits transmitted.
	FlitCount() int64
	// BufferOccupancyIntegral returns the cumulative occupied-slot·cycles
	// of the downstream input buffer.
	BufferOccupancyIntegral(now sim.Cycle) float64
	// BufferCapacity returns the downstream input buffer size in flits
	// (0 for links terminating at an always-ready sink).
	BufferCapacity() int
}

// Config parameterises one link policy controller.
type Config struct {
	// Window is Tw in router cycles (paper default: 1000; swept 100-10000
	// in Fig. 5).
	Window sim.Cycle
	// SlidingN is the number of windows over which Lu is averaged
	// (Eq. 11). 1 disables smoothing.
	SlidingN int
	// Thresholds is the Bu-conditioned threshold set.
	Thresholds Thresholds
	// LaserEpoch enables the external-laser-source controller when
	// positive: every LaserEpoch cycles (paper: 200 µs = 125000 cycles)
	// the controller issues Pdec if the whole epoch could have run on a
	// lower optical level. Zero disables optical management (fixed light).
	LaserEpoch sim.Cycle
	// Lu selects the utilisation definition (see LuMode).
	Lu LuMode
	// Predictor selects how history becomes the Lu,a estimate.
	Predictor Predictor
	// EWMAAlpha is the smoothing factor when Predictor is PredictEWMA
	// (0 < α <= 1; higher = more reactive). Ignored otherwise.
	EWMAAlpha float64
	// MaxBER, when positive, is the reliability guard: a StepUp whose
	// target level's margin-projected bit error rate
	// (powerlink.ProjectedBER) exceeds MaxBER is refused and counted in
	// Stats.Guarded. Zero disables the guard (historical behaviour).
	MaxBER float64

	// Kind selects the policy implementation (see engine.go). The zero
	// value is KindDVS: every pre-existing Config behaves exactly as
	// before the pluggable engine existed.
	Kind Kind
	// Rules parameterises the KindRules engine; the zero value selects
	// DefaultRulesConfig. Ignored by other kinds.
	Rules RulesConfig
	// PID parameterises the KindPID tracker; the zero value selects
	// DefaultPIDConfig. Ignored by other kinds.
	PID PIDConfig
	// Oracle supplies the precomputed per-link level schedules replayed by
	// KindOracleReplay (required for that kind, ignored otherwise).
	Oracle *Oracle
	// RecordTrace enables the per-window demand/margin recorder that
	// ComputeOracle consumes. Recording is observation-only: it never
	// changes a run's behaviour.
	RecordTrace bool
}

// Predictor selects the workload predictor fed by per-window utilisation.
type Predictor int

const (
	// PredictSlidingAvg is the paper's Eq. 11: the mean of the last
	// SlidingN window utilisations.
	PredictSlidingAvg Predictor = iota
	// PredictEWMA is an exponentially weighted moving average, the
	// history-based alternative explored for electrical DVS links [24].
	// It weights recent windows more heavily than a flat window mean.
	PredictEWMA
)

// PaperConfig returns the defaults used in Section 4: Tw = 1000 cycles,
// Table 1 thresholds. SlidingN = 4 implements the paper's sliding-window
// robustness mechanism (Eq. 11; the paper does not publish its N).
func PaperConfig() Config {
	return Config{
		Window:     1000,
		SlidingN:   4,
		Thresholds: PaperThresholds(),
		LaserEpoch: 0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Window <= 0 {
		return fmt.Errorf("policy: window must be positive, got %d", c.Window)
	}
	if c.SlidingN <= 0 {
		return fmt.Errorf("policy: SlidingN must be positive, got %d", c.SlidingN)
	}
	if c.LaserEpoch < 0 {
		return fmt.Errorf("policy: LaserEpoch must be non-negative, got %d", c.LaserEpoch)
	}
	if c.Predictor == PredictEWMA && (c.EWMAAlpha <= 0 || c.EWMAAlpha > 1) {
		return fmt.Errorf("policy: EWMAAlpha %g outside (0,1]", c.EWMAAlpha)
	}
	if c.MaxBER < 0 || c.MaxBER > 1 {
		return fmt.Errorf("policy: MaxBER %g outside [0,1]", c.MaxBER)
	}
	switch c.Kind {
	case KindDVS:
	case KindRules:
		if err := c.Rules.Validate(); err != nil {
			return err
		}
	case KindPID:
		if err := c.PID.Validate(); err != nil {
			return err
		}
	case KindOracleReplay:
		if c.Oracle == nil {
			return fmt.Errorf("policy: KindOracleReplay needs an Oracle schedule")
		}
	default:
		return fmt.Errorf("policy: unknown kind %d", int(c.Kind))
	}
	return c.Thresholds.Validate()
}

// Decision is the outcome of one policy evaluation.
type Decision int

const (
	// Hold keeps the current bit rate.
	Hold Decision = iota
	// StepUp raises the bit rate one level.
	StepUp
	// StepDown lowers the bit rate one level.
	StepDown
)

func (d Decision) String() string {
	switch d {
	case Hold:
		return "hold"
	case StepUp:
		return "up"
	case StepDown:
		return "down"
	default:
		return fmt.Sprintf("Decision(%d)", int(d))
	}
}

// Stats counts one policy's activity; the counting rule per kind is on
// stats.PolicyCounts. The loss-adaptation counters (LossDerates,
// StormBackoffs, GradualUps) are maintained only by the rule engine and
// stay zero for other kinds.
type Stats = stats.PolicyCounts

// Controller is the per-link policy controller of Fig. 4(b). Tick must be
// called exactly once per window boundary with a monotonically increasing
// time.
type Controller struct {
	base
}

// NewController builds a controller for one link.
func NewController(cfg Config, link *powerlink.Link, src UtilizationSource) (*Controller, error) {
	b, err := newBase(KindDVS, cfg, Deps{Link: link, Util: src})
	if err != nil {
		return nil, err
	}
	b.st.EpochEnd = cfg.LaserEpoch
	b.st.EpochAllLower = true
	return &Controller{base: b}, nil
}

// Tick evaluates the policy at a window boundary. It returns the decision
// taken (which the link may still have rejected; see Stats.Rejected). A
// step up refused by the MaxBER guard is still returned as StepUp but
// counted only as Guarded.
func (c *Controller) Tick(now sim.Cycle) Decision {
	c.st.Stats.Windows++

	// Window statistics (Eq. 10), differenced from cumulative counters.
	var lu float64
	if c.cfg.Lu == LuFlitFraction {
		lu = capUnit(float64(c.flitDelta()) / float64(c.cfg.Window))
	} else {
		lu = c.busyFrac()
	}
	bu := c.bufferUtil(now)

	// Predict Lu,a from history: the paper's sliding-window mean (Eq. 11)
	// or an EWMA (ablation).
	var lua float64
	if c.cfg.Predictor == PredictEWMA {
		if !c.st.EWMASet {
			c.st.EWMA = lu
			c.st.EWMASet = true
		} else {
			c.st.EWMA = c.cfg.EWMAAlpha*lu + (1-c.cfg.EWMAAlpha)*c.st.EWMA
		}
		lua = c.st.EWMA
	} else {
		lua = c.slidingMean(lu)
	}

	tl, th := c.cfg.Thresholds.Select(bu)
	decision := Hold
	switch {
	case lua > th:
		decision = StepUp
	case lua < tl:
		decision = StepDown
	}

	if decision == StepUp && c.upGuarded(now) {
		// The next level's projected BER is unacceptable: running faster
		// would trade energy for retransmissions. Hold the level.
		c.st.Stats.Guarded++
	} else {
		c.apply(now, decision)
	}

	c.laserTick(now)
	return decision
}

// laserTick implements the external laser source controller: every
// LaserEpoch cycles, if the link's bit rate stayed within a band that a
// lower optical level supports for the entire epoch, issue Pdec (halve the
// light). Pinc is issued implicitly by powerlink when a rate increase needs
// more light. Links without multiple optical levels ignore this.
func (c *Controller) laserTick(now sim.Cycle) {
	if c.cfg.LaserEpoch <= 0 {
		return
	}
	// Track whether the current electrical rate requires the present
	// optical level; one observation per window is sufficient since rates
	// only change on window boundaries.
	if !c.link.CouldUseLowerOptical(now) {
		c.st.EpochAllLower = false
	}
	if now < c.st.EpochEnd {
		return
	}
	if c.st.EpochAllLower && c.link.LowerOptical(now) {
		c.st.Stats.PdecCount++
	}
	c.st.EpochAllLower = true
	c.st.EpochEnd = now + c.cfg.LaserEpoch
}
