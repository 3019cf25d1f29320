package policy

import (
	"fmt"

	"repro/internal/powerlink"
	"repro/internal/sim"
)

// This file is the pluggable policy engine: the LinkPolicy interface every
// control policy implements, the sensor/actuator surfaces the network hands
// a policy at construction, the factory that builds one from a Config, and
// base, the skeleton every kind embeds. base senses a window (Eq. 10),
// averages it (Eq. 11), guards step-ups against MaxBER, applies and counts
// a decision, and holds the policy's whole mutable state as one
// PolicyState record; each kind adds only its decision rule. The paper's
// history-window DVS controller (policy.go) is the default kind; rules.go,
// pid.go, and oracle.go add the self-adaptive family of ROADMAP item 4.

// Kind selects a link-policy implementation.
type Kind int

const (
	// KindDVS is the paper's §3.3 history-window DVS controller — the zero
	// value, so every pre-existing Config keeps its exact behaviour.
	KindDVS Kind = iota
	// KindRules is the PROTEUS-style loss-aware hysteresis rule engine: it
	// trades bit rate down under measured loss, backs off to a safe level
	// during relock storms, and recovers gradually when margin returns.
	KindRules
	// KindPID is a PID-style utilisation tracker around a setpoint.
	KindPID
	// KindOracleReplay replays a precomputed offline-optimal per-window
	// level schedule (see ComputeOracle); the regret baseline.
	KindOracleReplay
)

func (k Kind) String() string {
	switch k {
	case KindDVS:
		return "dvs"
	case KindRules:
		return "rules"
	case KindPID:
		return "pid"
	case KindOracleReplay:
		return "oracle-replay"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps the CLI/scenario spelling of a policy kind to its value.
// The empty string is KindDVS (the historical default).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "dvs":
		return KindDVS, nil
	case "rules":
		return KindRules, nil
	case "pid":
		return KindPID, nil
	case "oracle-replay", "oracle":
		return KindOracleReplay, nil
	default:
		return KindDVS, fmt.Errorf("policy: unknown kind %q (want dvs, rules, pid, or oracle-replay)", s)
	}
}

// LossSource is the rule engine's sensor view of one link's reliability
// counters: the retransmission layer's cumulative activity plus the link's
// CDR relock failures. All counters are monotonically non-decreasing; the
// policy differences them across windows. Implemented by the network's
// channel adapter; nil for policies that do not observe loss.
type LossSource interface {
	// Retransmits returns cumulative go-back-N replay transmissions.
	Retransmits() int64
	// CrcDrops returns cumulative flits the receiver discarded on CRC.
	CrcDrops() int64
	// Escalations returns cumulative retry exhaustions (link resets).
	Escalations() int64
	// RelockFailures returns cumulative CDR relock failures on this link.
	RelockFailures(now sim.Cycle) int64
}

// TimerSink lets a policy arm a future wheel timer in the coordinator band.
// The network implements it by scheduling the policy's OnTimer, registered
// as a wheel handler at construction — a real wheel event, so fast-forward
// sees the deadline and checkpoints carry it.
type TimerSink interface {
	ArmPolicyTimer(at sim.Cycle, ordinal int)
}

// TimerPolicy is implemented by policies that arm wheel timers.
type TimerPolicy interface {
	// OnTimer delivers a timer armed through the TimerSink. Stale firings
	// (superseded by a later re-arm) must be ignored.
	OnTimer(now sim.Cycle)
}

// LinkPolicy is one link's control policy. Tick is called exactly once per
// window boundary from the coordinator band, with monotonically increasing
// time; everything a policy does must be a deterministic function of its
// sensors at tick (and timer) instants, so sharding and fast-forward cannot
// change its behaviour.
type LinkPolicy interface {
	// Tick evaluates the policy at a window boundary and applies its
	// decision to the link.
	Tick(now sim.Cycle) Decision
	// Stats returns the policy's activity counters.
	Stats() Stats
	// Link returns the controlled link.
	Link() *powerlink.Link
	// Kind identifies the implementation.
	Kind() Kind
	// ExportPolicy captures the policy's mutable state for a checkpoint.
	ExportPolicy() PolicyState
	// RestorePolicy overwrites the policy's mutable state from a snapshot
	// taken from a same-kind, same-config policy.
	RestorePolicy(PolicyState) error
}

// Deps bundles the sensor and actuator surfaces a policy may use. Link and
// Util are required; Loss and Timers may be nil for policies that do not
// use them. Ordinal is the policy's index in the network's controller list,
// used to address wheel timers and oracle schedules.
type Deps struct {
	Link    *powerlink.Link
	Util    UtilizationSource
	Loss    LossSource
	Timers  TimerSink
	Ordinal int
}

// New builds the link policy selected by cfg.Kind. Zero-valued Rules/PID
// sub-configs are replaced with their defaults, so selecting a kind without
// tuning it is always valid.
func New(cfg Config, d Deps) (LinkPolicy, error) {
	switch cfg.Kind {
	case KindDVS:
		return NewController(cfg, d.Link, d.Util)
	case KindRules:
		if cfg.Rules == (RulesConfig{}) {
			cfg.Rules = DefaultRulesConfig()
		}
		return NewRuleEngine(cfg, d)
	case KindPID:
		if cfg.PID == (PIDConfig{}) {
			cfg.PID = DefaultPIDConfig()
		}
		return NewPIDTracker(cfg, d)
	case KindOracleReplay:
		return NewReplay(cfg, d)
	default:
		return nil, fmt.Errorf("policy: unknown kind %d", int(cfg.Kind))
	}
}

// base is the skeleton every link policy embeds: the controlled link, its
// sensors and configuration, and st, the policy's whole mutable state.
// Everything a kind changes while running lives in st, so a checkpoint
// is one record copy (snapshot.go).
type base struct {
	cfg  Config
	link *powerlink.Link
	util UtilizationSource
	loss LossSource
	st   PolicyState
}

// newBase validates cfg and builds the skeleton of a kind's policy.
func newBase(kind Kind, cfg Config, d Deps) (base, error) {
	if err := cfg.Validate(); err != nil {
		return base{}, err
	}
	return base{
		cfg:  cfg,
		link: d.Link,
		util: d.Util,
		loss: d.Loss,
		st:   PolicyState{Kind: kind, History: make([]float64, cfg.SlidingN)},
	}, nil
}

// Link returns the controlled link.
func (b *base) Link() *powerlink.Link { return b.link }

// Kind identifies the implementation.
func (b *base) Kind() Kind { return b.st.Kind }

// Stats returns the policy's activity counters.
func (b *base) Stats() Stats { return b.st.Stats }

// Window returns the policy's Tw.
func (b *base) Window() sim.Cycle { return b.cfg.Window }

// busyFrac returns the window's Lu as the fraction of Tw the link spent
// serialising (Eq. 10, relative to the current bit rate), capped at 1.
func (b *base) busyFrac() float64 {
	busy := b.util.BusyCycles()
	lu := (busy - b.st.LastBusy) / float64(b.cfg.Window)
	b.st.LastBusy = busy
	return capUnit(lu)
}

// flitDelta returns the number of flits the link sent in the window.
func (b *base) flitDelta() int64 {
	flits := b.util.FlitCount()
	d := flits - b.st.LastFlits
	b.st.LastFlits = flits
	return d
}

// bufferUtil returns the window's Bu, the downstream buffer's mean fill
// over Tw, capped at 1. A link into an always-ready sink reads 0.
func (b *base) bufferUtil(now sim.Cycle) float64 {
	cap := b.util.BufferCapacity()
	if cap <= 0 {
		return 0
	}
	occ := b.util.BufferOccupancyIntegral(now)
	bu := (occ - b.st.LastOccInt) / (float64(cap) * float64(b.cfg.Window))
	b.st.LastOccInt = occ
	return capUnit(bu)
}

// capUnit caps a window fraction at 1: fractional carry-over can put more
// than Tw of busy time or buffer fill into one window.
func capUnit(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}

// slidingMean pushes lu into the history ring and returns the mean of the
// last SlidingN windows (Eq. 11).
func (b *base) slidingMean(lu float64) float64 {
	h := b.st.History
	h[b.st.HIdx] = lu
	b.st.HIdx = (b.st.HIdx + 1) % len(h)
	if b.st.HCount < len(h) {
		b.st.HCount++
	}
	var sum float64
	for _, v := range h[:b.st.HCount] {
		sum += v
	}
	return sum / float64(b.st.HCount)
}

// upGuarded is the MaxBER reliability guard: it reports whether a step up
// at now would land on a level whose margin-projected BER exceeds the
// configured ceiling. Waking an off link is never blocked (level 0 is the
// most robust operating point), and out-of-range targets are left for the
// link to reject. With MaxBER zero the guard is off and reads nothing.
// Level is idempotent at a fixed now, so a caller that read it already
// (the rule engine) sees the same level here.
func (b *base) upGuarded(now sim.Cycle) bool {
	if b.cfg.MaxBER <= 0 {
		return false
	}
	lv := b.link.Level(now)
	if lv < 0 || lv+1 >= b.link.NumLevels() {
		return false
	}
	return b.link.ProjectedBER(now, lv+1) > b.cfg.MaxBER
}

// apply is the one actuator: it counts d as an Up, Down or Hold, requests
// the step from the link, and counts a step the link refuses (extreme
// level or mid-transition) as Rejected. A Hold never reads the link.
func (b *base) apply(now sim.Cycle, d Decision) Decision {
	dir := +1
	switch d {
	case StepUp:
		b.st.Stats.Ups++
	case StepDown:
		b.st.Stats.Downs++
		dir = -1
	default:
		b.st.Stats.Holds++
		return d
	}
	if !b.link.RequestStep(now, dir) {
		b.st.Stats.Rejected++
	}
	return d
}
