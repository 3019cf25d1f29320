// Package fault provides seeded, deterministic fault injection for the
// power-aware opto-electronic network: transient flit corruption at a bit
// error rate derived from each link's optical margin, CDR relock failures
// on bit-rate transitions, and scheduled hard link failure/repair windows.
//
// Determinism contract: the injector draws from RNG streams derived from a
// single fault seed, with two private sub-streams per link (corruption and
// relock). Per-link draw sequences are causally ordered by the simulation
// itself — corruption draws happen in transmission order, relock draws in
// phase-completion order — so lazy powerlink evaluation and event-driven
// fast-forward cannot reorder them. With every fault class disabled the
// injector draws nothing, and runs are bit-identical to a build without it.
package fault

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/powerlink"
	"repro/internal/sim"
)

// FlitBits is the number of wire bits per flit used to convert a per-bit
// error rate into a per-flit corruption probability.
const FlitBits = sim.FlitBits

// LinkFailure schedules one hard failure window on a link: the link drops
// every flit arriving in [At, RepairAt). Link indices follow
// network.Channels() order (inter-router links first, then each node's
// injection and ejection links).
type LinkFailure struct {
	Link     int
	At       sim.Cycle
	RepairAt sim.Cycle
}

// Config parameterises the injector and the link-level retransmission
// protocol that recovers from it.
type Config struct {
	// BERScale multiplies the margin-derived bit error rate of each link
	// (powerlink.ProjectedBER at the current level). 0 disables
	// margin-derived corruption; 1 is the physical model; large values
	// accelerate error arrivals for testing.
	BERScale float64
	// BERFloor is a minimum per-bit error rate applied regardless of margin
	// (0 disables). Useful for exercising the retransmission path on links
	// whose margin-derived BER is negligible.
	BERFloor float64
	// RelockFailProb is the probability that a CDR relock attempt after a
	// frequency switch fails, extending the Tbr disable with bounded
	// exponential backoff (0 disables).
	RelockFailProb float64
	// MaxRelockRetries bounds consecutive relock failures per transition
	// (default 4): after that many the relock is forced to succeed.
	MaxRelockRetries int
	// LinkFailures are scheduled hard failure/repair windows.
	LinkFailures []LinkFailure

	// Retransmission protocol knobs (defaults applied by WithDefaults):
	// WindowSize is the go-back-N sender window in flits (default 16).
	WindowSize int
	// AckDelay is the receiver's ACK/NACK feedback latency (default 4).
	AckDelay sim.Cycle
	// RetxTimeout is the sender watchdog: replay fires this many cycles
	// after the last forward progress (default 256).
	RetxTimeout sim.Cycle
	// MaxRetries bounds watchdog-driven replays without progress before the
	// link escalates to a reset (default 8).
	MaxRetries int
	// ResetCycles is the link-down retrain time after retry exhaustion
	// (default 1000).
	ResetCycles sim.Cycle
}

// Enabled reports whether any fault class is configured. A disabled config
// wires no injector and changes nothing.
func (c Config) Enabled() bool {
	return c.BERScale > 0 || c.BERFloor > 0 || c.RelockFailProb > 0 || len(c.LinkFailures) > 0
}

// WithDefaults returns c with zero protocol knobs replaced by defaults.
func (c Config) WithDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 16
	}
	if c.AckDelay <= 0 {
		c.AckDelay = 4
	}
	if c.RetxTimeout <= 0 {
		c.RetxTimeout = 256
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 8
	}
	if c.ResetCycles <= 0 {
		c.ResetCycles = 1000
	}
	if c.MaxRelockRetries <= 0 {
		c.MaxRelockRetries = 4
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.BERScale < 0 {
		return fmt.Errorf("fault: negative BERScale %g", c.BERScale)
	}
	if c.BERFloor < 0 || c.BERFloor > 1 {
		return fmt.Errorf("fault: BERFloor %g outside [0,1]", c.BERFloor)
	}
	if c.RelockFailProb < 0 || c.RelockFailProb > 1 {
		return fmt.Errorf("fault: RelockFailProb %g outside [0,1]", c.RelockFailProb)
	}
	for i, w := range c.LinkFailures {
		if w.Link < 0 {
			return fmt.Errorf("fault: failure %d on negative link %d", i, w.Link)
		}
		if w.At < 0 || w.RepairAt <= w.At {
			return fmt.Errorf("fault: failure %d window [%d,%d) invalid", i, w.At, w.RepairAt)
		}
	}
	return nil
}

// ValidateFor reports configuration errors, additionally checking every
// scheduled failure's link index against the network's link count —
// Validate alone cannot know it.
func (c Config) ValidateFor(numLinks int) error {
	if err := c.Validate(); err != nil {
		return err
	}
	for i, w := range c.LinkFailures {
		if w.Link >= numLinks {
			return fmt.Errorf("fault: failure %d on link %d, but the network has only %d links", i, w.Link, numLinks)
		}
	}
	return nil
}

// Stats aggregates injector activity across all links.
type Stats struct {
	// CorruptedFlits counts flit transmissions given a non-zero error mask.
	CorruptedFlits int64
	// RelockFailures counts failed CDR relock attempts.
	RelockFailures int64
	// FailureWindows is the number of scheduled hard failure windows.
	FailureWindows int
}

// linkState holds one link's private fault state. The two RNG sub-streams
// keep corruption and relock draws independent: the order of draws within
// each stream is fixed by per-link causality alone.
type linkState struct {
	crng, rrng sim.RNG
	pl         *powerlink.Link
	failures   []LinkFailure // sorted by At

	// Cached per-flit corruption probability, keyed by the (electrical,
	// optical) level pair it was computed for. ProjectedBER evaluates the
	// link budget and an erfc, too slow to repeat per flit.
	probLevel, probOpt int
	probValid          bool
	prob               float64

	corrupted   int64
	relockFails int64
}

// Injector is the deterministic fault source. It implements
// router.FaultSource and, through Relock, powerlink.RelockFaults.
type Injector struct {
	cfg   Config
	links []linkState // indexed by link
}

// NewInjector builds an injector for a network of numLinks links from cfg
// (protocol defaults applied) and a dedicated fault seed — derive it from
// the scenario seed via sim.NewStream(seed, sim.StreamFault) so traffic
// draws are untouched. Link k draws from streams 2k+1 (corruption) and 2k+2
// (relock) of the seed, so no two links — and no two fault classes — ever
// share a draw sequence. A failure window on a link outside [0, numLinks)
// is an error.
func NewInjector(cfg Config, seed uint64, numLinks int) (*Injector, error) {
	if err := cfg.ValidateFor(numLinks); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	in := &Injector{cfg: cfg, links: make([]linkState, numLinks)}
	for _, w := range cfg.LinkFailures {
		in.links[w.Link].failures = append(in.links[w.Link].failures, w)
	}
	for k := range in.links {
		ls := &in.links[k]
		ls.crng = *sim.NewStream(seed, uint64(2*k+1))
		ls.rrng = *sim.NewStream(seed, uint64(2*k+2))
		sort.Slice(ls.failures, func(i, j int) bool { return ls.failures[i].At < ls.failures[j].At })
	}
	return in, nil
}

// Config returns the injector's configuration with defaults applied.
func (in *Injector) Config() Config { return in.cfg }

// Bind registers the powerlink behind link index link as the margin source
// for its corruption rate. Unbound links fall back to BERFloor alone.
func (in *Injector) Bind(link int, pl *powerlink.Link) {
	in.links[link].pl = pl
}

// flitErrProb returns the per-flit corruption probability for link ls at
// now, caching by (electrical level, optical level).
func (in *Injector) flitErrProb(ls *linkState, now sim.Cycle) float64 {
	lv, opt := -1, 0
	if ls.pl != nil {
		lv = ls.pl.Level(now)
		opt = ls.pl.OpticalLevel(now)
	}
	if ls.probValid && ls.probLevel == lv && ls.probOpt == opt {
		return ls.prob
	}
	ber := in.cfg.BERFloor
	if in.cfg.BERScale > 0 && ls.pl != nil && lv >= 0 {
		if b := in.cfg.BERScale * ls.pl.ProjectedBER(now, lv); b > ber {
			ber = b
		}
	}
	if ber > 0.5 {
		ber = 0.5 // beyond this the "channel" is noise; clamp for sanity
	}
	p := 0.0
	if ber > 0 {
		p = 1 - math.Pow(1-ber, FlitBits)
	}
	ls.probLevel, ls.probOpt, ls.probValid, ls.prob = lv, opt, true, p
	return p
}

// CorruptionMask implements router.FaultSource: called once per flit
// transmission on link, it returns a non-zero 16-bit error mask when the
// flit is corrupted on the wire and 0 otherwise. The margin probe advances
// the powerlink's lazy state machine first, so any pending relock draws are
// resolved before this transmission's corruption draw — the per-link draw
// order is a pure function of the transmission schedule.
func (in *Injector) CorruptionMask(link int, now sim.Cycle) uint16 {
	ls := &in.links[link]
	p := in.flitErrProb(ls, now)
	if p <= 0 {
		return 0
	}
	if !ls.crng.Bernoulli(p) {
		return 0
	}
	ls.corrupted++
	mask := uint16(ls.crng.Uint64())
	if mask == 0 {
		mask = 1
	}
	return mask
}

// DownWindow implements router.FaultSource: it reports whether link is
// inside a scheduled hard failure window at now and, if so, when it is
// repaired. Purely schedule-driven — no RNG — so arrival-time evaluation is
// exactly reproducible.
func (in *Injector) DownWindow(link int, now sim.Cycle) (bool, sim.Cycle) {
	for _, w := range in.links[link].failures {
		if now < w.At {
			return false, 0
		}
		if now < w.RepairAt {
			return true, w.RepairAt
		}
	}
	return false, 0
}

// NextFailureAt returns the start of the first failure window on link at or
// after now (ok=false when none remain).
func (in *Injector) NextFailureAt(link int, now sim.Cycle) (sim.Cycle, bool) {
	for _, w := range in.links[link].failures {
		if w.RepairAt > now {
			if w.At > now {
				return w.At, true
			}
			return now, true
		}
	}
	return 0, false
}

// relockSource adapts one link's relock stream to powerlink.RelockFaults.
type relockSource struct {
	ls   *linkState
	prob float64
}

// RelockFails implements powerlink.RelockFaults.
func (r relockSource) RelockFails() bool {
	if r.prob <= 0 {
		return false
	}
	if r.ls.rrng.Bernoulli(r.prob) {
		r.ls.relockFails++
		return true
	}
	return false
}

// Relock returns the CDR relock fault source for link, to be installed with
// powerlink.Link.SetRelockFaults.
func (in *Injector) Relock(link int) powerlink.RelockFaults {
	return relockSource{ls: &in.links[link], prob: in.cfg.RelockFailProb}
}

// Stats returns aggregate injector activity.
func (in *Injector) Stats() Stats {
	var s Stats
	s.FailureWindows = len(in.cfg.LinkFailures)
	for i := range in.links {
		s.CorruptedFlits += in.links[i].corrupted
		s.RelockFailures += in.links[i].relockFails
	}
	return s
}
