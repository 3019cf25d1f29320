// Package stats provides the measurement primitives used to reproduce the
// paper's evaluation: bucketed time series (injection rate, latency, and
// power over time for Figs. 6 and 7), and the power-latency product metric.
package stats

import (
	"math"

	"repro/internal/sim"
)

// Bucketed accumulates per-bucket observations over time: bucket i covers
// cycles [i·Width, (i+1)·Width).
type Bucketed struct {
	Width sim.Cycle
	sums  []float64
	ns    []int64
}

// NewBucketed creates a bucketed accumulator with the given bucket width.
func NewBucketed(width sim.Cycle) *Bucketed {
	if width <= 0 {
		panic("stats: bucket width must be positive")
	}
	return &Bucketed{Width: width}
}

// Add records value v at time t.
func (b *Bucketed) Add(t sim.Cycle, v float64) {
	i := int(t / b.Width)
	for len(b.sums) <= i {
		b.sums = append(b.sums, 0)
		b.ns = append(b.ns, 0)
	}
	b.sums[i] += v
	b.ns[i]++
}

// Buckets returns the number of buckets touched.
func (b *Bucketed) Buckets() int { return len(b.sums) }

// Mean returns bucket i's mean observation (NaN when empty).
func (b *Bucketed) Mean(i int) float64 {
	if i >= len(b.ns) || b.ns[i] == 0 {
		return math.NaN()
	}
	return b.sums[i] / float64(b.ns[i])
}

// Sum returns bucket i's sum.
func (b *Bucketed) Sum(i int) float64 {
	if i >= len(b.sums) {
		return 0
	}
	return b.sums[i]
}

// N returns bucket i's observation count.
func (b *Bucketed) N(i int) int64 {
	if i >= len(b.ns) {
		return 0
	}
	return b.ns[i]
}

// Point is one sample of a time series.
type Point struct {
	// T is the bucket's start time in cycles.
	T sim.Cycle
	// V is the value.
	V float64
}

// Series is a simple time series.
type Series []Point

// MeanV returns the mean of the series' values (NaN-safe: NaN points are
// skipped).
func (s Series) MeanV() float64 {
	var sum float64
	var n int
	for _, p := range s {
		if !math.IsNaN(p.V) {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// MaxV returns the maximum value (NaN when empty).
func (s Series) MaxV() float64 {
	best := math.NaN()
	for _, p := range s {
		if math.IsNaN(p.V) {
			continue
		}
		if math.IsNaN(best) || p.V > best {
			best = p.V
		}
	}
	return best
}

// PowerLatencyProduct multiplies normalised power by normalised latency —
// the paper's single-number power-performance metric.
func PowerLatencyProduct(normPower, normLatency float64) float64 {
	return normPower * normLatency
}

// Reliability aggregates the fault-injection and link-level retransmission
// counters of a run: what the degraded-mode reports print alongside
// latency and power.
type Reliability struct {
	// CorruptedFlits counts flits given a wire error by the injector.
	CorruptedFlits int64 `json:"corrupted_flits"`
	// CrcDrops counts flits the receivers discarded on a failed CRC.
	CrcDrops int64 `json:"crc_drops"`
	// LostToDown counts flits that arrived while their link was hard-down.
	LostToDown int64 `json:"lost_to_down"`
	// Retransmits counts go-back-N replay transmissions.
	Retransmits int64 `json:"retransmits"`
	// Nacks counts replay requests issued by receivers.
	Nacks int64 `json:"nacks"`
	// Timeouts counts retransmit watchdog firings.
	Timeouts int64 `json:"timeouts"`
	// Escalations counts retry exhaustions that forced a link reset.
	Escalations int64 `json:"escalations"`
	// Duplicates counts replayed flits dropped as already delivered.
	Duplicates int64 `json:"duplicates"`
	// RelockFailures counts fault-injected CDR relock failures.
	RelockFailures int64 `json:"relock_failures"`
	// DownLinks is the number of links hard-down at observation time.
	DownLinks int `json:"down_links"`
}

// PolicyCounts are the activity counters of one link policy, or their sum
// over every controlled link. Every evaluation counts one window and at
// most one of Ups, Downs and Holds. The DVS controller counts a step-up
// the MaxBER guard refused as Guarded alone, so for DVS Windows = Ups +
// Downs + Holds + Guarded. The other kinds count such a window as a Hold
// too: for them Windows = Ups + Downs + Holds, and Guarded is already
// included in Holds.
type PolicyCounts struct {
	// Windows counts policy evaluations.
	Windows int `json:"windows"`
	// Ups/Downs/Holds count the decisions taken.
	Ups   int `json:"ups"`
	Downs int `json:"downs"`
	Holds int `json:"holds"`
	// Rejected counts steps the link refused (extreme level or
	// mid-transition).
	Rejected int `json:"rejected"`
	// Guarded counts step-ups refused by the MaxBER reliability guard.
	Guarded int `json:"guarded"`
	// PdecCount counts external-laser power decrements.
	PdecCount int `json:"pdec_count"`
	// LossDerates counts rule-engine step-downs taken under measured loss
	// or projected BER (zero for other kinds).
	LossDerates int `json:"loss_derates"`
	// StormBackoffs counts rule-engine step-downs toward the safe level
	// during relock storms (zero for other kinds).
	StormBackoffs int `json:"storm_backoffs"`
	// GradualUps counts hysteresis-gated recovery step-ups after clean
	// windows (zero for other kinds).
	GradualUps int `json:"gradual_ups"`
}

// Add accumulates o into c.
func (c *PolicyCounts) Add(o PolicyCounts) {
	c.Windows += o.Windows
	c.Ups += o.Ups
	c.Downs += o.Downs
	c.Holds += o.Holds
	c.Rejected += o.Rejected
	c.Guarded += o.Guarded
	c.PdecCount += o.PdecCount
	c.LossDerates += o.LossDerates
	c.StormBackoffs += o.StormBackoffs
	c.GradualUps += o.GradualUps
}

// Policy aggregates the adaptive-policy counters of a run across every
// controlled link, plus the regret bookkeeping against the offline oracle
// when one was computed.
type Policy struct {
	// Kind names the policy implementation ("dvs", "rules", "pid",
	// "oracle-replay").
	Kind string `json:"kind"`
	// PolicyCounts are the counters summed over all controllers; their
	// JSON keys sit inline, between kind and energy_j.
	PolicyCounts
	// EnergyJ is the energy consumed by the policy-controlled links.
	EnergyJ float64 `json:"energy_j"`
	// OracleEnergyJ is the offline-optimal lower bound on EnergyJ computed
	// from a recorded trace (absent when no oracle ran).
	OracleEnergyJ float64 `json:"oracle_energy_j,omitempty"`
	// RegretJ = EnergyJ − OracleEnergyJ: the energy better control could
	// have saved at most (absent when no oracle ran).
	RegretJ float64 `json:"regret_j,omitempty"`
	// RegretFrac is RegretJ / OracleEnergyJ (absent when no oracle ran).
	RegretFrac float64 `json:"regret_frac,omitempty"`
}

// SetOracle fills the regret fields from an oracle energy bound.
func (p *Policy) SetOracle(oracleJ float64) {
	p.OracleEnergyJ = oracleJ
	p.RegretJ = p.EnergyJ - oracleJ
	if oracleJ > 0 {
		p.RegretFrac = p.RegretJ / oracleJ
	}
}

// Recovery aggregates the fault-aware routing and stall-watchdog counters
// of a run: how traffic was steered around hard link failures and what the
// last-resort escalations cost.
type Recovery struct {
	// Reroutes counts routing decisions where liveness filtering excluded
	// at least one minimal candidate — the packet was steered around a
	// dead link while staying minimal.
	Reroutes int64 `json:"reroutes"`
	// Misroutes counts non-minimal hops taken because every minimal
	// candidate was dead (at most 8 per packet).
	Misroutes int64 `json:"misroutes"`
	// EscapeGrants counts flits granted onto escape virtual channels.
	EscapeGrants int64 `json:"escape_grants"`
	// WatchdogReroutes counts head-of-line packets the stall watchdog
	// forced onto the escape network after StallHorizon.
	WatchdogReroutes int64 `json:"watchdog_reroutes"`
	// WatchdogDrops counts packets dropped after DropHorizon.
	WatchdogDrops int64 `json:"watchdog_drops"`
	// UnreachableDrops counts packets dropped at injection because no live
	// path to their destination router existed.
	UnreachableDrops int64 `json:"unreachable_drops"`
	// DiscardedFlits counts killed-packet flits discarded by routers.
	DiscardedFlits int64 `json:"discarded_flits"`
	// DroppedPackets is the drop total (watchdog + unreachable); exact
	// drain means Injected == Delivered + DroppedPackets.
	DroppedPackets int64 `json:"dropped_packets"`
	// DownMeshLinks is the number of inter-router links the liveness table
	// currently considers dead.
	DownMeshLinks int `json:"down_mesh_links"`
	// ReachRecomputes counts reachability/liveness recomputations.
	ReachRecomputes int64 `json:"reach_recomputes"`
}
