// Package traffic provides the workload generators of Section 4.2: uniform
// random traffic at a constant injection rate, the time-varying hot-spot
// trace, and rate-envelope-modulated traffic used to synthesise
// SPLASH-2-like workloads. Generators are pull-based: the network asks each
// source for its next injection, so generation cost is O(packets), not
// O(nodes × cycles).
package traffic

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Generator produces the injection stream of one source node.
type Generator interface {
	// Next returns the next packet injected by node strictly after cycle
	// `after`: its injection time, destination node, and size in flits.
	// ok = false means the node injects nothing further.
	Next(node int, after sim.Cycle, rng *sim.RNG) (at sim.Cycle, dst int, size int, ok bool)
}

// geometricGap draws the waiting time (>= 1 cycles) until the next success
// of a per-cycle Bernoulli(p) process.
func geometricGap(p float64, rng *sim.RNG) sim.Cycle {
	if p >= 1 {
		return 1
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	g := sim.Cycle(math.Floor(math.Log(u)/math.Log(1-p))) + 1
	if g < 1 {
		g = 1
	}
	return g
}

// Uniform is uniform random traffic: every node injects fixed-size packets
// as a Bernoulli process and picks destinations uniformly among all other
// nodes. Its constant rate is the worst case for a power-aware policy —
// no variance means no scaling opportunity (Section 4.2).
type Uniform struct {
	// Nodes is the total node count.
	Nodes int
	// RatePerNode is the injection probability per node per cycle.
	RatePerNode float64
	// Size is the packet size in flits.
	Size int
}

// NewUniform builds uniform traffic from a network-wide injection rate in
// packets/cycle (the unit of the paper's Fig. 5 x-axes).
func NewUniform(nodes int, networkRate float64, size int) *Uniform {
	return &Uniform{Nodes: nodes, RatePerNode: networkRate / float64(nodes), Size: size}
}

// Next implements Generator.
func (u *Uniform) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	if u.RatePerNode <= 0 || u.Nodes < 2 {
		return 0, 0, 0, false
	}
	at := after + geometricGap(u.RatePerNode, rng)
	dst := rng.Intn(u.Nodes - 1)
	if dst >= node {
		dst++
	}
	return at, dst, u.Size, true
}

// Stoppable wraps an open-loop Generator with a closed-loop stop switch:
// after Stop, Next reports no further injections for every node, so each
// NIC's last pending arrival fires without scheduling another and the
// network's Quiescent becomes reachable. Tests
// use it to assert an exact drain (injected == delivered) instead of
// bounding the in-flight tail of an endless generator.
type Stoppable struct {
	// Gen is the wrapped generator.
	Gen Generator

	stopped bool
}

// NewStoppable wraps g.
func NewStoppable(g Generator) *Stoppable { return &Stoppable{Gen: g} }

// Stop ends injection: every subsequent Next returns ok = false. Arrival
// times already handed out remain valid, so in-flight injections complete.
func (s *Stoppable) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Stoppable) Stopped() bool { return s.stopped }

// Next implements Generator.
func (s *Stoppable) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	if s.stopped {
		return 0, 0, 0, false
	}
	return s.Gen.Next(node, after, rng)
}

// Phase is one constant-rate segment of a time-varying schedule.
type Phase struct {
	// Until is the cycle at which this phase ends (exclusive).
	Until sim.Cycle
	// NetworkRate is the total injection rate in packets/cycle across all
	// nodes during the phase.
	NetworkRate float64
}

// Schedule is a piecewise-constant network-wide injection rate.
type Schedule []Phase

// RateAt returns the network rate at cycle t (0 after the last phase).
func (s Schedule) RateAt(t sim.Cycle) float64 {
	for _, p := range s {
		if t < p.Until {
			return p.NetworkRate
		}
	}
	return 0
}

// End returns the cycle at which the schedule ends.
func (s Schedule) End() sim.Cycle {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].Until
}

// Validate reports malformed schedules.
func (s Schedule) Validate() error {
	var prev sim.Cycle
	for i, p := range s {
		if p.Until <= prev {
			return fmt.Errorf("traffic: phase %d ends at %d, not after %d", i, p.Until, prev)
		}
		if p.NetworkRate < 0 {
			return fmt.Errorf("traffic: phase %d has negative rate", i)
		}
		prev = p.Until
	}
	return nil
}

// Hotspot is the time-varying hot-spot workload of Section 4.2: injection
// follows a phase schedule (temporal variance) and one node attracts
// HotWeight times the traffic of any other (spatial variance; the paper
// makes node 4 of rack (3,5) accept 4× the traffic of others).
type Hotspot struct {
	Nodes     int
	Phases    Schedule
	HotNode   int
	HotWeight float64
	Size      int
}

// Next implements Generator.
func (h *Hotspot) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	if h.Nodes < 2 {
		return 0, 0, 0, false
	}
	at := after
	for {
		rate := h.Phases.RateAt(at) / float64(h.Nodes)
		if rate <= 0 {
			// Idle phase: skip to the next phase start, if any.
			next, ok := h.nextPhaseStart(at)
			if !ok {
				return 0, 0, 0, false
			}
			at = next
			continue
		}
		gap := geometricGap(rate, rng)
		candidate := at + gap
		// If the drawn arrival crosses a phase boundary, clamp to the
		// boundary and redraw with the new phase's rate.
		if boundary, ok := h.boundaryBetween(at, candidate); ok {
			at = boundary
			continue
		}
		return candidate, h.pickDst(node, rng), h.Size, true
	}
}

// nextPhaseStart returns the earliest cycle >= t inside a positive-rate
// phase. Phase i spans [phase[i-1].Until, phase[i].Until).
func (h *Hotspot) nextPhaseStart(t sim.Cycle) (sim.Cycle, bool) {
	var prev sim.Cycle
	for _, p := range h.Phases {
		if p.Until > t && p.NetworkRate > 0 {
			return maxCycle(t, prev), true
		}
		prev = p.Until
	}
	return 0, false
}

func maxCycle(a, b sim.Cycle) sim.Cycle {
	if a > b {
		return a
	}
	return b
}

// boundaryBetween reports the first phase boundary in (from, to], if any.
// A candidate landing exactly on a boundary belongs to the next phase and
// must be redrawn at that phase's rate.
func (h *Hotspot) boundaryBetween(from, to sim.Cycle) (sim.Cycle, bool) {
	for _, p := range h.Phases {
		if p.Until > from && p.Until <= to {
			return p.Until, true
		}
	}
	return 0, false
}

// pickDst chooses a destination: HotNode carries weight HotWeight, every
// other node weight 1, and a source never sends to itself.
func (h *Hotspot) pickDst(node int, rng *sim.RNG) int {
	if node == h.HotNode {
		dst := rng.Intn(h.Nodes - 1)
		if dst >= node {
			dst++
		}
		return dst
	}
	others := h.Nodes - 2 // excluding self and the hot node
	total := h.HotWeight + float64(others)
	if rng.Float64()*total < h.HotWeight {
		return h.HotNode
	}
	dst := rng.Intn(others)
	lo, hi := node, h.HotNode
	if lo > hi {
		lo, hi = hi, lo
	}
	if dst >= lo {
		dst++
	}
	if dst >= hi {
		dst++
	}
	return dst
}

// Modulated injects uniform-destination traffic whose network-wide rate
// follows an arbitrary envelope function of time. It is the substrate for
// the synthesised SPLASH-2-like traces.
type Modulated struct {
	Nodes int
	// Rate returns the network-wide injection rate (packets/cycle) at t.
	Rate func(t sim.Cycle) float64
	// Size is the packet size in flits (paper: SPLASH average 48).
	Size int
	// End, when positive, stops injection at that cycle.
	End sim.Cycle
	// Step quantises envelope evaluation: the rate is treated as constant
	// within each Step-cycle segment (default 1000).
	Step sim.Cycle
}

// Next implements Generator.
func (m *Modulated) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	step := m.Step
	if step <= 0 {
		step = 1000
	}
	at := after
	for i := 0; i < 1_000_000; i++ { // bounded walk across idle segments
		if m.End > 0 && at >= m.End {
			return 0, 0, 0, false
		}
		segEnd := (at/step + 1) * step
		rate := m.Rate(at) / float64(m.Nodes)
		if rate <= 0 {
			at = segEnd
			continue
		}
		gap := geometricGap(rate, rng)
		candidate := at + gap
		if candidate >= segEnd {
			at = segEnd
			continue
		}
		if m.End > 0 && candidate >= m.End {
			return 0, 0, 0, false
		}
		dst := rng.Intn(m.Nodes - 1)
		if dst >= node {
			dst++
		}
		return candidate, dst, m.Size, true
	}
	return 0, 0, 0, false
}
