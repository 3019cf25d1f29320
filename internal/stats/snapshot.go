package stats

import (
	"slices"

	"repro/internal/checkpoint/wire"
)

// ExportState returns a deep copy of the histogram, its checkpoint.
func (h *Histogram) ExportState() Histogram {
	return Histogram{Counts: slices.Clone(h.Counts), Total: h.Total}
}

// RestoreState overwrites the histogram from a snapshot, keeping its own
// backing array.
func (h *Histogram) RestoreState(st Histogram) {
	h.Counts = append(h.Counts[:0], st.Counts...)
	h.Total = st.Total
}

// Wire lists the histogram's fields to c in declaration order.
func (h *Histogram) Wire(c *wire.Codec) {
	wire.Slice(c, &h.Counts, wire.Int)
	wire.Int(c, &h.Total)
}

// Wire lists the point's fields to c in declaration order.
func (pt *Point) Wire(c *wire.Codec) {
	wire.Int(c, &pt.T)
	wire.Float(c, &pt.V)
}

// Wire lists the counts' fields to c in declaration order.
func (pc *PolicyCounts) Wire(c *wire.Codec) {
	wire.Int(c, &pc.Windows)
	wire.Int(c, &pc.Ups)
	wire.Int(c, &pc.Downs)
	wire.Int(c, &pc.Holds)
	wire.Int(c, &pc.Rejected)
	wire.Int(c, &pc.Guarded)
	wire.Int(c, &pc.PdecCount)
	wire.Int(c, &pc.LossDerates)
	wire.Int(c, &pc.StormBackoffs)
	wire.Int(c, &pc.GradualUps)
}
