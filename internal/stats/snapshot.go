package stats

import "slices"

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
