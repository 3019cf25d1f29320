package telemetry

import (
	"fmt"

	"repro/internal/stats"
)

// FlightState is the serializable form of a FlightRecorder: the retained
// events in raw ring order (oldest first, *not* time-sorted — Events()
// sorts on read, and the raw order must survive a round trip so later
// recordings interleave identically).
type FlightState struct {
	Events  []Event
	Dropped int64
}

// ExportState captures the recorder's ring.
func (f *FlightRecorder) ExportState() FlightState {
	st := FlightState{Events: make([]Event, 0, f.n), Dropped: f.dropped}
	for i := 0; i < f.n; i++ {
		st.Events = append(st.Events, f.ev[(f.head+i)%len(f.ev)])
	}
	return st
}

// RestoreState overwrites the recorder from a snapshot. The recorder must
// have been built with a capacity of at least the snapshot's event count.
func (f *FlightRecorder) RestoreState(st FlightState) error {
	if len(st.Events) > len(f.ev) {
		return fmt.Errorf("telemetry: snapshot holds %d events, recorder capacity is %d", len(st.Events), len(f.ev))
	}
	for i := range f.ev {
		f.ev[i] = Event{}
	}
	f.head = 0
	f.n = len(st.Events)
	copy(f.ev, st.Events)
	f.dropped = st.Dropped
	return nil
}

// SeriesState is one instrument's sample ring and stride clock.
type SeriesState struct {
	Name   string
	Points []stats.Point
	Stride int
	Tick   int64
}

// HistogramState is one named histogram's buckets.
type HistogramState struct {
	Name string
	Hist stats.HistogramState
}

// RegistryState is the registry's complete mutable state. Instruments and
// the sampler and marker handlers are re-registered during network
// construction in a deterministic order; only their dynamic state travels.
type RegistryState struct {
	Series []SeriesState
	Hists  []HistogramState
	Flight FlightState

	SamplerArmed bool
	Pending      int
	Samples      int64

	Dumped     bool
	Dumps      int
	Suppressed int64
}

// ExportState captures the registry's mutable state in registration order.
func (r *Registry) ExportState() RegistryState {
	st := RegistryState{
		Flight:       r.flight.ExportState(),
		SamplerArmed: r.samplerArmed,
		Pending:      r.pending,
		Samples:      r.samples,
		Dumped:       r.dumped,
		Dumps:        r.dumps,
		Suppressed:   r.suppressed,
	}
	for _, s := range r.series {
		pts := make([]stats.Point, len(s.pts))
		copy(pts, s.pts)
		st.Series = append(st.Series, SeriesState{Name: s.name, Points: pts, Stride: s.stride, Tick: s.tick})
	}
	for _, name := range r.horder {
		st.Hists = append(st.Hists, HistogramState{Name: name, Hist: r.hists[name].ExportState()})
	}
	return st
}

// RestoreState overwrites the registry's mutable state. Every snapshot
// series and histogram must already be registered (the restore target is a
// freshly constructed network with identical telemetry wiring).
func (r *Registry) RestoreState(st RegistryState) error {
	for _, ss := range st.Series {
		s, ok := r.byName[ss.Name]
		if !ok {
			return fmt.Errorf("telemetry: snapshot series %q not registered", ss.Name)
		}
		if len(ss.Points) > s.cap {
			return fmt.Errorf("telemetry: snapshot series %q holds %d points, capacity is %d", ss.Name, len(ss.Points), s.cap)
		}
		if ss.Stride < 1 {
			return fmt.Errorf("telemetry: snapshot series %q has stride %d", ss.Name, ss.Stride)
		}
		s.pts = append(s.pts[:0], ss.Points...)
		s.stride = ss.Stride
		s.tick = ss.Tick
	}
	for _, hs := range st.Hists {
		h, ok := r.hists[hs.Name]
		if !ok {
			return fmt.Errorf("telemetry: snapshot histogram %q not registered", hs.Name)
		}
		h.RestoreState(hs.Hist)
	}
	if err := r.flight.RestoreState(st.Flight); err != nil {
		return err
	}
	r.samplerArmed = st.SamplerArmed
	r.pending = st.Pending
	r.samples = st.Samples
	r.dumped = st.Dumped
	r.dumps = st.Dumps
	r.suppressed = st.Suppressed
	return nil
}
