package telemetry

import (
	"fmt"

	"repro/internal/checkpoint/wire"
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

// Wire lists the recorder state's fields to c in declaration order.
func (st *FlightState) Wire(c *wire.Codec) {
	wire.Records(c, &st.Events)
	wire.Int(c, &st.Dropped)
}

// Wire lists the event's fields to c in declaration order.
func (e *Event) Wire(c *wire.Codec) {
	wire.Int(c, &e.At)
	wire.String(c, &e.Kind)
	wire.Int(c, &e.Link)
	wire.Int(c, &e.Router)
	wire.Int(c, &e.A)
	wire.Int(c, &e.B)
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

// Wire lists the series' fields to c in declaration order.
func (st *SeriesState) Wire(c *wire.Codec) {
	wire.String(c, &st.Name)
	wire.Records(c, &st.Points)
	wire.Int(c, &st.Stride)
	wire.Int(c, &st.Tick)
}

// HistogramState is one named histogram's buckets.
type HistogramState struct {
	Name string
	Hist stats.Histogram
}

// Wire lists the histogram's fields to c in declaration order.
func (st *HistogramState) Wire(c *wire.Codec) {
	wire.String(c, &st.Name)
	st.Hist.Wire(c)
}

// RegistryState is the registry's record: its sampler and dump
// bookkeeping. Pending counts registry-owned wheel events (the sampler plus
// any scheduled flight-recorder markers) not yet fired; the network's
// quiescence check subtracts it, because telemetry only observes and its
// events must not keep a drained network "busy". Dumped, Dumps and
// Suppressed track the once-per-run automatic flight dump.
type RegistryState struct {
	SamplerArmed bool
	Pending      int
	Samples      int64

	Dumped     bool
	Dumps      int
	Suppressed int64
}

// Wire lists the record's fields to c in declaration order.
func (st *RegistryState) Wire(c *wire.Codec) {
	wire.Bool(c, &st.SamplerArmed)
	wire.Int(c, &st.Pending)
	wire.Int(c, &st.Samples)
	wire.Bool(c, &st.Dumped)
	wire.Int(c, &st.Dumps)
	wire.Int(c, &st.Suppressed)
}

// RegistrySnapshot is the registry's checkpoint: its record plus every
// instrument's dynamic state. Instruments and the sampler and marker
// handlers are re-registered during network construction in a
// deterministic order; only their dynamic state travels.
type RegistrySnapshot struct {
	RegistryState
	Series []SeriesState
	Hists  []HistogramState
	Flight FlightState
}

// Wire lists the snapshot's fields to c in declaration order.
func (st *RegistrySnapshot) Wire(c *wire.Codec) {
	st.RegistryState.Wire(c)
	wire.Records(c, &st.Series)
	wire.Records(c, &st.Hists)
	st.Flight.Wire(c)
}

// ExportState captures the registry's mutable state in registration order.
// Every series' points share one backing array, each series capped to its
// own stretch of it.
func (r *Registry) ExportState() RegistrySnapshot {
	st := RegistrySnapshot{
		RegistryState: r.st,
		Series:        make([]SeriesState, len(r.series)),
		Hists:         make([]HistogramState, len(r.horder)),
		Flight:        r.flight.ExportState(),
	}
	total := 0
	for _, s := range r.series {
		total += len(s.pts)
	}
	pts := make([]stats.Point, 0, total)
	for i, s := range r.series {
		from := len(pts)
		pts = append(pts, s.pts...)
		st.Series[i] = SeriesState{Name: s.name, Points: pts[from:len(pts):len(pts)], Stride: s.stride, Tick: s.tick}
	}
	for i, name := range r.horder {
		st.Hists[i] = HistogramState{Name: name, Hist: r.hists[name].ExportState()}
	}
	return st
}

// RestoreState overwrites the registry's mutable state. Every snapshot
// series and histogram must already be registered (the restore target is a
// freshly constructed network with identical telemetry wiring).
func (r *Registry) RestoreState(st RegistrySnapshot) error {
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
	r.st = st.RegistryState
	return nil
}
