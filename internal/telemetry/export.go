package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Chrome trace_event export: every time series becomes a counter track
// ("ph":"C" — one track per link/router metric, named by the series), and
// every flight-recorder event becomes a global instant event ("ph":"i").
// The resulting JSON loads directly in chrome://tracing and Perfetto.
//
// Timestamps are microseconds of simulated time (1 cycle = 1.6 ns), so a
// 1M-cycle run spans 1.6 ms of trace time.

// traceEvent is one entry of the Chrome trace_event format. Only the
// fields the counter/instant/metadata phases need are modelled.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level JSON object Chrome/Perfetto accept.
//
//optolint:allow jsontags camelCase keys are mandated by the Chrome trace_event schema
type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// tsMicros converts a cycle to trace microseconds.
func tsMicros(c sim.Cycle) float64 { return c.Micros() }

// counterPID is the process id grouping all counter tracks; eventPID
// groups the flight-recorder instants.
const (
	counterPID = 1
	eventPID   = 2
)

// WriteChromeTrace renders the registry's series and flight recorder as
// Chrome trace_event JSON.
func WriteChromeTrace(w io.Writer, r *Registry) error {
	var tf traceFile
	tf.DisplayTimeUnit = "ms"
	tf.OtherData = map[string]any{
		"source":            "optosim telemetry",
		"cycle_ns":          1.6,
		"sample_every":      int64(r.cfg.SampleEvery),
		"samples":           r.samples,
		"dropped_events":    r.flight.Dropped(),
		"flight_retained":   r.flight.Len(),
		"series_ring_cap":   r.cfg.RingCap,
		"series_registered": len(r.series),
	}
	tf.TraceEvents = append(tf.TraceEvents,
		traceEvent{Name: "process_name", Phase: "M", PID: counterPID,
			Args: map[string]any{"name": "probes"}},
		traceEvent{Name: "process_name", Phase: "M", PID: eventPID,
			Args: map[string]any{"name": "flight recorder"}},
	)
	for _, s := range r.Series() {
		for _, p := range s.Points {
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name:  s.Name,
				Phase: "C",
				TS:    tsMicros(p.T),
				PID:   counterPID,
				Args:  map[string]any{"value": p.V},
			})
		}
	}
	for _, e := range r.flight.Events() {
		args := map[string]any{"link": e.Link, "router": e.Router}
		if e.A != 0 {
			args["a"] = e.A
		}
		if e.B != 0 {
			args["b"] = e.B
		}
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name:  string(e.Kind),
			Phase: "i",
			TS:    tsMicros(e.At),
			PID:   eventPID,
			TID:   1,
			Scope: "p",
			Args:  args,
		})
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(tf); err != nil {
		return fmt.Errorf("telemetry: writing Chrome trace: %w", err)
	}
	return nil
}

// WriteCSV renders every series in long form: series,kind,cycle,value —
// one row per retained sample, series in registration order, each value in
// %g's shortest form. The rows are built in memory and written with one
// Write, since w may be an unbuffered file.
func WriteCSV(w io.Writer, r *Registry) error {
	buf := []byte("series,kind,cycle,value\n")
	for _, s := range r.Series() {
		for _, p := range s.Points {
			buf = append(buf, s.Name...)
			buf = append(buf, ',')
			buf = append(buf, s.Kind...)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(p.T), 10)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, p.V, 'g', -1, 64)
			buf = append(buf, '\n')
		}
	}
	_, err := w.Write(buf)
	return err
}
