package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sim"
)

// fireCycle harvests cycle now and runs its events in canonical order,
// exactly as Network.Step drains the wheel.
func fireCycle(w *sim.Wheel, now sim.Cycle) {
	w.Run(w.BeginCycle(now), now)
}

// drive runs the wheel from cycle 1 through end, firing events as the
// simulator's cycle loop would.
func drive(w *sim.Wheel, end sim.Cycle) {
	for c := sim.Cycle(1); c <= end; c++ {
		fireCycle(w, c)
	}
}

func TestConfigDefaultsAndValidate(t *testing.T) {
	c := Config{Enabled: true}.WithDefaults()
	if c.SampleEvery != 1024 || c.RingCap != 512 {
		t.Fatalf("unexpected defaults: %+v", c)
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("zero config should validate: %v", err)
	}
	if err := (Config{Enabled: true, RingCap: 1}).Validate(); err == nil {
		t.Fatal("RingCap=1 should fail validation")
	}
}

func TestWheelDrivenSampling(t *testing.T) {
	w := sim.NewWheel(64)
	cfg := Config{Enabled: true, SampleEvery: 8, RingCap: 64}
	r := NewRegistry(cfg, w)
	var reads int
	r.Gauge("g", func(now sim.Cycle) float64 { reads++; return float64(now) })
	r.Start(0)
	drive(w, 40)
	// Baseline at 0 plus samples at 8,16,24,32,40.
	if r.Samples() != 6 || reads != 6 {
		t.Fatalf("samples=%d reads=%d, want 6", r.Samples(), reads)
	}
	s, ok := r.Lookup("g")
	if !ok || len(s.Points) != 6 {
		t.Fatalf("series g: ok=%v len=%d", ok, len(s.Points))
	}
	for i, p := range s.Points {
		want := sim.Cycle(i * 8)
		if p.T != want || p.V != float64(want) {
			t.Fatalf("point %d = (%d,%g), want (%d,%d)", i, p.T, p.V, want, want)
		}
	}
	// Exactly one registry-owned event stays armed.
	if r.PendingEvents() != 1 || w.Pending() != 1 {
		t.Fatalf("pending: registry=%d wheel=%d, want 1,1", r.PendingEvents(), w.Pending())
	}
}

func TestRingCompactionDoublesStride(t *testing.T) {
	w := sim.NewWheel(64)
	r := NewRegistry(Config{Enabled: true, SampleEvery: 4, RingCap: 8}, w)
	r.Counter("c", func() int64 { return 0 })
	r.Start(0)
	drive(w, 4*40) // 41 sampling rounds against a ring of 8
	s, _ := r.Lookup("c")
	if s.Stride < 4 {
		t.Fatalf("stride=%d, want >=4 after repeated compaction", s.Stride)
	}
	if len(s.Points) > 8 {
		t.Fatalf("ring exceeded capacity: %d points", len(s.Points))
	}
	// Coverage must span the whole run: first point at 0, last within one
	// (coarsened) stride of the end.
	if s.Points[0].T != 0 {
		t.Fatalf("first point at %d, want 0", s.Points[0].T)
	}
	last := s.Points[len(s.Points)-1].T
	if last < sim.Cycle(4*40)-sim.Cycle(s.Stride*4) {
		t.Fatalf("last point at %d, run ended at %d (stride %d)", last, 4*40, s.Stride)
	}
	// Points must sit on the coarsened grid.
	step := sim.Cycle(s.Stride * 4)
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].T-s.Points[i-1].T != step {
			t.Fatalf("uneven grid: points %d..%d at %d,%d (step %d)",
				i-1, i, s.Points[i-1].T, s.Points[i].T, step)
		}
	}
}

func TestDuplicateSeriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r := NewRegistry(Config{Enabled: true}, sim.NewWheel(64))
	r.Gauge("x", func(sim.Cycle) float64 { return 0 })
	r.Gauge("x", func(sim.Cycle) float64 { return 0 })
}

func TestFlightRecorderRingBounds(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.Record(Event{At: sim.Cycle(i), Kind: EventLinkDown, Link: i, Router: -1})
	}
	if f.Len() != 4 || f.Dropped() != 6 {
		t.Fatalf("len=%d dropped=%d, want 4,6", f.Len(), f.Dropped())
	}
	ev := f.Events()
	for i, e := range ev {
		if e.Link != 6+i {
			t.Fatalf("event %d links %d, want %d (oldest evicted first)", i, e.Link, 6+i)
		}
	}
}

func TestFlightEventsSortedByLogicalTime(t *testing.T) {
	f := NewFlightRecorder(8)
	// Lazily-advanced sources record out of order; Events() must sort by At
	// but keep recording order for ties.
	f.Record(Event{At: 30, Kind: EventLevelUp, Link: 1})
	f.Record(Event{At: 10, Kind: EventLinkDown, Link: 2})
	f.Record(Event{At: 30, Kind: EventLevelDown, Link: 3})
	ev := f.Events()
	if ev[0].At != 10 || ev[1].Link != 1 || ev[2].Link != 3 {
		t.Fatalf("bad order: %+v", ev)
	}
}

func TestTriggerDumpOncePerRun(t *testing.T) {
	w := sim.NewWheel(64)
	r := NewRegistry(Config{Enabled: true}, w)
	r.Record(Event{At: 5, Kind: EventWatchdogKill, Link: -1, Router: 2, A: 1})
	var buf bytes.Buffer
	r.SetDumpWriter(&buf)
	r.TriggerDump(100, "watchdog_kill")
	r.TriggerDump(200, "watchdog_kill")
	r.TriggerDump(300, "audit_fail")
	written, suppressed := r.Dumps()
	if written != 1 || suppressed != 2 {
		t.Fatalf("dumps=%d suppressed=%d, want 1,2", written, suppressed)
	}
	reason, at, events, err := ParseFlightDump(buf.Bytes())
	if err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if reason != "watchdog_kill" || at != 100 || len(events) != 1 {
		t.Fatalf("reason=%q at=%d events=%d", reason, at, len(events))
	}
	if events[0].Kind != EventWatchdogKill || events[0].Router != 2 {
		t.Fatalf("bad event round-trip: %+v", events[0])
	}
}

func TestScheduleMarkerPendingAccounting(t *testing.T) {
	w := sim.NewWheel(64)
	r := NewRegistry(Config{Enabled: true, SampleEvery: 1024}, w)
	fired := sim.Cycle(0)
	r.ScheduleMarker(10, func(now sim.Cycle) { fired = now })
	if r.PendingEvents() != 1 {
		t.Fatalf("pending=%d before fire", r.PendingEvents())
	}
	drive(w, 10)
	if fired != 10 || r.PendingEvents() != 0 {
		t.Fatalf("fired=%d pending=%d", fired, r.PendingEvents())
	}
}

func TestChromeTraceExport(t *testing.T) {
	w := sim.NewWheel(64)
	r := NewRegistry(Config{Enabled: true, SampleEvery: 16, RingCap: 32}, w)
	r.Gauge("link0.level", func(now sim.Cycle) float64 { return 2 })
	r.Counter("net.delivered", func() int64 { return 7 })
	r.Record(Event{At: 20, Kind: EventLinkDown, Link: 3, Router: -1})
	r.Start(0)
	drive(w, 32)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, r); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if tf.Unit != "ms" {
		t.Fatalf("displayTimeUnit=%q", tf.Unit)
	}
	var counters, instants int
	for _, e := range tf.TraceEvents {
		switch e["ph"] {
		case "C":
			counters++
			args, ok := e["args"].(map[string]any)
			if !ok {
				t.Fatalf("counter without args: %v", e)
			}
			if _, ok := args["value"]; !ok {
				t.Fatalf("counter args missing value: %v", e)
			}
		case "i":
			instants++
			if e["name"] != "link_down" {
				t.Fatalf("instant name=%v", e["name"])
			}
			// 20 cycles × 1.6 ns = 0.032 µs.
			if ts := e["ts"].(float64); ts < 0.03 || ts > 0.035 {
				t.Fatalf("instant ts=%v, want ~0.032", ts)
			}
		}
	}
	// 3 sampling rounds (0,16,32) × 2 series.
	if counters != 6 || instants != 1 {
		t.Fatalf("counters=%d instants=%d, want 6,1", counters, instants)
	}
}

func TestCSVExport(t *testing.T) {
	w := sim.NewWheel(64)
	r := NewRegistry(Config{Enabled: true, SampleEvery: 16, RingCap: 32}, w)
	r.Gauge("a", func(now sim.Cycle) float64 { return 1.5 })
	r.Start(0)
	drive(w, 16)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "series,kind,cycle,value" {
		t.Fatalf("header %q", lines[0])
	}
	if len(lines) != 3 || lines[1] != "a,gauge,0,1.5" || lines[2] != "a,gauge,16,1.5" {
		t.Fatalf("rows: %q", lines[1:])
	}
}

// TestCSVExportMatchesFormat pins WriteCSV's bytes to the fmt rendering
// it replaces, across two series and the values %g spells unusually.
func TestCSVExportMatchesFormat(t *testing.T) {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		5e-324, 1e21, 0, 3, -42, 1e20, 123456789, 0.1, 1e-5, 2.5}
	w := sim.NewWheel(64)
	r := NewRegistry(Config{Enabled: true, SampleEvery: 1, RingCap: 64}, w)
	var gi int
	r.Gauge("g", func(now sim.Cycle) float64 { v := vals[gi%len(vals)]; gi++; return v })
	var ci int64
	r.Counter("c", func() int64 { ci += 1 << 40; return ci })
	r.Start(0)
	drive(w, sim.Cycle(len(vals)-1))

	want := "series,kind,cycle,value\n"
	for _, s := range r.Series() {
		if len(s.Points) != len(vals) {
			t.Fatalf("series %s has %d points, want %d", s.Name, len(s.Points), len(vals))
		}
		for _, p := range s.Points {
			want += fmt.Sprintf("%s,%s,%d,%g\n", s.Name, s.Kind, int64(p.T), p.V)
		}
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("WriteCSV output differs from fmt's:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestDigestQuantiles(t *testing.T) {
	w := sim.NewWheel(64)
	r := NewRegistry(Config{Enabled: true}, w)
	h := r.Histogram("packet_latency")
	for i := 1; i <= 100; i++ {
		h.Record(sim.Cycle(i))
	}
	d := r.Digest()
	if d.LatencyP50 <= 0 || d.LatencyP99 < d.LatencyP50 {
		t.Fatalf("bad quantiles: %+v", d)
	}
	if d.SampleEvery != 1024 {
		t.Fatalf("sample_every=%d", d.SampleEvery)
	}
	// Same name returns the same histogram.
	if r.Histogram("packet_latency") != h {
		t.Fatal("Histogram not idempotent")
	}
}

// TestSamplerBoundsFastForward checks the skip-legality contract: the armed
// sampling event is visible to NextEventAt, so an idle simulator
// fast-forwarding via SkipTo can never jump over a sample.
func TestSamplerBoundsFastForward(t *testing.T) {
	w := sim.NewWheel(4096)
	r := NewRegistry(Config{Enabled: true, SampleEvery: 1024, RingCap: 16}, w)
	r.Gauge("g", func(now sim.Cycle) float64 { return 0 })
	r.Start(0)
	next, ok := w.NextEventAt()
	if !ok || next != 1024 {
		t.Fatalf("NextEventAt=(%d,%v), want (1024,true)", next, ok)
	}
	// Fast-forward to the boundary and fire it, as the simulator core does.
	w.SkipTo(next - 1)
	fireCycle(w, next)
	if r.Samples() != 2 { // baseline + boundary sample
		t.Fatalf("samples=%d after skip to boundary", r.Samples())
	}
	next, ok = w.NextEventAt()
	if !ok || next != 2048 {
		t.Fatalf("sampler not re-armed: NextEventAt=(%d,%v)", next, ok)
	}
}
