package sim

import (
	"reflect"
	"testing"
)

// TestRNGStateRoundTrip is the checkpoint contract for the generator: the
// draw sequence after SetState(State()) is identical to the sequence
// without the round trip, at any point in the stream and for forked
// sub-streams.
func TestRNGStateRoundTrip(t *testing.T) {
	r := NewStream(42, StreamTraffic)
	for i := 0; i < 17; i++ {
		r.Uint64()
	}
	st := r.State()

	var want []uint64
	for i := 0; i < 8; i++ {
		want = append(want, r.Uint64())
	}
	wantF := r.Float64()
	fork := r.Fork()
	wantFork := fork.Uint64()

	r.SetState(st)
	for i, w := range want {
		if got := r.Uint64(); got != w {
			t.Fatalf("draw %d after round trip = %#x, want %#x", i, got, w)
		}
	}
	if got := r.Float64(); got != wantF {
		t.Errorf("Float64 after round trip = %v, want %v", got, wantF)
	}
	if got := r.Fork().Uint64(); got != wantFork {
		t.Errorf("forked draw after round trip diverges")
	}
}

// TestRNGSetStateNormalizesZero checks the xorshift128+ fixed point: the
// all-zero state would make every future draw zero, so SetState must map
// it to a usable state deterministically.
func TestRNGSetStateNormalizesZero(t *testing.T) {
	a := NewStream(1, StreamTraffic)
	b := NewStream(2, StreamTraffic)
	a.SetState(RNGState{})
	b.SetState(RNGState{})
	got := []uint64{a.Uint64(), a.Uint64(), a.Uint64()}
	want := []uint64{b.Uint64(), b.Uint64(), b.Uint64()}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-state normalization not deterministic: %v vs %v", got, want)
	}
	if got[0] == 0 && got[1] == 0 && got[2] == 0 {
		t.Fatal("zero state restored verbatim: generator is stuck at zero")
	}
}

// wheelFire records one handler firing for order comparison: the cycle and
// key BeginCycle harvested it under, and the handler ID its closure reports.
type wheelFire struct {
	At  Cycle
	Key uint64
	ID  uint64
}

// drainWheel harvests a wheel cycle by cycle to horizon, as Network.Step
// does, recording every firing in execution order. Each closure reports
// its own handler ID through *ran, so an ID resolved to the wrong closure
// shows up as a mismatch.
func drainWheel(w *Wheel, horizon Cycle, ran *uint64) []wheelFire {
	var out []wheelFire
	for c := w.now + 1; c <= horizon; c++ {
		for _, e := range w.BeginCycle(c) {
			e.Ev(c)
			out = append(out, wheelFire{At: c, Key: e.Key, ID: *ran})
		}
	}
	return out
}

// TestWheelExportRestoreRoundTrip loads a wheel with keyed, identified
// events spanning near buckets and the far heap, exports mid-run, restores
// into a fresh wheel, and checks the remaining executions fire in exactly
// the original (Key, Seq) order — the foundation of resume equivalence.
func TestWheelExportRestoreRoundTrip(t *testing.T) {
	var ran uint64
	mk := func(id uint64) Event {
		return func(Cycle) { ran = id }
	}
	build := func() *Wheel {
		w := NewWheel(64)
		// Deliberately interleaved keys and cycles, plus far-heap entries
		// beyond the 64-cycle horizon.
		w.Schedule(5, 3, HandlerID(1, 3, 0), mk(HandlerID(1, 3, 0)))
		w.Schedule(5, 1, HandlerID(1, 1, 0), mk(HandlerID(1, 1, 0)))
		w.Schedule(5, 3, HandlerID(2, 3, 1), mk(HandlerID(2, 3, 1)))
		w.Schedule(9, 2, HandlerID(3, 2, 0), mk(HandlerID(3, 2, 0)))
		w.Schedule(200, 4, HandlerID(4, 4, 0), mk(HandlerID(4, 4, 0)))
		w.Schedule(450, 1, HandlerID(5, 1, 2), mk(HandlerID(5, 1, 2)))
		return w
	}

	// Reference: run to completion without interruption.
	ref := build()
	for c := Cycle(1); c <= 3; c++ {
		fireCycle(ref, c)
	}
	refTail := drainWheel(ref, 500, &ran)

	// Round trip at cycle 3 (before anything fired).
	w := build()
	for c := Cycle(1); c <= 3; c++ {
		fireCycle(w, c)
	}
	st, err := w.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if st.Now != 3 || len(st.Entries) != 6 {
		t.Fatalf("export: now=%d entries=%d, want 3 and 6", st.Now, len(st.Entries))
	}

	w2 := NewWheel(64)
	resolve := func(id uint64) (Event, bool) { return mk(id), true }
	if err := w2.RestoreState(st, resolve); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if w2.Pending() != 6 {
		t.Fatalf("restored pending = %d, want 6", w2.Pending())
	}
	got := drainWheel(w2, 500, &ran)
	if !reflect.DeepEqual(got, refTail) {
		t.Fatalf("restored firing order diverges:\n got %v\nwant %v", got, refTail)
	}
	var keys5 []uint64
	for _, f := range got {
		if f.At == 5 {
			keys5 = append(keys5, f.Key)
		}
	}
	if want := []uint64{1, 3, 3}; !reflect.DeepEqual(keys5, want) {
		t.Fatalf("restored cycle 5 fired keys %v, want %v", keys5, want)
	}

	// Sequence counter must survive so post-restore scheduling keeps the
	// global insertion order.
	if st.Seq == 0 {
		t.Fatal("exported Seq is zero despite six insertions")
	}
}

// TestWheelExportRejectsAnonymousEvents: events scheduled without a handler
// ID cannot be reconstructed by a resolver, so export must fail loudly
// rather than silently dropping them.
func TestWheelExportRejectsAnonymousEvents(t *testing.T) {
	w := NewWheel(64)
	w.Schedule(5, 1, 0, func(Cycle) {})
	if _, err := w.ExportState(); err == nil {
		t.Fatal("export of an id-less near event succeeded")
	}
	w2 := NewWheel(64)
	w2.Schedule(500, 0, 0, func(Cycle) {}) // far heap path
	if _, err := w2.ExportState(); err == nil {
		t.Fatal("export of an id-less far event succeeded")
	}
}

// TestWheelRestoreValidation: a restored wheel must be strictly monotonic
// (no entry at or before the restored clock), list its entries strictly
// ascending in Seq, and be fully resolvable.
func TestWheelRestoreValidation(t *testing.T) {
	ev := func(Cycle) {}
	resolve := func(uint64) (Event, bool) { return ev, true }

	w := NewWheel(64)
	stale := WheelState{Now: 10, Seq: 5, Entries: []WheelEntryState{{At: 10, Key: 1, Seq: 1, ID: 7}}}
	if err := w.RestoreState(stale, resolve); err == nil {
		t.Fatal("restore accepted an entry at the restored clock")
	}

	w = NewWheel(64)
	unseq := WheelState{Now: 10, Seq: 5, Entries: []WheelEntryState{{At: 11, Key: 1, Seq: 6, ID: 7}}}
	if err := w.RestoreState(unseq, resolve); err == nil {
		t.Fatal("restore accepted an entry seq beyond the sequence counter")
	}

	for _, seqs := range [][2]uint64{{3, 2}, {2, 2}} {
		w = NewWheel(64)
		unordered := WheelState{Now: 10, Seq: 5, Entries: []WheelEntryState{
			{At: 11, Key: 1, Seq: seqs[0], ID: 7},
			{At: 11, Key: 1, Seq: seqs[1], ID: 7},
		}}
		if err := w.RestoreState(unordered, resolve); err == nil {
			t.Fatalf("restore accepted entries in seq order %v", seqs)
		}
	}

	w = NewWheel(64)
	orphan := WheelState{Now: 10, Seq: 5, Entries: []WheelEntryState{{At: 11, Key: 1, Seq: 1, ID: 7}}}
	noResolve := func(uint64) (Event, bool) { return nil, false }
	if err := w.RestoreState(orphan, noResolve); err == nil {
		t.Fatal("restore accepted an unresolvable handler id")
	}
}

// TestHandlerIDPacking pins the descriptor encoding: kind, object, and
// parameter round-trip through the packed word for the full field ranges.
func TestHandlerIDPacking(t *testing.T) {
	for _, tc := range []struct {
		kind  uint8
		obj   uint32
		param uint16
	}{
		{1, 0, 0},
		{HTelemMarker, 1<<32 - 1, 1<<16 - 1},
		{7, 123_456, 42},
	} {
		id := HandlerID(tc.kind, tc.obj, tc.param)
		if id == 0 {
			t.Fatalf("HandlerID(%v) = 0, the reserved non-snapshotable value", tc)
		}
		if HandlerKind(id) != tc.kind || HandlerObj(id) != tc.obj || HandlerParam(id) != tc.param {
			t.Errorf("HandlerID(%d,%d,%d) unpacked to (%d,%d,%d)",
				tc.kind, tc.obj, tc.param, HandlerKind(id), HandlerObj(id), HandlerParam(id))
		}
	}
}
