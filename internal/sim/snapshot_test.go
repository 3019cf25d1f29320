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
// key BeginCycle harvested it under, and the ID its closure reports.
type wheelFire struct {
	At  Cycle
	Key uint32
	ID  uint64
}

// drainWheel harvests a wheel cycle by cycle to horizon, as Network.Step
// does, recording every firing in execution order. Each closure reports
// its own ID through *ran, so a handler that runs the wrong closure shows
// up as a mismatch.
func drainWheel(w *Wheel, horizon Cycle, ran *uint64) []wheelFire {
	var out []wheelFire
	for c := w.now + 1; c <= horizon; c++ {
		batch := w.BeginCycle(c)
		for i, e := range batch {
			w.Run(batch[i:i+1], c)
			out = append(out, wheelFire{At: c, Key: e.Key, ID: *ran})
		}
	}
	return out
}

// TestWheelExportRestoreRoundTrip loads a wheel with keyed events on
// distinct handlers spanning near buckets and the far heap, exports
// mid-run, restores into a fresh wheel that registered the same handlers,
// and checks the remaining executions fire in exactly the original
// (Key, Seq) order — the foundation of resume equivalence.
func TestWheelExportRestoreRoundTrip(t *testing.T) {
	var ran uint64
	register := func(w *Wheel) []Handler {
		var hs []Handler
		for _, id := range []uint64{31, 11, 32, 22, 44, 12} {
			hs = append(hs, w.Register(func(Cycle) { ran = id }))
		}
		return hs
	}
	build := func() *Wheel {
		w := NewWheel(64)
		h := register(w)
		// Deliberately interleaved keys and cycles, plus far-heap entries
		// beyond the 64-cycle horizon.
		w.Schedule(5, 3, h[0])
		w.Schedule(5, 1, h[1])
		w.Schedule(5, 3, h[2])
		w.Schedule(9, 2, h[3])
		w.Schedule(200, 4, h[4])
		w.Schedule(450, 1, h[5])
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
	st := w.ExportState()
	if st.Now != 3 || len(st.Entries) != 6 || st.Handlers != 6 {
		t.Fatalf("export: now=%d entries=%d handlers=%d, want 3, 6 and 6", st.Now, len(st.Entries), st.Handlers)
	}

	w2 := NewWheel(64)
	register(w2)
	if err := w2.RestoreState(st); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if w2.Pending() != 6 {
		t.Fatalf("restored pending = %d, want 6", w2.Pending())
	}
	got := drainWheel(w2, 500, &ran)
	if !reflect.DeepEqual(got, refTail) {
		t.Fatalf("restored firing order diverges:\n got %v\nwant %v", got, refTail)
	}
	var keys5 []uint32
	for _, f := range got {
		if f.At == 5 {
			keys5 = append(keys5, f.Key)
		}
	}
	if want := []uint32{1, 3, 3}; !reflect.DeepEqual(keys5, want) {
		t.Fatalf("restored cycle 5 fired keys %v, want %v", keys5, want)
	}

	// Sequence counter must survive so post-restore scheduling keeps the
	// global insertion order.
	if st.Seq == 0 {
		t.Fatal("exported Seq is zero despite six insertions")
	}
}

// TestWheelRestoreValidation: a restored wheel must be strictly monotonic
// (no entry at or before the restored clock), list its entries strictly
// ascending in Seq, hold a handler table of the snapshot's size, and name
// only handlers inside that table.
func TestWheelRestoreValidation(t *testing.T) {
	// Each case edits one field of a valid one-handler snapshot.
	valid := func() WheelState {
		return WheelState{Now: 10, Seq: 5, Handlers: 1, Entries: []WheelEntryState{{At: 11, Key: 1, Seq: 1, H: 1}}}
	}
	restore := func(st WheelState) error {
		w := NewWheel(64)
		w.Register(func(Cycle) {})
		return w.RestoreState(st)
	}
	if err := restore(valid()); err != nil {
		t.Fatalf("restore refused the valid snapshot: %v", err)
	}

	cases := []struct {
		name string
		edit func(st *WheelState)
	}{
		{"entry at the restored clock", func(st *WheelState) { st.Entries[0].At = 10 }},
		{"entry seq beyond the sequence counter", func(st *WheelState) { st.Entries[0].Seq = 6 }},
		{"entries in seq order 3, 2", func(st *WheelState) {
			st.Entries = []WheelEntryState{{At: 11, Key: 1, Seq: 3, H: 1}, {At: 11, Key: 1, Seq: 2, H: 1}}
		}},
		{"entries in seq order 2, 2", func(st *WheelState) {
			st.Entries = []WheelEntryState{{At: 11, Key: 1, Seq: 2, H: 1}, {At: 11, Key: 1, Seq: 2, H: 1}}
		}},
		{"handler table of another size", func(st *WheelState) { st.Handlers = 2 }},
		{"handler 0", func(st *WheelState) { st.Entries[0].H = 0 }},
		{"handler beyond the table", func(st *WheelState) { st.Entries[0].H = 2 }},
	}
	for _, tc := range cases {
		st := valid()
		tc.edit(&st)
		if err := restore(st); err == nil {
			t.Errorf("restore accepted a snapshot with %s", tc.name)
		}
	}
}
