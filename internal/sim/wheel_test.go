package sim

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// fireCycle harvests cycle now and runs its events in canonical order,
// exactly as Network.Step drains the wheel.
func fireCycle(w *Wheel, now Cycle) {
	w.Run(w.BeginCycle(now), now)
}

// TestEntrySize pins a wheel entry at 16 bytes: a 64-bit sequence number,
// a 32-bit key and a 32-bit handle. Every bucket, far-heap slot and sort
// pass moves entries, so a field that widens one shows here first.
func TestEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 16 {
		t.Fatalf("sim.Entry is %d bytes, want 16", got)
	}
}

func TestWheelFiresAtScheduledCycle(t *testing.T) {
	w := NewWheel(16)
	fired := map[Cycle]bool{}
	for _, at := range []Cycle{1, 3, 7, 15} {
		at := at
		w.Schedule(at, 0, w.Register(func(now Cycle) {
			if now != at {
				t.Errorf("event scheduled for %d fired at %d", at, now)
			}
			fired[at] = true
		}))
	}
	for c := Cycle(0); c < 20; c++ {
		fireCycle(w, c)
	}
	if len(fired) != 4 {
		t.Errorf("fired %d events, want 4", len(fired))
	}
	if w.Pending() != 0 {
		t.Errorf("pending = %d after drain", w.Pending())
	}
}

func TestWheelFarFuture(t *testing.T) {
	w := NewWheel(8)
	var got Cycle = -1
	w.Schedule(1000, 0, w.Register(func(now Cycle) { got = now }))
	for c := Cycle(0); c <= 1000; c++ {
		fireCycle(w, c)
	}
	if got != 1000 {
		t.Errorf("far event fired at %d, want 1000", got)
	}
}

func TestWheelPastScheduleOutsideAdvance(t *testing.T) {
	// Between cycles, scheduling at or before the last harvested cycle
	// defers to the next one (those buckets have already run).
	w := NewWheel(8)
	fireCycle(w, 0)
	fireCycle(w, 1)
	var current, past Cycle = -1, -1
	w.Schedule(1, 0, w.Register(func(now Cycle) { current = now }))
	w.Schedule(0, 0, w.Register(func(now Cycle) { past = now }))
	fireCycle(w, 2)
	if current != 2 || past != 2 {
		t.Errorf("current/past schedules fired at %d/%d, want deferral to 2", current, past)
	}
}

func TestWheelHorizonBoundary(t *testing.T) {
	// An event exactly `size` cycles ahead must go to the far heap, not
	// collide with the current bucket.
	w := NewWheel(8)
	fired := Cycle(-1)
	fireCycle(w, 0)
	w.Schedule(8, 0, w.Register(func(now Cycle) { fired = now }))
	fireCycle(w, 0) // same bucket index as 8 — must NOT fire
	if fired != -1 {
		t.Fatal("event for cycle 8 fired at cycle 0 (wheel wrap bug)")
	}
	for c := Cycle(1); c <= 8; c++ {
		fireCycle(w, c)
	}
	if fired != 8 {
		t.Errorf("fired at %d, want 8", fired)
	}
}

func TestWheelBadSizePanics(t *testing.T) {
	for _, size := range []int{0, -4, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWheel(%d) did not panic", size)
				}
			}()
			NewWheel(size)
		}()
	}
}

func TestWheelNextEventAtEmpty(t *testing.T) {
	w := NewWheel(16)
	if at, ok := w.NextEventAt(); ok {
		t.Errorf("empty wheel reported next event at %d", at)
	}
	fireCycle(w, 5)
	if _, ok := w.NextEventAt(); ok {
		t.Error("empty wheel reported a next event after BeginCycle")
	}
}

func TestWheelNextEventAtNear(t *testing.T) {
	w := NewWheel(16)
	nop := w.Register(func(Cycle) {})
	fireCycle(w, 0)
	w.Schedule(7, 0, nop)
	w.Schedule(12, 0, nop)
	if at, ok := w.NextEventAt(); !ok || at != 7 {
		t.Errorf("NextEventAt = %d,%v, want 7,true", at, ok)
	}
	// After the first event fires, the next is 12.
	for c := Cycle(1); c <= 7; c++ {
		fireCycle(w, c)
	}
	if at, ok := w.NextEventAt(); !ok || at != 12 {
		t.Errorf("NextEventAt = %d,%v, want 12,true", at, ok)
	}
}

func TestWheelNextEventAtWrap(t *testing.T) {
	// The occupied bucket index is numerically below the current bucket
	// index: the circular scan must wrap and still find the nearest cycle.
	w := NewWheel(16)
	nop := w.Register(func(Cycle) {})
	for c := Cycle(0); c <= 13; c++ {
		fireCycle(w, c)
	}
	w.Schedule(17, 0, nop) // bucket 1, current bucket 13
	if at, ok := w.NextEventAt(); !ok || at != 17 {
		t.Errorf("NextEventAt = %d,%v, want 17,true", at, ok)
	}
}

func TestWheelNextEventAtFar(t *testing.T) {
	w := NewWheel(16)
	nop := w.Register(func(Cycle) {})
	w.Schedule(1000, 0, nop)
	if at, ok := w.NextEventAt(); !ok || at != 1000 {
		t.Errorf("NextEventAt = %d,%v, want 1000,true (far heap)", at, ok)
	}
	// A nearer bucketed event wins over the far top.
	w.Schedule(9, 0, nop)
	if at, ok := w.NextEventAt(); !ok || at != 9 {
		t.Errorf("NextEventAt = %d,%v, want 9,true", at, ok)
	}
}

func TestWheelSkipToAdvance(t *testing.T) {
	// Skipping over a verified-empty gap then advancing at the next event
	// cycle fires the event exactly as consecutive stepping would.
	w := NewWheel(16)
	fired := Cycle(-1)
	fireCycle(w, 0)
	w.Schedule(9, 0, w.Register(func(now Cycle) { fired = now }))
	at, ok := w.NextEventAt()
	if !ok || at != 9 {
		t.Fatalf("NextEventAt = %d,%v, want 9,true", at, ok)
	}
	w.SkipTo(at - 1)
	fireCycle(w, at)
	if fired != 9 {
		t.Errorf("event fired at %d, want 9", fired)
	}
	// After the skip, deferred past-scheduling still lands at now+1.
	deferred := Cycle(-1)
	w.Schedule(2, 0, w.Register(func(now Cycle) { deferred = now }))
	fireCycle(w, 10)
	if deferred != 10 {
		t.Errorf("past schedule after skip fired at %d, want 10", deferred)
	}
}

// TestWheelSkipEquivalence: advancing only at NextEventAt cycles (skipping
// the gaps) fires every event at the same cycle as consecutive stepping.
func TestWheelSkipEquivalence(t *testing.T) {
	run := func(skip bool) map[int]Cycle {
		r := NewRNG(42)
		w := NewWheel(32)
		got := map[int]Cycle{}
		for i := 0; i < 100; i++ {
			id := i
			at := Cycle(1 + r.Intn(500))
			w.Schedule(at, 0, w.Register(func(fireAt Cycle) { got[id] = fireAt }))
		}
		now := Cycle(0)
		for now < 600 {
			if skip {
				at, ok := w.NextEventAt()
				if !ok || at > 600 {
					break
				}
				w.SkipTo(at - 1)
				now = at
			} else {
				now++
			}
			fireCycle(w, now)
		}
		return got
	}
	stepped, skipped := run(false), run(true)
	if len(stepped) != 100 || len(skipped) != 100 {
		t.Fatalf("fired %d stepped, %d skipped, want 100 each", len(stepped), len(skipped))
	}
	for id, at := range stepped {
		if skipped[id] != at {
			t.Errorf("event %d: stepped fired at %d, skipped at %d", id, at, skipped[id])
		}
	}
}

// TestWheelPropertyAllFire: random schedules all fire exactly once at
// their scheduled cycle.
func TestWheelPropertyAllFire(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		w := NewWheel(32)
		const n = 200
		want := map[int]Cycle{}
		got := map[int]Cycle{}
		now := Cycle(0)
		scheduled := 0
		for scheduled < n {
			// advance a random amount, scheduling random future events
			for k := 0; k < 3 && scheduled < n; k++ {
				id := scheduled
				at := now + 1 + Cycle(r.Intn(100))
				want[id] = at
				w.Schedule(at, 0, w.Register(func(fireAt Cycle) { got[id] = fireAt }))
				scheduled++
			}
			next := now + 1 + Cycle(r.Intn(5))
			for ; now < next; now++ {
				fireCycle(w, now)
			}
		}
		for ; now < 1000; now++ {
			fireCycle(w, now)
		}
		if len(got) != n {
			return false
		}
		for id, at := range want {
			if got[id] != at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestWheelRecurringSamplerBoundsSkips models the telemetry sampler: a
// self-rearming event every 512 cycles. NextEventAt must surface it as the
// skip bound at every point in the cycle — including exactly at the
// boundary — so a fast-forwarding caller can never jump over a sample.
func TestWheelRecurringSamplerBoundsSkips(t *testing.T) {
	const period = 512
	w := NewWheel(4096)
	var fired []Cycle
	var sample Handler
	sample = w.Register(func(now Cycle) {
		fired = append(fired, now)
		w.Schedule(now+period, 0, sample)
	})
	w.Schedule(period, 0, sample)

	now := Cycle(0)
	for len(fired) < 10 {
		next, ok := w.NextEventAt()
		if !ok {
			t.Fatal("recurring sampler vanished from the wheel")
		}
		if want := Cycle(len(fired)+1) * period; next != want {
			t.Fatalf("NextEventAt = %d after %d firings, want %d", next, len(fired), want)
		}
		// Skip to the cycle just before the event — the legal maximum — then
		// advance through the boundary itself.
		if next-1 > now {
			w.SkipTo(next - 1)
		}
		now = next
		fireCycle(w, now)
		if w.Pending() != 1 {
			t.Fatalf("pending = %d after firing, want 1 (the re-armed sampler)", w.Pending())
		}
	}
	for i, at := range fired {
		if want := Cycle(i+1) * period; at != want {
			t.Errorf("sample %d fired at %d, want %d", i, at, want)
		}
	}

	// SkipTo at the boundary minus one must leave the event intact even
	// when the skip lands on the same bucket index modulo wheel size: the
	// next NextEventAt still finds it one cycle ahead.
	next, ok := w.NextEventAt()
	if !ok || next != now+period {
		t.Fatalf("after loop: NextEventAt = %d,%v, want %d", next, ok, now+period)
	}
	w.SkipTo(next - 1)
	if got, ok := w.NextEventAt(); !ok || got != next {
		t.Fatalf("NextEventAt after boundary skip = %d,%v, want %d", got, ok, next)
	}
}

// TestWheelSkipToOntoBarrier skips the clock exactly onto a wrap barrier (a
// multiple of the wheel size) and then steps across it: the skip must leave
// the bucket occupancy intact so events on both sides of the barrier still
// fire on their cycles. This is the sharded engine's idle fast-forward
// landing precisely on a window boundary.
func TestWheelSkipToOntoBarrier(t *testing.T) {
	w := NewWheel(16)
	w.BeginCycle(0)
	fired := map[Cycle]bool{}
	mark := w.Register(func(now Cycle) { fired[now] = true })
	w.Schedule(48, 7, mark) // far heap: 48-0 >= 16
	if at, ok := w.NextEventAt(); !ok || at != 48 {
		t.Fatalf("NextEventAt = %v,%v, want 48,true", at, ok)
	}
	w.SkipTo(32) // exactly a wheel-size multiple, event-free per NextEventAt
	// From the barrier, schedule within the new window and on its last cycle.
	w.Schedule(40, 3, mark)
	for c := Cycle(33); c <= 48; c++ {
		fireCycle(w, c)
	}
	if !fired[40] || !fired[48] {
		t.Errorf("fired = %v, want events at 40 and 48", fired)
	}
	if w.Pending() != 0 {
		t.Errorf("pending = %d after drain", w.Pending())
	}
}

// TestWheelBeginCycleEmpty: harvesting a cycle with zero events must return
// an empty batch and leave the wheel fully usable — the sharded engine hits
// this every idle cycle between policy windows.
func TestWheelBeginCycleEmpty(t *testing.T) {
	w := NewWheel(8)
	w.Schedule(5, 1, w.Register(func(Cycle) {}))
	for c := Cycle(0); c < 5; c++ {
		if batch := w.BeginCycle(c); len(batch) != 0 {
			t.Fatalf("BeginCycle(%d) returned %d entries on an empty cycle", c, len(batch))
		}
		if w.Pending() != 1 {
			t.Fatalf("empty BeginCycle(%d) changed pending to %d", c, w.Pending())
		}
	}
	if batch := w.BeginCycle(5); len(batch) != 1 {
		t.Fatalf("BeginCycle(5) returned %d entries, want 1", len(batch))
	}
	if w.Pending() != 0 {
		t.Errorf("pending = %d after harvest", w.Pending())
	}
}

// TestWheelBeginCycleHorizonEdge pins the bucket/far-heap boundary under
// the harvesting API: from cycle now, now+size-1 is the last bucketed cycle
// and now+size must overflow to the far heap — and BeginCycle must harvest
// both on their exact cycles, in (Key, Seq) order when they collide.
func TestWheelBeginCycleHorizonEdge(t *testing.T) {
	w := NewWheel(8)
	w.BeginCycle(0)
	var gotKeys []uint64
	rec := func(key uint64) Event {
		return func(Cycle) { gotKeys = append(gotKeys, key) }
	}
	w.Schedule(7, 9, w.Register(rec(9))) // last bucketed cycle
	w.Schedule(8, 4, w.Register(rec(4))) // first far-heap cycle
	if len(w.far) != 1 {
		t.Fatalf("far heap holds %d events, want 1 (cycle 8 must overflow the horizon)", len(w.far))
	}
	// A far event maturing on the same cycle as a bucketed one must merge
	// into a single sorted batch.
	w.Schedule(8, 2, w.Register(rec(2)))
	if len(w.far) != 2 {
		t.Fatalf("far heap holds %d events, want 2", len(w.far))
	}
	for c := Cycle(1); c <= 8; c++ {
		batch := w.BeginCycle(c)
		switch c {
		case 7:
			if len(batch) != 1 {
				t.Fatalf("BeginCycle(7) returned %d entries, want 1", len(batch))
			}
		case 8:
			if len(batch) != 2 {
				t.Fatalf("BeginCycle(8) returned %d entries, want 2", len(batch))
			}
			if batch[0].Key != 2 || batch[1].Key != 4 {
				t.Fatalf("BeginCycle(8) keys = [%d %d], want sorted [2 4]", batch[0].Key, batch[1].Key)
			}
		default:
			if len(batch) != 0 {
				t.Fatalf("BeginCycle(%d) returned %d entries, want 0", c, len(batch))
			}
		}
		w.Run(batch, c)
	}
	want := []uint64{9, 2, 4}
	if len(gotKeys) != 3 || gotKeys[0] != want[0] || gotKeys[1] != want[1] || gotKeys[2] != want[2] {
		t.Errorf("fired key order = %v, want %v", gotKeys, want)
	}
}

// TestWheelBeginCycleSameCycleDefers: under the harvesting API a callback
// that schedules for the already-harvested cycle lands on the next one —
// the canonical engine never sees same-cycle insertions.
func TestWheelBeginCycleSameCycleDefers(t *testing.T) {
	w := NewWheel(8)
	var firedAt Cycle = -1
	deferred := w.Register(func(at Cycle) { firedAt = at })
	w.Schedule(3, 1, w.Register(func(now Cycle) {
		w.Schedule(now, 1, deferred)
	}))
	for c := Cycle(0); c <= 4; c++ {
		fireCycle(w, c)
	}
	if firedAt != 4 {
		t.Errorf("same-cycle insertion fired at %d, want deferral to 4", firedAt)
	}
}
