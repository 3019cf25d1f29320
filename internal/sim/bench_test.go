package sim

import "testing"

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Uint64()
	}
}

func BenchmarkRNGFloat64(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		r.Float64()
	}
}

// BenchmarkWheelScheduleBeginCycle: one near event scheduled and one
// harvested per cycle, the engine's lightest steady state.
func BenchmarkWheelScheduleBeginCycle(b *testing.B) {
	w := NewWheel(4096)
	nop := Event(func(Cycle) {})
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		w.Schedule(now+3, 0, 0, nop)
		fireCycle(w, now)
	}
}

// BenchmarkWheelBeginCycleIdle pins the cost of harvesting one event-free
// cycle — the operation fast-forward exists to avoid.
func BenchmarkWheelBeginCycleIdle(b *testing.B) {
	w := NewWheel(4096)
	// One far event beyond the horizon keeps the far-heap peek honest.
	w.Schedule(Cycle(b.N)+10_000, 0, 0, func(Cycle) {})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.BeginCycle(Cycle(i))
	}
}

// BenchmarkWheelBeginCycleMultiKey harvests a busy cycle: 64 entries over
// 16 actor keys, scheduled with the keys interleaved so BeginCycle's
// (Key, Seq) sort has real grouping to do, as on a loaded sharded cycle.
func BenchmarkWheelBeginCycleMultiKey(b *testing.B) {
	const perCycle, keys = 64, 16
	w := NewWheel(4096)
	nop := Event(func(Cycle) {})
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		for j := 0; j < perCycle; j++ {
			w.Schedule(now+1, ActorKey(uint32(1+j%keys), 0), 0, nop)
		}
		fireCycle(w, now)
	}
}

// BenchmarkWheelNextEventAt measures the bitmap scan on a sparse wheel.
func BenchmarkWheelNextEventAt(b *testing.B) {
	w := NewWheel(4096)
	w.BeginCycle(0)
	w.Schedule(4000, 0, 0, func(Cycle) {}) // near the end of the scan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.NextEventAt(); !ok {
			b.Fatal("event lost")
		}
	}
}

func BenchmarkWheelFarEvents(b *testing.B) {
	w := NewWheel(64)
	nop := Event(func(Cycle) {})
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		w.Schedule(now+10_000, 0, 0, nop) // always beyond the horizon
		fireCycle(w, now)
	}
}
