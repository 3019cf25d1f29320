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
	nop := w.Register(func(Cycle) {})
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		w.Schedule(now+3, 0, nop)
		fireCycle(w, now)
	}
}

// BenchmarkWheelBeginCycleIdle pins the cost of harvesting one event-free
// cycle — the operation fast-forward exists to avoid.
func BenchmarkWheelBeginCycleIdle(b *testing.B) {
	w := NewWheel(4096)
	// One far event beyond the horizon keeps the far-heap peek honest.
	w.Schedule(Cycle(b.N)+10_000, 0, w.Register(func(Cycle) {}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.BeginCycle(Cycle(i))
	}
}

// BenchmarkWheelBeginCycleMultiKey schedules and harvests one cycle shaped
// like the paper system at the Fig. 5 medium load: 290 events a cycle,
// keyed by an owner in 1–576 (routers and NICs) and a src in 577–1824
// (channels), packed as the network packs them (owner<<11 | src: 11 bits
// hold every src), landing 1–4 cycles ahead on the network's 64-bucket
// wheel. The keys span 21 bits and vary in three bytes, so BeginCycle's
// radix sort makes three passes per cycle.
func BenchmarkWheelBeginCycleMultiKey(b *testing.B) {
	const perCycle, srcBits = 290, 11
	type sched struct {
		key   uint32
		ahead Cycle
	}
	r := NewRNG(1)
	script := make([]sched, 64*perCycle)
	for i := range script {
		owner, src := 1+r.Intn(576), 577+r.Intn(1248)
		script[i] = sched{key: uint32(owner)<<srcBits | uint32(src), ahead: Cycle(1 + r.Intn(4))}
	}
	w := NewWheel(64)
	nop := w.Register(func(Cycle) {})
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		for j := 0; j < perCycle; j++ {
			s := script[next]
			next = (next + 1) % len(script)
			w.Schedule(now+s.ahead, s.key, nop)
		}
		fireCycle(w, now)
	}
}

// BenchmarkWheelNextEventAt measures the bitmap scan on a sparse wheel.
func BenchmarkWheelNextEventAt(b *testing.B) {
	w := NewWheel(4096)
	w.BeginCycle(0)
	w.Schedule(4000, 0, w.Register(func(Cycle) {})) // near the end of the scan
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := w.NextEventAt(); !ok {
			b.Fatal("event lost")
		}
	}
}

func BenchmarkWheelFarEvents(b *testing.B) {
	w := NewWheel(64)
	nop := w.Register(func(Cycle) {})
	for i := 0; i < b.N; i++ {
		now := Cycle(i)
		w.Schedule(now+10_000, 0, nop) // always beyond the horizon
		fireCycle(w, now)
	}
}
