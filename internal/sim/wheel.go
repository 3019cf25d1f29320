package sim

import "math/bits"

// Event is a callback fired at a scheduled cycle. Events must not schedule
// into the past.
type Event func(now Cycle)

// Handler names an Event registered with a wheel (see Wheel.Register): an
// index into the wheel's handler table. A wheel entry holds the handler,
// not the closure, so a checkpoint writes it as it is and a restored wheel
// runs it against the table its rebuilt object graph registered. Handler 0
// is never registered.
type Handler uint32

// Entry is one scheduled event together with its ordering coordinates: an
// ordering key and the global insertion sequence number. BeginCycle returns
// a cycle's entries sorted by (Key, Seq) — the canonical order the sharded
// network engine executes in. The wheel treats a key as an opaque number;
// its layout belongs to the caller (the network packs an owner and a
// producer into it, DESIGN.md §6g), and key 0 is the coordinator band. Seq
// is assigned by Schedule, so it rises with every insertion; BeginCycle
// relies on that to order a cycle's entries by sorting on Key alone.
type Entry struct {
	Seq uint64
	Key uint32
	H   Handler
}

// Wheel is a timing wheel for near-future events with a heap overflow for
// far-future ones. Almost all simulator events (flit arrivals, channel
// free, credit returns) land within a few cycles; the wheel makes those
// O(1). Waits beyond the wheel's horizon (retransmit watchdogs, telemetry
// samplers, failure windows) spill into the heap.
//
// A per-bucket occupancy bitmap (one bit per bucket) makes NextEventAt a
// few word scans, which is what lets the surrounding simulator fast-forward
// over idle gaps instead of advancing cycle by cycle.
//
// BeginCycle is the one drain: it hands a cycle's events back sorted by
// (Key, Seq) — a total order that is independent of how many shards
// produced them, as long as every key has a single deterministic producer.
// The caller runs them with Run; see DESIGN.md §6g.
//
// The drain needs no comparison sort because a cycle's harvest is already
// in Seq order: a bucket receives its entries in Schedule order, which is
// Seq order (RestoreState re-inserts in ExportState's Seq order and rejects
// any other); the far heap pops by (at, Seq); and an entry placed in the
// far heap for cycle T was placed at least a horizon before T, so before,
// and with a smaller Seq than, every entry placed in T's bucket. A stable
// sort on Key alone therefore yields (Key, Seq).
type Wheel struct {
	buckets [][]Entry
	//optolint:derived occupancy bitmap, rebuilt by the restore path's re-inserts
	occ     []uint64 // bit b set iff buckets[b] is non-empty
	mask    Cycle
	now     Cycle
	horizon Cycle
	far     farHeap
	pending int
	seq     uint64
	//optolint:derived BeginCycle scratch, reused across cycles
	run []Entry // BeginCycle scratch, reused across cycles
	//optolint:derived BeginCycle radix-sort scratch, reused across cycles
	spare []Entry

	// handlers is the handler table, indexed by Handler; slot 0 stays
	// empty. Its owners register every event at construction, in an order
	// fixed by their configuration, so a freshly built restore target holds
	// the same table.
	handlers []Event
}

// NewWheel returns a wheel with the given power-of-two bucket count. Its
// clock, the last harvested cycle, starts at -1: nothing has run yet, so an
// event may be scheduled for cycle 0.
func NewWheel(size int) *Wheel {
	if size <= 0 || size&(size-1) != 0 {
		panic("sim: wheel size must be a positive power of two")
	}
	return &Wheel{
		buckets:  make([][]Entry, size),
		occ:      make([]uint64, (size+63)/64),
		mask:     Cycle(size - 1),
		now:      -1,
		horizon:  Cycle(size),
		handlers: make([]Event, 1),
	}
}

// Register appends ev to the wheel's handler table and returns its handle.
// Owners register at construction, never while the wheel runs: the table
// is read without synchronisation by every shard's window.
func (w *Wheel) Register(ev Event) Handler {
	w.handlers = append(w.handlers, ev)
	return Handler(len(w.handlers) - 1)
}

// Reserve sizes the handler table for n registrations in all, so a build
// that knows its count up front never regrows it.
func (w *Wheel) Reserve(n int) {
	if cap(w.handlers) < n+1 {
		w.handlers = append(make([]Event, 0, n+1), w.handlers...)
	}
}

// Run runs harvested entries in order at cycle now. It looks up each
// entry's handler before running the previous one: the table read is a
// likely cache miss, and issued this way it overlaps the previous event
// instead of stalling the next call.
func (w *Wheel) Run(entries []Entry, now Cycle) {
	if len(entries) == 0 {
		return
	}
	evs := w.handlers
	next := evs[entries[0].H]
	for _, e := range entries[1:] {
		ev := next
		next = evs[e.H]
		ev(now)
	}
	next(now)
}

// Schedule enqueues handler h to fire at cycle at under ordering key key
// (0 is the coordinator band; see Entry). The sequence number is
// assigned here, so a cycle's canonical (Key, Seq) order is fixed by the
// order Schedule calls reach the wheel — which the sharded engine makes
// deterministic by replaying staged schedules in shard order. A request for
// the current cycle or earlier, which BeginCycle has already harvested, is
// deferred to the next cycle.
func (w *Wheel) Schedule(at Cycle, key uint32, h Handler) {
	w.seq++
	w.insert(max(at, w.now+1), Entry{Key: key, Seq: w.seq, H: h})
}

// insert places e at cycle at: into its bucket within the horizon, into
// the far heap beyond it.
func (w *Wheel) insert(at Cycle, e Entry) {
	w.pending++
	if at-w.now >= w.horizon {
		w.far.push(farEvent{at: at, Entry: e})
		return
	}
	idx := at & w.mask
	w.buckets[idx] = append(w.buckets[idx], e)
	w.occ[idx>>6] |= 1 << (uint(idx) & 63)
}

// BeginCycle removes every event scheduled for cycle now — matured far-heap
// events included — and returns them sorted by (Key, Seq): key-0
// coordinator events first, then each actor's events in insertion order.
// The caller owns running them (see Run); the returned slice is valid
// until the next BeginCycle. Callbacks that schedule for the current
// cycle are deferred to the next one (the bucket has already been
// harvested), so the engine never sees same-cycle insertions. Cycles must
// be presented in increasing order; gaps are allowed only when every
// skipped cycle is event-free (see NextEventAt and SkipTo).
//
// The harvest comes out in Seq order (see Wheel), so a stable sort on Key
// (see sortRunByKey) puts it in (Key, Seq) order without comparing Seqs.
func (w *Wheel) BeginCycle(now Cycle) []Entry {
	if Debug {
		Assertf(now >= w.now, "wheel: BeginCycle(%d) moves the clock backwards from %d", now, w.now)
		if next, ok := w.NextEventAt(); ok {
			Assertf(next >= now, "wheel: BeginCycle(%d) would skip over the event scheduled at %d", now, next)
		}
	}
	w.now = now
	w.run = w.run[:0]
	for len(w.far) > 0 && w.far[0].at <= now {
		w.pending--
		w.run = append(w.run, w.far.pop().Entry)
	}
	idx := now & w.mask
	b := w.buckets[idx]
	if len(b) > 0 {
		w.run = append(w.run, b...)
		w.pending -= len(b)
		w.buckets[idx] = b[:0]
		w.occ[idx>>6] &^= 1 << (uint(idx) & 63)
	}
	if Debug {
		for i := 1; i < len(w.run); i++ {
			Assertf(w.run[i-1].Seq < w.run[i].Seq, "wheel: cycle %d harvested seq %d before seq %d", now, w.run[i-1].Seq, w.run[i].Seq)
		}
	}
	if len(w.run) > 1 {
		w.sortRunByKey()
	}
	return w.run
}

// smallRun is the run length below which sortRunByKey uses an insertion
// sort: each radix pass has a fixed cost, clearing and summing 256
// counters, that a few dozen entries do not repay (a two-entry run took
// ~1 µs by radix and ~10 ns by insertion on a 2.1 GHz Xeon).
const smallRun = 32

// sortRunByKey stably sorts w.run by Key, so each key's entries keep their
// harvest (Seq) order. Short runs — small meshes, light load — are
// insertion-sorted. Longer ones take an LSD radix sort: one counting pass
// per key byte, skipping the bytes every key shares (the bits set in
// OR ^ AND of the run's keys), ping-ponging between w.run and w.spare.
func (w *Wheel) sortRunByKey() {
	src := w.run
	if len(src) < smallRun {
		for i := 1; i < len(src); i++ {
			e, j := src[i], i
			for ; j > 0 && src[j-1].Key > e.Key; j-- {
				src[j] = src[j-1]
			}
			src[j] = e
		}
		return
	}
	or, and := uint32(0), ^uint32(0)
	for i := range src {
		or |= src[i].Key
		and &= src[i].Key
	}
	varying := or ^ and
	if varying == 0 {
		return
	}
	if cap(w.spare) < len(src) {
		w.spare = make([]Entry, len(src), cap(src))
	}
	dst := w.spare[:len(src)]
	for shift := uint(0); varying>>shift != 0; shift += 8 {
		if byte(varying>>shift) == 0 {
			continue
		}
		var offset [256]int32
		for i := range src {
			offset[byte(src[i].Key>>shift)]++
		}
		var sum int32
		for d, c := range offset {
			offset[d] = sum
			sum += c
		}
		for i := range src {
			d := byte(src[i].Key >> shift)
			dst[offset[d]] = src[i]
			offset[d]++
		}
		src, dst = dst, src
	}
	w.run, w.spare = src, dst
}

// SkipTo declares every cycle in (w.now, now] event-free and jumps the
// wheel's clock to now without touching the skipped buckets. The caller
// must have verified — via NextEventAt — that no event is scheduled at or
// before now; skipping past a scheduled event corrupts the wheel. No-op
// when now <= w.now.
func (w *Wheel) SkipTo(now Cycle) {
	if now > w.now {
		if Debug {
			if next, ok := w.NextEventAt(); ok {
				Assertf(next > now, "wheel: SkipTo(%d) would skip over the event scheduled at %d", now, next)
			}
		}
		w.now = now
	}
}

// NextEventAt returns the earliest cycle with a scheduled event and true,
// or false when the wheel is empty. It scans the occupancy bitmap (one bit
// per bucket, size/64 words) and peeks the far heap's top, so an idle
// simulator can find its next wake-up in a handful of word operations.
func (w *Wheel) NextEventAt() (Cycle, bool) {
	next, found := w.nextNear()
	if len(w.far) > 0 && (!found || w.far[0].at < next) {
		next, found = w.far[0].at, true
	}
	return next, found
}

// nextNear locates the earliest occupied bucket in circular order starting
// just after the current cycle. All bucketed events live in
// (w.now, w.now+horizon), so the first set bit along that arc is the
// nearest event.
func (w *Wheel) nextNear() (Cycle, bool) {
	start := int((w.now + 1) & w.mask)
	sw, sb := start>>6, uint(start&63)
	// Bits at or after start within the first word.
	if word := w.occ[sw] &^ (1<<sb - 1); word != 0 {
		return w.cycleFor(sw<<6 + bits.TrailingZeros64(word)), true
	}
	// Whole words along the arc.
	for j := 1; j < len(w.occ); j++ {
		wi := (sw + j) % len(w.occ)
		if word := w.occ[wi]; word != 0 {
			return w.cycleFor(wi<<6 + bits.TrailingZeros64(word)), true
		}
	}
	// Wrap-around: bits before start within the first word.
	if word := w.occ[sw] & (1<<sb - 1); word != 0 {
		return w.cycleFor(sw<<6 + bits.TrailingZeros64(word)), true
	}
	return 0, false
}

// cycleFor maps an occupied bucket index back to the absolute cycle it
// holds events for.
func (w *Wheel) cycleFor(idx int) Cycle {
	size := int(w.mask) + 1
	d := (idx - int((w.now+1)&w.mask) + size) % size
	return w.now + 1 + Cycle(d)
}

// Pending returns the number of scheduled events not yet fired. A drained
// wheel with idle traffic sources means the simulation has quiesced.
func (w *Wheel) Pending() int { return w.pending }

type farEvent struct {
	at Cycle
	Entry
}

// farHeap is a binary min-heap of far events ordered by (at, Seq). It is
// typed rather than built on container/heap, whose interface{} boxing
// allocates on every push and pop.
type farHeap []farEvent

func (h farHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].Seq < h[j].Seq
}

func (h *farHeap) push(fe farEvent) {
	*h = append(*h, fe)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s.less(i, p) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the earliest event; the heap must be non-empty.
func (h *farHeap) pop() farEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && s.less(r, m) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*h = s
	return top
}
