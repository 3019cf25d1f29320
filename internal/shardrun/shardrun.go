// Package shardrun is the sanctioned concurrency substrate of the sharded
// simulation core (DESIGN.md §6g). It is the ONLY sim-core package allowed
// to start goroutines (optolint's determinism rule carries an explicit
// allowlist for it), and it provides exactly two primitives:
//
//   - Pool: a fixed set of persistent workers that execute one task per
//     shard and barrier before returning. Determinism survives because the
//     barrier is total — Run returns only after every task has finished —
//     and because tasks touch pairwise-disjoint state; the OS scheduler's
//     interleaving is therefore unobservable.
//   - Ring: a single-producer/single-consumer ring buffer for the
//     boundary crossings, and only those: a channel FIFO whose producer
//     and consumer run in different shards (a mesh channel between two
//     shards' columns), where one shard writes during a window and the
//     other reads in a later window or event. Every other channel FIFO is
//     a plain inline ring in internal/router, so a single-shard run makes
//     no atomic operation per flit.
//
// Neither primitive consults time, randomness, or iteration order of maps,
// keeping the package inside the determinism envelope.
package shardrun

import (
	"sync"
	"sync/atomic"
)

// Pool runs batches of tasks on persistent worker goroutines. Workers block
// on a channel receive between batches — no spinning — so an idle pool
// costs nothing but memory.
type Pool struct {
	tasks chan func()
	// wg is the batch barrier. Run never runs concurrently with itself, so
	// one WaitGroup serves every batch; a per-call one would escape to the
	// heap through the task channel and cost an allocation per Run.
	wg     sync.WaitGroup
	closed bool
}

// NewPool starts n persistent workers. n must be >= 1; callers that want a
// degenerate single-shard run should skip the pool entirely and execute
// inline.
func NewPool(n int) *Pool {
	if n < 1 {
		panic("shardrun: pool needs at least one worker")
	}
	p := &Pool{tasks: make(chan func())}
	for i := 0; i < n; i++ {
		go func() {
			for f := range p.tasks {
				f()
				p.wg.Done()
			}
		}()
	}
	return p
}

// Run executes every task and returns once all have completed (a full
// barrier). The first task runs inline on the caller — with K shards and
// K-1 workers every shard gets a thread, and on a single-core host the
// inline task avoids one context switch per cycle. Calls must not overlap.
func (p *Pool) Run(tasks []func()) {
	switch len(tasks) {
	case 0:
		return
	case 1:
		tasks[0]()
		return
	}
	p.wg.Add(len(tasks) - 1)
	for _, f := range tasks[1:] {
		p.tasks <- f
	}
	tasks[0]()
	p.wg.Wait()
}

// Close terminates the workers. The pool must be idle (no Run in flight);
// Run must not be called after Close. Idempotent.
func (p *Pool) Close() {
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
}

// Ring is a fixed-capacity single-producer/single-consumer ring buffer.
// Exactly one goroutine may Push and one may Pop concurrently; head and
// tail are separate atomics so the two sides never write the same word
// (the failure mode of a naive shared-count ring under sharding). Overflow
// and underflow panic: in the simulator both indicate a scheduling bug, not
// a load condition, and must not be absorbed silently.
type Ring[T any] struct {
	buf  []T
	mask uint64
	head atomic.Uint64 // next slot to Pop (consumer-owned)
	tail atomic.Uint64 // next slot to Push (producer-owned)
}

// NewRing returns a ring holding at least capacity elements (rounded up to
// a power of two).
func NewRing[T any](capacity int) *Ring[T] {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Ring[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// Push appends v; panics when the ring is full.
func (r *Ring[T]) Push(v T) {
	t := r.tail.Load()
	if t-r.head.Load() == uint64(len(r.buf)) {
		panic("shardrun: ring overflow")
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
}

// Pop removes and returns the oldest element; panics when the ring is
// empty.
func (r *Ring[T]) Pop() T {
	h := r.head.Load()
	if h == r.tail.Load() {
		panic("shardrun: ring underflow")
	}
	v := r.buf[h&r.mask]
	var zero T
	r.buf[h&r.mask] = zero // drop references for the GC
	r.head.Store(h + 1)
	return v
}

// Len returns the number of buffered elements. Only consistent when called
// from one of the two endpoint goroutines or under an external barrier.
func (r *Ring[T]) Len() int { return int(r.tail.Load() - r.head.Load()) }
