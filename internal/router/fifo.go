package router

import "repro/internal/shardrun"

// A channel keeps its in-flight flits in two FIFOs: pending, the flits on
// the wire awaiting their delivery event, and a reliable channel's rx
// pipeline register. Each stores its slots in a fixed array inline in its
// owner and is driven with plain loads and stores, which is all a FIFO
// needs when its producer and consumer run in one shard: a shard's window
// runs on one goroutine, and the pool's barrier orders one window before
// the next. Only a FIFO whose producer and consumer run in different
// shards (see Channel.CrossShards) publishes through a shardrun.Ring, the
// SPSC ring whose atomic cursors let the two shards' windows overlap
// (DESIGN.md §6g).

const (
	// pendingCap bounds pending: sub-cycle serialisation lets a new flit
	// start while the previous one's delivery is still due, so at most two
	// are in flight.
	pendingCap = 4
	// rxCap bounds the rx register, which holds each accepted flit for the
	// one cycle before its accept event.
	rxCap = 8
)

// cursor is the head/tail pair of an inline ring of a power-of-two size.
// Overflow and underflow panic: both are scheduling bugs, not load.
type cursor struct {
	//optolint:derived ring position: a checkpoint holds the queued flits, and restore's re-push rebuilds it
	head uint32
	//optolint:derived ring position: a checkpoint holds the queued flits, and restore's re-push rebuilds it
	tail uint32
}

// push claims the slot for a new element.
func (c *cursor) push(size uint32) uint32 {
	if c.tail-c.head == size {
		panic("router: flit FIFO overflow")
	}
	c.tail++
	return (c.tail - 1) & (size - 1)
}

// pop releases the slot of the oldest element.
func (c *cursor) pop(size uint32) uint32 {
	if c.head == c.tail {
		panic("router: flit FIFO underflow")
	}
	c.head++
	return (c.head - 1) & (size - 1)
}

func (c *cursor) len() int { return int(c.tail - c.head) }

// pendingFIFO is a channel's wire: transmitted flits awaiting delivery.
// push and pop serve either kind of FIFO. Every flit hop pushes and pops
// one, so transmit and the delivery event test cross themselves and call
// pushLocal and popLocal, which compile inline; the ring call in push and
// pop keeps those two from inlining, and calling them on every hop made
// BenchmarkStepMedium 2–3 % slower in interleaved runs on a 2-core host.
type pendingFIFO struct {
	slots [pendingCap]txFlit
	at    cursor
	cross *shardrun.Ring[txFlit] // non-nil iff the FIFO crosses shards
}

func (q *pendingFIFO) pushLocal(tf txFlit) { q.slots[q.at.push(pendingCap)] = tf }

func (q *pendingFIFO) popLocal() txFlit { return q.slots[q.at.pop(pendingCap)] }

func (q *pendingFIFO) push(tf txFlit) {
	if q.cross != nil {
		q.cross.Push(tf)
		return
	}
	q.pushLocal(tf)
}

func (q *pendingFIFO) pop() txFlit {
	if q.cross != nil {
		return q.cross.Pop()
	}
	return q.popLocal()
}

func (q *pendingFIFO) len() int {
	if q.cross != nil {
		return q.cross.Len()
	}
	return q.at.len()
}

// each calls fn on every queued flit, oldest first, and leaves the FIFO as
// it found it (a ring has no iterator, so it is drained and refilled).
func (q *pendingFIFO) each(fn func(txFlit)) {
	for n := q.len(); n > 0; n-- {
		tf := q.pop()
		fn(tf)
		q.push(tf)
	}
}

// rxFIFO is a reliable channel's rx pipeline register.
type rxFIFO struct {
	slots [rxCap]FlitRef
	at    cursor
	cross *shardrun.Ring[FlitRef] // non-nil iff the FIFO crosses shards
}

func (q *rxFIFO) push(f FlitRef) {
	if q.cross != nil {
		q.cross.Push(f)
		return
	}
	q.slots[q.at.push(rxCap)] = f
}

func (q *rxFIFO) pop() FlitRef {
	if q.cross != nil {
		return q.cross.Pop()
	}
	return q.slots[q.at.pop(rxCap)]
}

func (q *rxFIFO) len() int {
	if q.cross != nil {
		return q.cross.Len()
	}
	return q.at.len()
}

// each calls fn on every queued flit, oldest first, and leaves the FIFO as
// it found it.
func (q *rxFIFO) each(fn func(FlitRef)) {
	for n := q.len(); n > 0; n-- {
		f := q.pop()
		fn(f)
		q.push(f)
	}
}
