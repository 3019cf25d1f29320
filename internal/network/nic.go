package network

import (
	"repro/internal/router"
	"repro/internal/sim"
)

// PktDesc is a packet a source created, pending its arrival at the NIC or
// queued there awaiting transmission.
type PktDesc struct {
	Created sim.Cycle
	Dst     int32
	Size    int32
}

// descQueue is a growable ring buffer of packet descriptors; the NIC's
// source queue. It is unbounded — source queueing delay is part of the
// paper's latency metric ("from the creation of the first flit of the
// packet till the ejection of its last flit").
type descQueue struct {
	buf  []PktDesc
	head int
	n    int
}

func (q *descQueue) push(d PktDesc) {
	if q.n == len(q.buf) {
		grown := make([]PktDesc, max(16, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)%len(q.buf)]
		}
		q.buf = grown
		q.head = 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = d
	q.n++
}

func (q *descQueue) pop() PktDesc {
	d := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return d
}

// NIC is a processing node's network interface: it segments queued packets
// into flits and streams them over the node's injection link into the
// router's local input port, respecting credit flow control. Its scalars
// and credits are its record st, which is also its checkpoint.
type NIC struct {
	net  *Network
	sh   *shard // owning shard; all NIC state is stepped by it
	node int
	ch   *router.Channel

	// selfKey orders the NIC's wake-up and arrival events.
	selfKey uint32
	st      NICState
	arriveH sim.Handler

	q   descQueue
	cur *router.Packet

	// minVC is the lowest VC injection may claim: with recovery enabled
	// the escape VCs below it are reserved for in-network fallback
	// traffic, so fresh packets enter the network adaptive.
	minVC int

	wakeH sim.Handler
}

func newNIC(net *Network, sh *shard, node int, ch *router.Channel, vcs, bufDepth int) *NIC {
	nc := &NIC{net: net, sh: sh, node: node, ch: ch, st: NICState{Credits: make([]int, vcs)}}
	actor := net.nicActor(node)
	nc.selfKey = net.key(actor, actor)
	for v := range nc.st.Credits {
		nc.st.Credits[v] = bufDepth
	}
	nc.wakeH = sh.Register(func(now sim.Cycle) {
		nc.st.WakePending = false
		if nc.cur != nil || nc.q.n > 0 {
			nc.sh.activateNIC(nc)
		}
	})
	nc.arriveH = sh.Register(nc.arrive)
	return nc
}

// pull asks the traffic source for the packet it creates after cycle
// after and keeps it as the NIC's next arrival.
func (nc *NIC) pull(after sim.Cycle) {
	nc.st.Next = PktDesc{}
	if at, dst, size, ok := nc.net.gen.Next(nc.node, after, nc.net.rngs[nc.node]); ok {
		nc.st.Next = PktDesc{Created: at, Dst: int32(dst), Size: int32(size)}
	}
}

// arrive is the NIC's arrival event: it queues every packet the source has
// created by now (a source may create several in one cycle) and schedules
// the next arrival.
func (nc *NIC) arrive(now sim.Cycle) {
	for nc.st.Next.Size > 0 && nc.st.Next.Created <= now {
		d := nc.st.Next
		nc.q.push(d)
		nc.sh.st.InjectedPkts++
		nc.sh.activateNIC(nc)
		nc.pull(d.Created)
	}
	if nc.st.Next.Size > 0 {
		nc.sh.Schedule(nc.st.Next.Created, nc.selfKey, nc.arriveH)
	}
}

// ReturnCredit implements router.CreditSink: the router freed one slot of
// the injection port's VC buffer.
func (nc *NIC) ReturnCredit(now sim.Cycle, vc int) {
	nc.st.Credits[vc]++
	if nc.cur != nil || nc.q.n > 0 {
		nc.sh.activateNIC(nc)
	}
}

// tryInject attempts to start serialising one flit at cycle now. It
// returns whether the NIC should stay on the active list.
func (nc *NIC) tryInject(now sim.Cycle) bool {
	for nc.cur == nil {
		if nc.q.n == 0 {
			nc.st.Active = false
			return false
		}
		d := nc.q.pop()
		// With recovery enabled, a destination the live-link graph cannot
		// reach is dropped here and counted rather than wedging the NIC.
		if rec := nc.net.rec; rec != nil &&
			!rec.reachable(nc.net.cfg.nodeRouter(nc.node), nc.net.cfg.nodeRouter(int(d.Dst))) {
			nc.sh.st.UnreachableDrops++
			continue
		}
		p := nc.sh.pool.Get()
		nc.st.PktSeq++
		p.ID = int64(nc.node)<<32 | nc.st.PktSeq
		p.Src = nc.node
		p.Dst = int(d.Dst)
		p.DstRouter = nc.net.cfg.nodeRouter(int(d.Dst))
		p.DstLocal = nc.net.cfg.nodeLocal(int(d.Dst))
		p.Len = int(d.Size)
		p.CreatedAt = d.Created
		nc.cur = p
		nc.st.CurSeq = 0
		// Claim the VC with the most credits for the whole packet
		// (wormhole: one VC per packet per hop), never an escape VC.
		best := nc.minVC
		for v := best + 1; v < len(nc.st.Credits); v++ {
			if nc.st.Credits[v] > nc.st.Credits[best] {
				best = v
			}
		}
		nc.st.CurVC = best
	}

	if !nc.ch.Usable(now) {
		nc.st.Active = false
		if !nc.st.WakePending {
			nc.st.WakePending = true
			at := nc.ch.NextUsableAt(now)
			if at <= now {
				at = now + 1
			}
			nc.sh.Schedule(at, nc.selfKey, nc.wakeH)
		}
		return false
	}
	if nc.st.Credits[nc.st.CurVC] == 0 {
		// Out of credits: the router's credit return reactivates us.
		nc.st.Active = false
		return false
	}

	nc.st.Credits[nc.st.CurVC]--
	f := router.FlitRef{Pkt: nc.cur, Seq: nc.st.CurSeq, VC: int8(nc.st.CurVC)}
	nc.ch.Send(now, f)
	nc.st.CurSeq++
	if int(nc.st.CurSeq) == nc.cur.Len {
		nc.cur = nil
	}
	return true
}
