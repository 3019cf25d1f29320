package network

import (
	"math/bits"

	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The sharded simulation core (DESIGN.md §6g). The mesh is partitioned into
// K contiguous column tiles; every router, NIC, and node link belongs to
// exactly one shard, and only E/W mesh links cross shard boundaries. All
// timing constants give a one-cycle conservative lookahead (the earliest a
// cycle-t action can affect any other actor is t+1), so each cycle is one
// parallel region: the coordinator pulls the cycle's events from the global
// keyed wheel in canonical (Key, Seq) order, hands each shard its
// contiguous slice, and the shards run events + NIC and output phases over
// disjoint state. Side effects that cross shards — wheel schedules,
// down-notifications, telemetry, deliveries — are staged in per-shard
// spools and drained by the coordinator after the join, in orders that are
// provably independent of K (fixed shard order for canonically ordered
// spools, an explicit sort by link id for the rest).

// stagedEv is one wheel schedule requested during a shard's window,
// replayed against the global wheel at the cycle barrier.
type stagedEv struct {
	at  sim.Cycle
	key uint32
	h   sim.Handler
}

// downNote records a watchdog escalation: link li is down until `until`.
type downNote struct {
	link  int
	until sim.Cycle
}

// deliveredPkt defers the OnDeliver hook (and the pool recycle behind it)
// to the coordinator, preserving the hook's single-threaded contract.
type deliveredPkt struct {
	p   *router.Packet
	lat sim.Cycle
}

// shard owns one column tile of the mesh: its routers, NICs, node links,
// and every outbound mesh channel. It implements router.Scheduler for them.
// All fields are touched only by the shard's own window (between barriers)
// or by the coordinator (outside the parallel region); the two never
// overlap, so no field needs atomics.
type shard struct {
	n   *Network
	idx int

	// entries is this shard's slice of the cycle's canonical event order,
	// assigned by the coordinator before the region.
	//optolint:derived transient: assigned and consumed within one Step, nil at the boundary
	entries []sim.Entry

	// staged collects wheel schedules; the coordinator replays them in
	// shard order, which — because every ordering key is produced by one
	// shard, in a window-position order that K cannot change — assigns
	// sequence numbers in a K-invariant order per key.
	//optolint:derived drained every cycle; ExportState refuses undrained spools, so it is empty at the boundary
	staged []stagedEv

	activeOuts []*router.Output
	activeNICs []*NIC
	//optolint:derived work-list swap scratch, holds no state across cycles
	spareOuts []*router.Output // second buffer for the work-list swap
	//optolint:derived work-list swap scratch, holds no state across cycles
	spareNICs []*NIC

	pool router.Pool // per-shard free list: packets are freed where they die

	// st is the shard's measurement record, merged by Network.totals.
	st Counters

	// wantScan notes that something activated this window; the coordinator
	// aggregates it into one watchdog-scan arming decision per cycle.
	//optolint:derived consumed by the coordinator every cycle, always false at the boundary
	wantScan bool

	// Spools drained by the coordinator at the end of the cycle. All four
	// are empty at every step boundary — ExportState refuses undrained
	// spools — so restore has nothing to rebuild.
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	flightMailbox []telemetry.Event // flight-recorder events, sorted by link on drain
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	downMailbox []downNote // escalated link resets, sorted by link on drain
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	latVals []sim.Cycle // measured latencies for the telemetry histogram
	//optolint:derived drained every cycle; empty at the boundary (ExportState enforces it)
	deliveries []deliveredPkt // packets awaiting the OnDeliver hook
}

// Register implements router.Sched: every handler lives in the network
// wheel's table. Called only during construction, never inside a window.
func (s *shard) Register(ev sim.Event) sim.Handler { return s.n.wheel.Register(ev) }

// Schedule implements router.Sched: stage the request for the barrier.
func (s *shard) Schedule(at sim.Cycle, key uint32, h sim.Handler) {
	if sim.Debug {
		sim.Assertf(key != 0, "shard %d: scheduling into the coordinator band (key 0)", s.idx)
		// Determinism requires each ordering key to be *produced* by exactly
		// one shard — identified by the key's src field, not its owner. The
		// owner (the actor whose window runs the event) is legitimately on
		// another shard: a boundary channel's delivery key is owned by the
		// downstream router but staged by the upstream shard driving the
		// channel, and a credit-return key is owned by the upstream router
		// but staged by the downstream one.
		src := key & (1<<s.n.srcBits - 1)
		base := s.n.chanSrc(0)
		if src >= base {
			li := int(src - base)
			sim.Assertf(li < len(s.n.chanOwner) && s.n.chanOwner[li] == s,
				"shard %d: scheduling key %#x produced by link %d's owning shard", s.idx, key, li)
		} else {
			sim.Assertf(s.n.shardOfActor(src) == s.idx,
				"shard %d: scheduling key %#x produced by shard %d", s.idx, key, s.n.shardOfActor(src))
		}
	}
	s.staged = append(s.staged, stagedEv{at: at, key: key, h: h})
}

// ActivateOutput implements router.Scheduler.
func (s *shard) ActivateOutput(o *router.Output) {
	if !o.Active() {
		o.SetActive(true)
		s.activeOuts = append(s.activeOuts, o)
	}
	if s.n.rec != nil {
		s.wantScan = true
	}
}

func (s *shard) activateNIC(nc *NIC) {
	if !nc.st.Active {
		nc.st.Active = true
		s.activeNICs = append(s.activeNICs, nc)
	}
	if s.n.rec != nil {
		s.wantScan = true
	}
}

// runCycle is one shard's window for cycle now: its slice of the canonical
// event order, then the NIC and switch-allocation phases — the same three
// phases the sequential engine ran globally.
func (s *shard) runCycle(now sim.Cycle) {
	n := s.n

	// 1. Timed events: packet arrivals, flit deliveries, credit returns,
	//    pipeline eligibility, channel/NIC wake-ups.
	n.wheel.Run(s.entries, now)
	s.entries = nil

	// 2. Injection: each active NIC may start serialising one flit.
	// Processing can re-activate entries, so the retained list must use a
	// different backing array than the one being iterated.
	nics := s.activeNICs
	s.activeNICs = s.spareNICs[:0]
	for _, nc := range nics {
		if nc.tryInject(now) {
			s.activeNICs = append(s.activeNICs, nc)
		}
	}
	s.spareNICs = nics[:0]

	// 3. Switch allocation: each active output may grant one flit.
	outs := s.activeOuts
	s.activeOuts = s.spareOuts[:0]
	for _, o := range outs {
		if o.TryGrant(now) {
			s.activeOuts = append(s.activeOuts, o)
		}
	}
	s.spareOuts = outs[:0]
}

// Actor numbering and ordering keys. Actor ids are per-column blocks —
// column x holds its H routers then its H*NodesPerRack NICs — so a shard's
// actors form one contiguous id range and shardOfActor is monotone in the
// id. Channels get src-only ids above all owners (they never own events).
// Actor 0 is the coordinator band.
//
// An event's ordering key packs two ids into 32 bits, owner<<srcBits | src:
// the owner is the actor whose state the event mutates, and whose shard
// alone runs it; the src is the actor or channel whose machinery schedules
// it. srcBits is the bit length of the largest src, so numeric key order is
// (owner, src) order, and any two events with one key come from one
// deterministic producer, whose insertion order (the Seq tie-break) K
// cannot change. Owner-major order makes the canonical (Key, Seq) order
// shard-nested: a sorted cycle partitions into contiguous per-shard slices,
// and concatenating per-shard spools in shard order reproduces the
// canonical global order at every K. The layout depends on the topology
// only, never on K; on the paper system owners reach 576 (10 bits) and
// srcs 1824 (11 bits), so keys span 21 bits and a cycle's radix sort makes
// three byte passes.

// actorsPerCol is routers-per-column + NICs-per-column.
func (c Config) actorsPerCol() int { return c.MeshH * (1 + c.NodesPerRack) }

// keyBits returns the widths of an ordering key's owner and src fields:
// the bit lengths of the largest owner (a router or NIC) and of the
// largest src (the last channel).
func (c Config) keyBits() (ownerBits, srcBits int) {
	maxOwner := c.MeshW * c.actorsPerCol()
	return bits.Len(uint(maxOwner)), bits.Len(uint(maxOwner + c.TotalLinks()))
}

// key packs an ordering key from an owner and a src id.
func (n *Network) key(owner, src uint32) uint32 { return owner<<n.srcBits | src }

// routerActor returns router r's actor id.
func (n *Network) routerActor(r int) uint32 {
	x, y := n.cfg.routerXY(r)
	return uint32(1 + x*n.perCol + y)
}

// nicActor returns the actor id of node's NIC.
func (n *Network) nicActor(node int) uint32 {
	x, y := n.cfg.routerXY(n.cfg.nodeRouter(node))
	return uint32(1 + x*n.perCol + n.cfg.MeshH + y*n.cfg.NodesPerRack + n.cfg.nodeLocal(node))
}

// chanSrc returns the src-only key id of global link li.
func (n *Network) chanSrc(li int) uint32 {
	return uint32(1 + n.cfg.MeshW*n.perCol + li)
}

// shardOfActor maps a router/NIC actor id to its shard.
func (n *Network) shardOfActor(a uint32) int {
	return (int(a) - 1) / n.perCol / n.shardWidth
}

// shardOfRouter maps a router to its shard by mesh column.
func (n *Network) shardOfRouter(r int) int {
	x, _ := n.cfg.routerXY(r)
	return x / n.shardWidth
}

// Shards returns the configured shard count the core is running with.
func (n *Network) Shards() int { return len(n.shards) }

// Close releases the worker pool of a sharded network (Shards > 1), whose
// K-1 workers otherwise outlive the run. Whoever builds a network closes
// it once it stops stepping; the network stays readable afterwards. Safe
// to call more than once, and a no-op at one shard.
func (n *Network) Close() {
	if n.runner != nil {
		n.runner.Close()
		n.runner = nil
	}
}
