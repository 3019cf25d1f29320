package network

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/checkpoint/wire"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// This file is the network orchestrator's checkpoint surface. A snapshot is
// taken between Steps, when every cross-shard spool (staged schedules, down
// notes, flight events, deliveries) is drained — the coordinator barrier is
// the only point at which the complete state is a plain tree of values. A
// restore target is a freshly constructed Network with the same Config and
// generator: construction rebuilds all wiring and registers every wheel
// handler in the same order, and RestoreState overwrites only the dynamic
// state.
//
// The network, its NICs and the recovery subsystem keep their
// pointer-free state in records that are also their checkpoint
// (ClockState, NICState, RecoveryState), like the router, link, policy and
// telemetry records beside them in State. Export copies a record and
// clones its slices; restore checks it, assigns it, and copies the slices
// into the target's own backing arrays, so one snapshot can seed any
// number of restores. The *Snapshot wrappers add what must be translated:
// packets by ID and queued descriptors.
//
// The shard partition is a run mode (DESIGN.md §6g), so nothing in State
// depends on it: the shards' Counters are saved merged, as totals reads
// them, and their work lists concatenated in shard order. Restore hands
// the merged record to shard 0, starts the other shards empty and appends
// each work-list entry to the shard that owns it, so a snapshot saved at
// any shard count resumes at any other. The work lists are the only
// record of which outputs and NICs are active: the live active flags are
// cleared everywhere and set from the lists.

// NICState is a NIC's record. PktSeq numbers the packets the NIC creates
// (IDs are per-source, so shards never contend). Next is the source's next
// packet, which the arrival handler queues at Next.Created; its Size is 0
// once the source has nothing further. Credits are per router-input VC,
// and CurSeq and CurVC the next flit and the VC of the packet being
// serialised.
type NICState struct {
	PktSeq      int64
	Next        PktDesc
	Credits     []int
	CurSeq      int32
	CurVC       int
	WakePending bool
}

// Wire lists the record's fields to c in declaration order.
func (st *NICState) Wire(c *wire.Codec) {
	wire.Int(c, &st.PktSeq)
	st.Next.Wire(c)
	wire.Slice(c, &st.Credits, wire.Int)
	wire.Int(c, &st.CurSeq)
	wire.Int(c, &st.CurVC)
	wire.Bool(c, &st.WakePending)
}

// Wire lists the descriptor's fields to c in declaration order.
func (d *PktDesc) Wire(c *wire.Codec) {
	wire.Int(c, &d.Created)
	wire.Int(c, &d.Dst)
	wire.Int(c, &d.Size)
}

// NICSnapshot is one NIC's checkpoint: its record, its source queue in
// FIFO order, and the packet being serialised (ID 0 for none).
type NICSnapshot struct {
	NICState
	Queue    []PktDesc
	CurPktID int64
}

// Wire lists the snapshot's fields to c in declaration order.
func (st *NICSnapshot) Wire(c *wire.Codec) {
	st.NICState.Wire(c)
	wire.Records(c, &st.Queue)
	wire.Int(c, &st.CurPktID)
}

// OutputRef identifies a router output port.
type OutputRef struct {
	Router int
	Port   int
}

// Wire lists the reference's fields to c in declaration order.
func (ref *OutputRef) Wire(c *wire.Codec) {
	wire.Int(c, &ref.Router)
	wire.Int(c, &ref.Port)
}

// Counters is one shard's measurement record; Network.totals merges them,
// and a checkpoint holds the merged record.
// The latency fields cover measured (post-warm-up) packets only: LatMin is
// -1 while there are none, and the head-flit latency is kept alongside the
// paper's creation-to-tail metric. Reroutes and Misroutes count route-time
// detours of fault-aware routing, and UnreachableDrops the packets a NIC
// dropped because no live path reaches their destination.
type Counters struct {
	InjectedPkts   int64
	DeliveredPkts  int64
	DeliveredFlits int64

	LatCount     int64
	LatSum       int64
	LatMin       sim.Cycle
	LatMax       sim.Cycle
	LatHist      stats.Histogram
	HeadLatCount int64
	HeadLatSum   int64

	Reroutes         int64
	Misroutes        int64
	UnreachableDrops int64
}

// Wire lists the record's fields to c in declaration order.
func (st *Counters) Wire(c *wire.Codec) {
	wire.Int(c, &st.InjectedPkts)
	wire.Int(c, &st.DeliveredPkts)
	wire.Int(c, &st.DeliveredFlits)
	wire.Int(c, &st.LatCount)
	wire.Int(c, &st.LatSum)
	wire.Int(c, &st.LatMin)
	wire.Int(c, &st.LatMax)
	st.LatHist.Wire(c)
	wire.Int(c, &st.HeadLatCount)
	wire.Int(c, &st.HeadLatSum)
	wire.Int(c, &st.Reroutes)
	wire.Int(c, &st.Misroutes)
	wire.Int(c, &st.UnreachableDrops)
}

// RecoveryState is the recovery subsystem's record. Live[r][dir] is false
// while the mesh link leaving router r in direction dir is hard-down
// (scheduled window or escalated reset); the reachability table is a pure
// function of it, recomputed on restore rather than serialized. The
// watchdog counters are coordinator-only (the scan is a key-0 wheel
// event); route-time detours are counted in the shards' Counters.
type RecoveryState struct {
	Live       [][4]bool
	ScanArmed  bool
	WdReroutes int64
	WdDrops    int64
	Recomputes int64
}

// Wire lists the record's fields to c in declaration order.
func (st *RecoveryState) Wire(c *wire.Codec) {
	wire.Slice(c, &st.Live, func(c *wire.Codec, dirs *[4]bool) {
		for d := range dirs {
			wire.Bool(c, &dirs[d])
		}
	})
	wire.Bool(c, &st.ScanArmed)
	wire.Int(c, &st.WdReroutes)
	wire.Int(c, &st.WdDrops)
	wire.Int(c, &st.Recomputes)
}

// ClockState is the network's own record: the current cycle; the next
// cycle at which the policy controllers run (never when the network has
// none), which replaces a per-cycle modulo and bounds how far fast-forward
// may skip; the start of the measured window; and how many idle skips
// fast-forward took and how many cycles they covered.
type ClockState struct {
	Now            sim.Cycle
	NextPolicyTick sim.Cycle
	MeasureFrom    sim.Cycle
	FFSkips        int64
	FFCycles       int64
}

// Wire lists the record's fields to c in declaration order.
func (st *ClockState) Wire(c *wire.Codec) {
	wire.Int(c, &st.Now)
	wire.Int(c, &st.NextPolicyTick)
	wire.Int(c, &st.MeasureFrom)
	wire.Int(c, &st.FFSkips)
	wire.Int(c, &st.FFCycles)
}

// State is the complete mutable state of a Network at a step boundary. It
// does not depend on the shard count.
type State struct {
	ClockState
	// Counters is the shards' measurement records, merged.
	Counters

	// Packets is the table of every live packet, sorted by ID; all packet
	// references elsewhere in the snapshot resolve into it.
	Packets []router.PacketState

	Routers     []router.RouterSnapshot
	Channels    []router.ChannelSnapshot
	Links       []powerlink.State
	Controllers []policy.PolicyState
	// PolicyTrace is the regret recorder's accumulated trace, nil unless
	// the run records one.
	PolicyTrace *policy.TraceState
	NICs        []NICSnapshot
	// ActiveOuts and ActiveNICs are the shards' work lists, concatenated in
	// shard order. List order persists across cycles and is part of the
	// state; an output or NIC is active exactly when it is listed.
	ActiveOuts []OutputRef
	ActiveNICs []int

	NodeRNGs []sim.RNGState

	Fault     *fault.InjectorState
	Recovery  *RecoveryState
	Telemetry *telemetry.RegistrySnapshot

	Wheel sim.WheelState
}

// Wire lists the state's fields to c in declaration order.
func (st *State) Wire(c *wire.Codec) {
	st.ClockState.Wire(c)
	st.Counters.Wire(c)
	wire.Records(c, &st.Packets)
	wire.Records(c, &st.Routers)
	wire.Records(c, &st.Channels)
	wire.Records(c, &st.Links)
	wire.Records(c, &st.Controllers)
	wire.Ptr(c, &st.PolicyTrace)
	wire.Records(c, &st.NICs)
	wire.Records(c, &st.ActiveOuts)
	wire.Slice(c, &st.ActiveNICs, wire.Int)
	wire.Records(c, &st.NodeRNGs)
	wire.Ptr(c, &st.Fault)
	wire.Ptr(c, &st.Recovery)
	wire.Ptr(c, &st.Telemetry)
	st.Wheel.Wire(c)
}

// ExportState captures the network's complete mutable state. It must be
// called between Steps (never mid-cycle) and does not mutate simulation
// state — an auto-checkpointing run continues unperturbed.
func (n *Network) ExportState() (*State, error) {
	var outs, nics int
	for _, s := range n.shards {
		if len(s.staged) != 0 || len(s.downMailbox) != 0 || len(s.flightMailbox) != 0 ||
			len(s.latVals) != 0 || len(s.deliveries) != 0 {
			return nil, fmt.Errorf("network: shard %d has undrained spools — checkpoint must run at a step boundary", s.idx)
		}
		outs += len(s.activeOuts)
		nics += len(s.activeNICs)
	}
	// Every slice the network fills is allocated at its final length.
	st := &State{
		ClockState:  n.st,
		Routers:     make([]router.RouterSnapshot, len(n.routers)),
		Channels:    make([]router.ChannelSnapshot, len(n.channels)),
		Links:       make([]powerlink.State, len(n.channels)),
		Controllers: make([]policy.PolicyState, len(n.controllers)),
		NICs:        make([]NICSnapshot, len(n.nics)),
		ActiveOuts:  make([]OutputRef, 0, outs),
		ActiveNICs:  make([]int, 0, nics),
	}

	// Packet table, filled as the per-component exports walk their flit
	// references. Dedup by ID; ID 0 is reserved for "no packet".
	table := make(map[int64]*router.Packet)
	collect := router.PacketCollector(func(p *router.Packet) {
		if p.ID == 0 {
			panic("network: live packet with ID 0 in checkpoint")
		}
		table[p.ID] = p
	})

	for i, r := range n.routers {
		st.Routers[i] = r.ExportState(collect)
	}
	for i, ch := range n.channels {
		st.Channels[i] = ch.ExportState(collect)
		st.Links[i] = ch.PLink().ExportState()
	}
	for i, c := range n.controllers {
		st.Controllers[i] = c.ExportPolicy()
	}
	if n.policyRec != nil {
		ts := n.policyRec.ExportState()
		st.PolicyTrace = &ts
	}
	for i, nc := range n.nics {
		ns := NICSnapshot{NICState: nc.st, CurPktID: collect.ID(nc.cur)}
		ns.Credits = slices.Clone(nc.st.Credits)
		ns.Queue = make([]PktDesc, nc.q.n)
		for k := range ns.Queue {
			ns.Queue[k] = nc.q.buf[(nc.q.head+k)%len(nc.q.buf)]
		}
		st.NICs[i] = ns
	}

	for _, s := range n.shards {
		for _, o := range s.activeOuts {
			st.ActiveOuts = append(st.ActiveOuts, OutputRef{Router: o.RouterID(), Port: o.Port()})
		}
		for _, nc := range s.activeNICs {
			st.ActiveNICs = append(st.ActiveNICs, nc.node)
		}
	}
	st.Counters = *n.totals()
	st.LatHist = st.LatHist.ExportState()

	if n.rngs != nil {
		st.NodeRNGs = make([]sim.RNGState, len(n.rngs))
		for i, r := range n.rngs {
			st.NodeRNGs[i] = r.State()
		}
	}
	if n.injector != nil {
		is := n.injector.ExportState()
		st.Fault = &is
	}
	if rec := n.rec; rec != nil {
		rs := rec.st
		rs.Live = slices.Clone(rec.st.Live)
		st.Recovery = &rs
	}
	if n.telem != nil {
		ts := n.telem.ExportState()
		st.Telemetry = &ts
	}

	st.Wheel = n.wheel.ExportState()
	if st.Wheel.Now != n.st.Now-1 {
		return nil, fmt.Errorf("network: wheel clock %d out of phase with network cycle %d — checkpoint must run at a step boundary", st.Wheel.Now, n.st.Now)
	}

	ids := make([]int64, 0, len(table))
	for id := range table {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	st.Packets = make([]router.PacketState, len(ids))
	for i, id := range ids {
		st.Packets[i] = router.ExportPacket(table[id])
	}
	return st, nil
}

// RestoreState overwrites this network's mutable state from a snapshot. The
// network must be freshly constructed from the same Config (and generator);
// restoring into a network that has already stepped is invalid.
func (n *Network) RestoreState(st *State) error {
	if len(st.Routers) != len(n.routers) || len(st.Channels) != len(n.channels) ||
		len(st.Links) != len(n.channels) || len(st.NICs) != len(n.nics) ||
		len(st.Controllers) != len(n.controllers) {
		return fmt.Errorf("network: snapshot shape (%d routers, %d channels, %d links, %d NICs, %d controllers) does not match network (%d, %d, %d, %d, %d)",
			len(st.Routers), len(st.Channels), len(st.Links), len(st.NICs), len(st.Controllers),
			len(n.routers), len(n.channels), len(n.channels), len(n.nics), len(n.controllers))
	}
	if (st.Fault != nil) != (n.injector != nil) {
		return fmt.Errorf("network: snapshot fault injection %v, network %v", st.Fault != nil, n.injector != nil)
	}
	if (st.Recovery != nil) != (n.rec != nil) {
		return fmt.Errorf("network: snapshot recovery %v, network %v", st.Recovery != nil, n.rec != nil)
	}
	if (st.Telemetry != nil) != (n.telem != nil) {
		return fmt.Errorf("network: snapshot telemetry %v, network %v", st.Telemetry != nil, n.telem != nil)
	}
	if (st.PolicyTrace != nil) != (n.policyRec != nil) {
		return fmt.Errorf("network: snapshot trace recording %v, network %v", st.PolicyTrace != nil, n.policyRec != nil)
	}
	if (len(st.NodeRNGs) > 0) != (n.rngs != nil) || len(st.NodeRNGs) > 0 && len(st.NodeRNGs) != len(n.rngs) {
		return fmt.Errorf("network: snapshot has %d node RNGs, network has %d", len(st.NodeRNGs), len(n.rngs))
	}
	if st.Wheel.Now != st.Now-1 {
		return fmt.Errorf("network: snapshot wheel clock %d out of phase with cycle %d", st.Wheel.Now, st.Now)
	}

	// Packet table: allocate one struct per live packet.
	table := make(map[int64]*router.Packet, len(st.Packets))
	for _, ps := range st.Packets {
		if ps.ID == 0 {
			return fmt.Errorf("network: snapshot packet table contains ID 0")
		}
		if _, dup := table[ps.ID]; dup {
			return fmt.Errorf("network: snapshot packet table has duplicate ID %d", ps.ID)
		}
		p := new(router.Packet)
		ps.ApplyTo(p)
		table[ps.ID] = p
	}
	resolve := router.PacketResolver(func(id int64) (*router.Packet, error) {
		p, ok := table[id]
		if !ok {
			return nil, fmt.Errorf("network: snapshot references unknown packet %d", id)
		}
		return p, nil
	})

	for i, r := range n.routers {
		if err := r.RestoreState(st.Routers[i], resolve); err != nil {
			return err
		}
	}
	for i, ch := range n.channels {
		if err := ch.RestoreState(st.Channels[i], resolve); err != nil {
			return fmt.Errorf("link %d: %w", i, err)
		}
		if err := ch.PLink().RestoreState(st.Links[i]); err != nil {
			return fmt.Errorf("link %d: %w", i, err)
		}
	}
	for i, c := range n.controllers {
		if err := c.RestorePolicy(st.Controllers[i]); err != nil {
			return fmt.Errorf("controller %d: %w", i, err)
		}
	}
	if st.PolicyTrace != nil {
		if err := n.policyRec.RestoreState(*st.PolicyTrace); err != nil {
			return err
		}
	}
	for i, nc := range n.nics {
		ns := &st.NICs[i]
		if len(ns.Credits) != len(nc.st.Credits) {
			return fmt.Errorf("network: NIC %d snapshot has %d VCs, NIC has %d", i, len(ns.Credits), len(nc.st.Credits))
		}
		cur, err := resolve.Ref(ns.CurPktID)
		if err != nil {
			return fmt.Errorf("NIC %d: %w", i, err)
		}
		credits := nc.st.Credits
		copy(credits, ns.Credits)
		nc.st, nc.cur, nc.active = ns.NICState, cur, false
		nc.st.Credits = credits
		nc.q.buf = nc.q.buf[:0]
		nc.q.head, nc.q.n = 0, 0
		for _, d := range ns.Queue {
			nc.q.push(d)
		}
	}

	// Shard 0 takes the merged record; the others start empty.
	for i, s := range n.shards {
		c := Counters{LatMin: -1}
		if i == 0 {
			c = st.Counters
		}
		hist := s.st.LatHist
		hist.RestoreState(c.LatHist)
		s.st = c
		s.st.LatHist = hist
		s.activeOuts = s.activeOuts[:0]
		s.activeNICs = s.activeNICs[:0]
		s.wantScan = false
	}
	// The work lists. Every output and NIC restored inactive above; each
	// listed one is marked and appended to its owner's list, in list order.
	for _, ref := range st.ActiveOuts {
		if ref.Router < 0 || ref.Router >= len(n.routers) {
			return fmt.Errorf("network: snapshot active output router %d out of range", ref.Router)
		}
		r := n.routers[ref.Router]
		if ref.Port < 0 || ref.Port >= r.Ports() {
			return fmt.Errorf("network: snapshot active output port %d out of range", ref.Port)
		}
		o := r.Output(ref.Port)
		if o.Active() {
			return fmt.Errorf("network: snapshot work list has output %d/%d twice", ref.Router, ref.Port)
		}
		o.SetActive(true)
		s := n.shards[n.shardOfRouter(ref.Router)]
		s.activeOuts = append(s.activeOuts, o)
	}
	for _, node := range st.ActiveNICs {
		if node < 0 || node >= len(n.nics) {
			return fmt.Errorf("network: snapshot active NIC %d out of range", node)
		}
		nc := n.nics[node]
		if nc.active {
			return fmt.Errorf("network: snapshot work list has NIC %d twice", node)
		}
		nc.active = true
		nc.sh.activeNICs = append(nc.sh.activeNICs, nc)
	}

	for i, rs := range st.NodeRNGs {
		n.rngs[i].SetState(rs)
	}

	if st.Fault != nil {
		if err := n.injector.RestoreState(*st.Fault); err != nil {
			return err
		}
	}
	if st.Recovery != nil {
		rec := n.rec
		if len(st.Recovery.Live) != len(rec.st.Live) {
			return fmt.Errorf("network: snapshot liveness table has %d routers, network has %d", len(st.Recovery.Live), len(rec.st.Live))
		}
		live := rec.st.Live
		copy(live, st.Recovery.Live)
		rec.recompute()
		rec.st = *st.Recovery
		rec.st.Live = live
	}
	if st.Telemetry != nil {
		if err := n.telem.RestoreState(*st.Telemetry); err != nil {
			return err
		}
	}

	if err := n.wheel.RestoreState(st.Wheel); err != nil {
		return err
	}
	if sim.Debug {
		n.debugCheckRestored(st)
	}

	n.st = st.ClockState
	return nil
}

// debugCheckRestored runs the simdebug restore assertions: the wheel is
// monotonic past the restore point (enforced by Wheel.RestoreState) and the
// restored network conserves flits and credits.
func (n *Network) debugCheckRestored(st *State) {
	saved := n.st.Now
	n.st.Now = st.Now
	if err := n.audit(); err != nil {
		panic("simdebug: restored state fails conservation audit: " + err.Error())
	}
	n.st.Now = saved
}
