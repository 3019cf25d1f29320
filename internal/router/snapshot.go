package router

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint/wire"
	"repro/internal/sim"
)

// This file is the router package's checkpoint surface. The mutable
// scalars of routers, input VCs, outputs, channels and the retransmission
// protocol live in exported records — RouterState, InputVCState,
// OutputState, ChannelState, RelState — that are at once the components'
// live state and their checkpoint: export copies a record and clones its
// slices, and restore checks it against the target's configuration and
// assigns it, copying slices into the target's own backing arrays so one
// snapshot can be restored any number of times. Only references are
// translated: packets, and the contents of buffers, FIFOs and retransmit
// rings, which the *Snapshot types carry next to the records. Closures,
// configuration, and wiring (upstream sinks, schedulers, routing
// functions) are never serialized — a restore target is a newly built
// network with identical configuration.
//
// Packets travel by reference through buffers, rings, and wormhole state, so
// the checkpoint flattens every *Packet into an ID and rebuilds the aliasing
// on restore: export calls a PacketCollector for each live packet it meets
// (the network dedups them into one table), and restore maps IDs back to
// freshly allocated structs through a PacketResolver.

// PacketCollector registers one live packet into the checkpoint's packet
// table. Called once per reference; callees dedup by ID.
type PacketCollector func(p *Packet)

// PacketResolver returns the restored *Packet for an ID recorded at export
// time. IDs unknown to the table are an error (a corrupt or inconsistent
// snapshot).
type PacketResolver func(id int64) (*Packet, error)

// ID registers p and returns its ID, or 0 for a nil reference.
func (collect PacketCollector) ID(p *Packet) int64 {
	if p == nil {
		return 0
	}
	collect(p)
	return p.ID
}

// Ref resolves an ID recorded by PacketCollector.ID: nil for 0.
func (resolve PacketResolver) Ref(id int64) (*Packet, error) {
	if id == 0 {
		return nil, nil
	}
	return resolve(id)
}

// PacketState is the serializable form of one Packet (pool linkage dropped).
type PacketState struct {
	ID         int64
	Src        int
	Dst        int
	DstRouter  int
	DstLocal   int
	Len        int
	CreatedAt  sim.Cycle
	Misroutes  int
	Killed     bool
	KillRouter int
}

// Wire lists the packet's fields to c in declaration order.
func (st *PacketState) Wire(c *wire.Codec) {
	wire.Int(c, &st.ID)
	wire.Int(c, &st.Src)
	wire.Int(c, &st.Dst)
	wire.Int(c, &st.DstRouter)
	wire.Int(c, &st.DstLocal)
	wire.Int(c, &st.Len)
	wire.Int(c, &st.CreatedAt)
	wire.Int(c, &st.Misroutes)
	wire.Bool(c, &st.Killed)
	wire.Int(c, &st.KillRouter)
}

// ExportPacket flattens p.
func ExportPacket(p *Packet) PacketState {
	return PacketState{
		ID:         p.ID,
		Src:        p.Src,
		Dst:        p.Dst,
		DstRouter:  p.DstRouter,
		DstLocal:   p.DstLocal,
		Len:        p.Len,
		CreatedAt:  p.CreatedAt,
		Misroutes:  p.Misroutes,
		Killed:     p.Killed,
		KillRouter: p.KillRouter,
	}
}

// ApplyTo writes the snapshot into a freshly allocated packet.
func (st PacketState) ApplyTo(p *Packet) {
	p.ID = st.ID
	p.Src = st.Src
	p.Dst = st.Dst
	p.DstRouter = st.DstRouter
	p.DstLocal = st.DstLocal
	p.Len = st.Len
	p.CreatedAt = st.CreatedAt
	p.Misroutes = st.Misroutes
	p.Killed = st.Killed
	p.KillRouter = st.KillRouter
}

// FlitDesc is a FlitRef with the packet pointer flattened to its ID.
// PktID 0 means the reference was nil (or deliberately severed — see
// TxFlitState).
type FlitDesc struct {
	PktID   int64
	Seq     int32
	VC      int8
	ReadyAt sim.Cycle
}

// Wire lists the flit's fields to c in declaration order.
func (d *FlitDesc) Wire(c *wire.Codec) {
	wire.Int(c, &d.PktID)
	wire.Int(c, &d.Seq)
	wire.Int(c, &d.VC)
	wire.Int(c, &d.ReadyAt)
}

func exportFlit(f FlitRef, collect PacketCollector) FlitDesc {
	return FlitDesc{PktID: collect.ID(f.Pkt), Seq: f.Seq, VC: f.VC, ReadyAt: f.ReadyAt}
}

func resolveFlit(d FlitDesc, resolve PacketResolver) (FlitRef, error) {
	p, err := resolve.Ref(d.PktID)
	if err != nil {
		return FlitRef{}, err
	}
	return FlitRef{Pkt: p, Seq: d.Seq, VC: d.VC, ReadyAt: d.ReadyAt}, nil
}

// TxFlitState is one wire transmission (txFlit) flattened. Flit.PktID is 0
// for retransmit-ring entries already delivered downstream (Seq < RxExpect):
// their *Packet may have been recycled, they are only ever replayed and
// dropped as duplicates by sequence number, and the protocol never
// dereferences them — so the checkpoint severs the pointer rather than
// resurrect a dead packet. PktID (the header copy) is kept for the CRC.
type TxFlitState struct {
	Flit  FlitDesc
	Seq   uint64
	PktID int64
	CRC   uint16
}

// Wire lists the transmission's fields to c in declaration order.
func (st *TxFlitState) Wire(c *wire.Codec) {
	st.Flit.Wire(c)
	wire.Uint(c, &st.Seq)
	wire.Int(c, &st.PktID)
	wire.Uint(c, &st.CRC)
}

func (c *Channel) exportTxFlit(tf txFlit, collect PacketCollector) TxFlitState {
	st := TxFlitState{Seq: tf.seq, PktID: tf.pktID, CRC: tf.crc}
	if c.rel != nil && tf.seq < c.rel.st.RxExpect {
		tf.f.Pkt = nil // delivered: sever the possibly recycled packet
	}
	st.Flit = exportFlit(tf.f, collect)
	return st
}

func resolveTxFlit(st TxFlitState, resolve PacketResolver) (txFlit, error) {
	f, err := resolveFlit(st.Flit, resolve)
	if err != nil {
		return txFlit{}, err
	}
	return txFlit{f: f, seq: st.Seq, pktID: st.PktID, crc: st.CRC}, nil
}

// BufferState is one input-VC buffer: its queued flits in FIFO order plus
// the raw occupancy integral. The integral is exported without a sync to
// the checkpoint cycle — floating-point accrual is segmentation-sensitive,
// and forcing a boundary here would perturb every later Bu reading.
type BufferState struct {
	Flits  []FlitDesc
	OccInt float64
	LastT  sim.Cycle
}

// Wire lists the buffer's fields to c in declaration order.
func (st *BufferState) Wire(c *wire.Codec) {
	wire.Records(c, &st.Flits)
	wire.Float(c, &st.OccInt)
	wire.Int(c, &st.LastT)
}

// ExportState captures the buffer verbatim.
func (b *Buffer) ExportState(collect PacketCollector) BufferState {
	st := BufferState{OccInt: b.occInt, LastT: b.lastT}
	st.Flits = make([]FlitDesc, 0, b.count)
	for i := 0; i < b.count; i++ {
		st.Flits = append(st.Flits, exportFlit(b.slots[(b.head+i)%len(b.slots)], collect))
	}
	return st
}

// RestoreState overwrites the buffer from a snapshot.
func (b *Buffer) RestoreState(st BufferState, resolve PacketResolver) error {
	if len(st.Flits) > len(b.slots) {
		return fmt.Errorf("router: snapshot buffer holds %d flits, capacity is %d", len(st.Flits), len(b.slots))
	}
	for i := range b.slots {
		b.slots[i] = FlitRef{}
	}
	b.head = 0
	b.count = len(st.Flits)
	for i, d := range st.Flits {
		f, err := resolveFlit(d, resolve)
		if err != nil {
			return err
		}
		b.slots[i] = f
	}
	b.occInt = st.OccInt
	b.lastT = st.LastT
	return nil
}

// RouterState is a router's own record: the cycle of each input port's
// last crossbar grant and the router's flit counters.
type RouterState struct {
	InputBusy      []sim.Cycle
	FlitsRouted    int64
	FlitsDiscarded int64 // killed-packet flits dropped at this router
	EscGrants      int64 // flits granted onto an escape VC
}

// Wire lists the record's fields to c in declaration order.
func (st *RouterState) Wire(c *wire.Codec) {
	wire.Slice(c, &st.InputBusy, wire.Int)
	wire.Int(c, &st.FlitsRouted)
	wire.Int(c, &st.FlitsDiscarded)
	wire.Int(c, &st.EscGrants)
}

// InputVCState is one input VC's wormhole, arbitration and credit record.
type InputVCState struct {
	Route  int    // output port for the current packet, -1 when unset
	OutVC  int    // allocated output VC at that port, -1 when unset
	VCMask uint32 // downstream VCs the current packet may claim
	InReq  bool   // currently queued in an output's request list

	// ProgressAt is the cycle of the last forward progress on this VC — a
	// pop, or an arrival into an empty buffer. The stall watchdog measures
	// head-of-line blockage against it.
	ProgressAt sim.Cycle

	// CreditsSent - CreditsReturned counts credit returns scheduled but
	// not yet delivered upstream. Burst discards put several in flight at
	// once; the conservation audit needs the exact count to bracket
	// tightly. The credit event runs on the upstream owner's shard, so
	// each counter has one writing shard and the audit reads both at a
	// barrier.
	CreditsSent     int
	CreditsReturned int
}

// Wire lists the record's fields to c in declaration order.
func (st *InputVCState) Wire(c *wire.Codec) {
	wire.Int(c, &st.Route)
	wire.Int(c, &st.OutVC)
	wire.Uint(c, &st.VCMask)
	wire.Bool(c, &st.InReq)
	wire.Int(c, &st.ProgressAt)
	wire.Int(c, &st.CreditsSent)
	wire.Int(c, &st.CreditsReturned)
}

// OutVCState is one output VC's credit and ownership record.
type OutVCState struct {
	Credits int
	Owner   int // input-VC index holding this output VC, -1 when free
}

// Wire lists the record's fields to c in declaration order.
func (st *OutVCState) Wire(c *wire.Codec) {
	wire.Int(c, &st.Credits)
	wire.Int(c, &st.Owner)
}

// OutputState is one output port's record. Req is the request list — the
// input VCs with a ready head-of-line flit routed here, in arrival order,
// which grant fairness depends on; and RR is the round-robin scan start.
// Whether the port sits on its scheduler's work list is not recorded here:
// the work list is the scheduler's own state, and its checkpoint.
type OutputState struct {
	OVC          []OutVCState
	Req          []int
	RR           int
	WakePending  bool
	Grants       int64
	CreditStalls int64
}

// Wire lists the record's fields to c in declaration order.
func (st *OutputState) Wire(c *wire.Codec) {
	wire.Records(c, &st.OVC)
	wire.Slice(c, &st.Req, wire.Int)
	wire.Int(c, &st.RR)
	wire.Bool(c, &st.WakePending)
	wire.Int(c, &st.Grants)
	wire.Int(c, &st.CreditStalls)
}

// InputVCSnapshot is one input VC's checkpoint: its record, its buffer and
// the packet whose wormhole owns it.
type InputVCSnapshot struct {
	InputVCState
	Buf      BufferState
	CurPktID int64 // 0 = no wormhole in progress
}

// Wire lists the snapshot's fields to c in declaration order.
func (st *InputVCSnapshot) Wire(c *wire.Codec) {
	st.InputVCState.Wire(c)
	st.Buf.Wire(c)
	wire.Int(c, &st.CurPktID)
}

// RouterSnapshot is one router's checkpoint.
type RouterSnapshot struct {
	RouterState
	Ins  []InputVCSnapshot
	Outs []OutputState
}

// Wire lists the snapshot's fields to c in declaration order.
func (st *RouterSnapshot) Wire(c *wire.Codec) {
	st.RouterState.Wire(c)
	wire.Records(c, &st.Ins)
	wire.Records(c, &st.Outs)
}

// ExportState captures the router's mutable state, registering every live
// packet it references with collect.
func (r *Router) ExportState(collect PacketCollector) RouterSnapshot {
	st := RouterSnapshot{
		RouterState: r.st,
		Ins:         make([]InputVCSnapshot, len(r.ins)),
		Outs:        make([]OutputState, len(r.outs)),
	}
	st.InputBusy = slices.Clone(r.st.InputBusy)
	for i := range r.ins {
		in := &r.ins[i]
		st.Ins[i] = InputVCSnapshot{InputVCState: in.st, Buf: in.buf.ExportState(collect), CurPktID: collect.ID(in.curPkt)}
	}
	for p := range r.outs {
		st.Outs[p] = r.outs[p].exportState()
	}
	return st
}

// RestoreState overwrites the router's mutable state from a snapshot. The
// router must have been built with the same configuration (ports, VCs,
// buffer depth).
func (r *Router) RestoreState(st RouterSnapshot, resolve PacketResolver) error {
	if len(st.Ins) != len(r.ins) || len(st.Outs) != len(r.outs) || len(st.InputBusy) != len(r.st.InputBusy) {
		return fmt.Errorf("router %d: snapshot shape %d/%d/%d, router has %d/%d/%d",
			r.id, len(st.Ins), len(st.Outs), len(st.InputBusy), len(r.ins), len(r.outs), len(r.st.InputBusy))
	}
	for i := range st.Ins {
		in := &r.ins[i]
		is := &st.Ins[i]
		if err := in.buf.RestoreState(is.Buf, resolve); err != nil {
			return fmt.Errorf("router %d input VC %d: %w", r.id, i, err)
		}
		if is.Route < -1 || is.Route >= r.ports || is.OutVC < -1 || is.OutVC >= r.vcs {
			return fmt.Errorf("router %d input VC %d: snapshot route %d/outVC %d out of range", r.id, i, is.Route, is.OutVC)
		}
		p, err := resolve.Ref(is.CurPktID)
		if err != nil {
			return fmt.Errorf("router %d input VC %d: %w", r.id, i, err)
		}
		in.st, in.curPkt = is.InputVCState, p
	}
	for p := range st.Outs {
		if err := r.outs[p].restoreState(&st.Outs[p]); err != nil {
			return err
		}
	}
	busy := r.st.InputBusy
	copy(busy, st.InputBusy)
	r.st = st.RouterState
	r.st.InputBusy = busy
	return nil
}

// exportState copies the output's record.
func (o *Output) exportState() OutputState {
	st := o.st
	st.OVC = slices.Clone(o.st.OVC)
	st.Req = slices.Clone(o.st.Req)
	return st
}

// restoreState checks st against the output's router and assigns it,
// keeping the output's own OVC and Req backing arrays. The output leaves
// its scheduler's work list; the scheduler's own restore puts it back.
func (o *Output) restoreState(st *OutputState) error {
	r := o.router
	if len(st.OVC) != len(o.st.OVC) {
		return fmt.Errorf("router %d output %d: snapshot has %d VCs, output has %d", r.id, o.port, len(st.OVC), len(o.st.OVC))
	}
	for v, ov := range st.OVC {
		if ov.Credits < 0 || ov.Credits > r.depth {
			return fmt.Errorf("router %d output %d VC %d: snapshot credits %d outside [0,%d]", r.id, o.port, v, ov.Credits, r.depth)
		}
	}
	for _, ivc := range st.Req {
		if ivc < 0 || ivc >= len(r.ins) {
			return fmt.Errorf("router %d output %d: snapshot request %d out of range", r.id, o.port, ivc)
		}
	}
	ovc, req := o.st.OVC, o.st.Req[:0]
	copy(ovc, st.OVC)
	o.st = *st
	o.st.OVC, o.st.Req = ovc, append(req, st.Req...)
	o.active = false
	return nil
}

// ChannelState is a channel's serialisation record. BusyUntilMC is in
// milli-cycles: the channel is idle from cycle now on when BusyUntilMC <=
// now*1000. BusyCycles, the cumulative serialisation time, is the policy's
// Lu numerator.
type ChannelState struct {
	BusyUntilMC int64
	BusyCycles  float64
	Flits       int64
}

// Wire lists the record's fields to c in declaration order.
func (st *ChannelState) Wire(c *wire.Codec) {
	wire.Int(c, &st.BusyUntilMC)
	wire.Float(c, &st.BusyCycles)
	wire.Int(c, &st.Flits)
}

// RelState is the retransmission protocol's record. Sender: sequence
// numbers in [AckSeq, SendSeq) are unacknowledged and replayable, and
// ReplayNext < SendSeq means a go-back-N replay is in progress, holding new
// sends so flit order on the wire is preserved. Receiver: exactly seq ==
// RxExpect with a valid CRC is delivered, in order; anything else is
// dropped and, for losses ahead of RxExpect, answered with a replay request
// on the next feedback.
type RelState struct {
	SendSeq      uint64
	AckSeq       uint64
	ReplayNext   uint64
	Retries      int
	DownUntil    sim.Cycle // escalated reset: link down until this cycle
	LastProgress sim.Cycle
	WdArmed      bool
	PumpArmed    bool

	RxExpect   uint64
	WantReplay bool
	FbArmed    bool

	Stats RelStats
}

// Wire lists the record's fields to c in declaration order.
func (st *RelState) Wire(c *wire.Codec) {
	wire.Uint(c, &st.SendSeq)
	wire.Uint(c, &st.AckSeq)
	wire.Uint(c, &st.ReplayNext)
	wire.Int(c, &st.Retries)
	wire.Int(c, &st.DownUntil)
	wire.Int(c, &st.LastProgress)
	wire.Bool(c, &st.WdArmed)
	wire.Bool(c, &st.PumpArmed)
	wire.Uint(c, &st.RxExpect)
	wire.Bool(c, &st.WantReplay)
	wire.Bool(c, &st.FbArmed)
	st.Stats.Wire(c)
}

// Wire lists the counters' fields to c in declaration order.
func (st *RelStats) Wire(c *wire.Codec) {
	wire.Int(c, &st.Corrupted)
	wire.Int(c, &st.LostToDown)
	wire.Int(c, &st.Retransmits)
	wire.Int(c, &st.Nacks)
	wire.Int(c, &st.Timeouts)
	wire.Int(c, &st.Escalations)
	wire.Int(c, &st.Duplicates)
}

// RelSnapshot is the retransmission protocol's checkpoint: its record,
// the replayable window [AckSeq, SendSeq) of the retransmit ring (older
// slots are dead and restore as zero values), and the rx pipeline
// register.
type RelSnapshot struct {
	RelState
	Retx []TxFlitState
	Rx   []FlitDesc
}

// Wire lists the snapshot's fields to c in declaration order.
func (st *RelSnapshot) Wire(c *wire.Codec) {
	st.RelState.Wire(c)
	wire.Records(c, &st.Retx)
	wire.Records(c, &st.Rx)
}

// ChannelSnapshot is one channel's checkpoint: its record, its in-flight
// flits, and its protocol when reliability is enabled.
type ChannelSnapshot struct {
	ChannelState
	Pending []TxFlitState
	Rel     *RelSnapshot
}

// Wire lists the snapshot's fields to c in declaration order.
func (st *ChannelSnapshot) Wire(c *wire.Codec) {
	st.ChannelState.Wire(c)
	wire.Records(c, &st.Pending)
	wire.Ptr(c, &st.Rel)
}

// ExportState captures the channel's mutable state. The in-flight FIFOs
// are drained and refilled, which preserves their contents and order
// exactly; export must therefore run with the simulation quiesced, like
// every other checkpoint operation.
func (c *Channel) ExportState(collect PacketCollector) ChannelSnapshot {
	st := ChannelSnapshot{ChannelState: c.st}
	c.pending.each(func(tf txFlit) {
		st.Pending = append(st.Pending, c.exportTxFlit(tf, collect))
	})
	if r := c.rel; r != nil {
		rs := &RelSnapshot{RelState: r.st}
		for seq := r.st.AckSeq; seq < r.st.SendSeq; seq++ {
			rs.Retx = append(rs.Retx, c.exportTxFlit(r.retx[seq%uint64(r.cfg.Window)], collect))
		}
		r.rx.each(func(f FlitRef) {
			rs.Rx = append(rs.Rx, exportFlit(f, collect))
		})
		st.Rel = rs
	}
	return st
}

// RestoreState overwrites the channel's mutable state from a snapshot. The
// channel must have been built with the same reliability configuration. A
// snapshot FIFO longer than the channel's capacity is an error.
func (c *Channel) RestoreState(st ChannelSnapshot, resolve PacketResolver) error {
	if (st.Rel != nil) != (c.rel != nil) {
		return fmt.Errorf("router: snapshot reliability %v, channel reliability %v", st.Rel != nil, c.rel != nil)
	}
	if len(st.Pending) > pendingCap {
		return fmt.Errorf("router: snapshot channel has %d flits in flight, capacity is %d", len(st.Pending), pendingCap)
	}
	if st.Rel != nil && len(st.Rel.Rx) > rxCap {
		return fmt.Errorf("router: snapshot rx register holds %d flits, capacity is %d", len(st.Rel.Rx), rxCap)
	}
	c.st = st.ChannelState
	for c.pending.len() > 0 {
		c.pending.pop()
	}
	for _, ts := range st.Pending {
		tf, err := resolveTxFlit(ts, resolve)
		if err != nil {
			return err
		}
		c.pending.push(tf)
	}
	if r := c.rel; r != nil {
		rs := st.Rel
		w := uint64(r.cfg.Window)
		if rs.SendSeq < rs.AckSeq || rs.SendSeq-rs.AckSeq > w {
			return fmt.Errorf("router: snapshot window [%d,%d) exceeds configured window %d", rs.AckSeq, rs.SendSeq, w)
		}
		if uint64(len(rs.Retx)) != rs.SendSeq-rs.AckSeq {
			return fmt.Errorf("router: snapshot retx has %d entries for window [%d,%d)", len(rs.Retx), rs.AckSeq, rs.SendSeq)
		}
		for i := range r.retx {
			r.retx[i] = txFlit{}
		}
		for i, ts := range rs.Retx {
			want := rs.AckSeq + uint64(i)
			if ts.Seq != want {
				return fmt.Errorf("router: snapshot retx entry %d has seq %d, want %d", i, ts.Seq, want)
			}
			tf, err := resolveTxFlit(ts, resolve)
			if err != nil {
				return err
			}
			r.retx[ts.Seq%w] = tf
		}
		for r.rx.len() > 0 {
			r.rx.pop()
		}
		for _, d := range rs.Rx {
			f, err := resolveFlit(d, resolve)
			if err != nil {
				return err
			}
			r.rx.push(f)
		}
		r.st = rs.RelState
	}
	return nil
}
