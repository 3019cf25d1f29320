package router

import (
	"fmt"

	"repro/internal/powerlink"
	"repro/internal/shardrun"
	"repro/internal/sim"
)

// DeliverFunc receives a flit at the downstream end of a channel.
type DeliverFunc func(now sim.Cycle, f FlitRef)

// FaultSource is the channel's view of the fault injector (implemented by
// fault.Injector). Both methods must be deterministic functions of the
// per-link call sequence: CorruptionMask is called once per transmission in
// transmission order; DownWindow is schedule-driven and draws nothing.
type FaultSource interface {
	// CorruptionMask returns a non-zero 16-bit error mask when the flit
	// being transmitted on link at cycle now is corrupted on the wire.
	CorruptionMask(link int, now sim.Cycle) uint16
	// DownWindow reports whether link is hard-failed at now and, if so,
	// the cycle at which it is repaired.
	DownWindow(link int, now sim.Cycle) (bool, sim.Cycle)
}

// ReliabilityConfig enables link-level retransmission on one channel.
type ReliabilityConfig struct {
	// Source is the fault injector; Link is this channel's index in it.
	Source FaultSource
	Link   int
	// Window is the go-back-N sender window in flits. The channel refuses
	// new flits (Usable = false) while Window flits are unacknowledged.
	Window int
	// AckDelay is the receiver->sender ACK/NACK feedback latency in cycles.
	AckDelay sim.Cycle
	// Timeout is the sender's retransmit watchdog: with unacknowledged
	// flits and no progress for Timeout cycles, replay fires.
	Timeout sim.Cycle
	// MaxRetries bounds consecutive watchdog replays without progress;
	// exceeding it escalates to a link reset.
	MaxRetries int
	// ResetCycles is how long an escalated link stays down to retrain.
	ResetCycles sim.Cycle
}

// RelStats counts one channel's reliability-layer activity.
type RelStats struct {
	Corrupted   int64 // flits that arrived with a failed CRC check
	LostToDown  int64 // flits that arrived while the link was hard-down
	Retransmits int64 // flits replayed by the go-back-N sender
	Nacks       int64 // replay requests issued by the receiver
	Timeouts    int64 // watchdog firings without receiver feedback
	Escalations int64 // retry exhaustions that forced a link reset
	Duplicates  int64 // replayed flits dropped as already delivered
}

// txFlit is one flit as transmitted on the wire: the flit itself plus the
// reliability header (sequence number and CRC). The packet ID is captured
// at transmit time because the *Packet may be recycled through the pool
// once the flit is delivered everywhere — a replayed duplicate must be
// droppable without dereferencing it.
type txFlit struct {
	f     FlitRef
	seq   uint64
	pktID int64
	crc   uint16
}

// relState is the retransmission protocol state of one channel: go-back-N
// sender (retransmit ring, cumulative ack, replay cursor, watchdog) and
// receiver (expected sequence, CRC check, ACK/NACK feedback). All timing —
// feedback, replay pumping, watchdog — runs as wheel events, so the
// simulator's event-driven fast-forward can never skip past a retransmit
// deadline.
type relState struct {
	cfg ReliabilityConfig

	// Sender: retx holds the Window most recent flits; seqs in
	// [ackSeq, sendSeq) are unacknowledged and replayable. replayNext <
	// sendSeq means a go-back-N replay is in progress and new sends are
	// held (preserving flit order on the wire).
	retx         []txFlit
	sendSeq      uint64
	ackSeq       uint64
	replayNext   uint64
	retries      int
	downUntil    sim.Cycle // escalated reset: link down until this cycle
	lastProgress sim.Cycle
	wdArmed      bool
	pumpArmed    bool
	wdH          sim.Handler
	pumpH        sim.Handler

	// Receiver: delivers exactly seq == rxExpect with a valid CRC, in
	// order; anything else is dropped and (for losses ahead of rxExpect)
	// answered with a replay request on the next feedback.
	rxExpect   uint64
	wantReplay bool
	fbArmed    bool
	fbH        sim.Handler

	// Accepted flits cross one rx pipeline register before entering the
	// downstream buffer: relArrival (which mutates sender-owned protocol
	// state and so runs on the sender's shard) pushes here, and acceptH —
	// keyed to the downstream owner, one cycle later — pops and delivers.
	// This is where a reliable channel crosses shards when its two ends
	// sit in different ones (see CrossShards); the register applies
	// uniformly (even within one shard) so timing is shard-count-invariant.
	rx      rxFIFO
	acceptH sim.Handler

	stats RelStats
}

// Channel is the transmit side of one unidirectional opto-electronic link.
// It serialises flits at the link's current bit rate: a 16-bit flit takes
// exactly one router cycle at 10 Gb/s and proportionally longer at reduced
// rates. Serialisation time is tracked in integer milli-cycles so that
// fractional flit times (e.g. 1⅔ cycles at 6 Gb/s) accumulate without
// drift. Because flits serialise strictly in order, at most one flit is in
// flight at a time.
//
// With EnableReliability the channel additionally runs a link-level
// go-back-N retransmission protocol against a fault injector; without it
// the behaviour (and cost) is exactly the historical lossless channel.
type Channel struct {
	plink   *powerlink.Link
	sched   Sched
	deliver DeliverFunc

	// Ordering keys, laid out by the network (DESIGN.md §6g). selfKey
	// orders events that mutate sender-side state (reliable arrivals,
	// feedback, replay pump, watchdog); deliverKey orders events that
	// mutate the downstream receiver (lossless delivery, reliable
	// rx-accept). Both default to 0 for standalone channels; SetKeys
	// assigns them in a sharded network.
	//optolint:derived ordering key assigned once by SetKeys during construction
	selfKey uint32
	//optolint:derived ordering key assigned once by SetKeys during construction
	deliverKey uint32

	busyUntilMC int64   // milli-cycles; channel idle when <= now*1000
	busyCycles  float64 // cumulative serialisation time, for policy Lu
	flits       int64

	// In-flight flits awaiting their (cycle-rounded) delivery event. With
	// sub-cycle serialisation starts, a new flit can begin while the
	// previous one's delivery is still pending, so up to two can coexist.
	// The sender pushes during its window and the delivery event pops one
	// or more cycles later: in the receiver's window on a lossless channel,
	// which therefore crosses shards when its two ends do (see
	// CrossShards), and in the sender's own on a reliable one.
	pending  pendingFIFO
	deliverH sim.Handler

	rel *relState // nil = lossless channel, zero reliability overhead

	// downNotify, when set, is called on each watchdog escalation that
	// resets the link (see SetDownNotify).
	downNotify func(now, until sim.Cycle)
}

// NewChannel wires a channel to its power-aware link, an event scheduler
// (the owning shard, or a bare *sim.Wheel for standalone use), and the
// downstream delivery function, and registers its delivery handler.
func NewChannel(pl *powerlink.Link, sched Sched, deliver DeliverFunc) *Channel {
	c := &Channel{plink: pl, sched: sched, deliver: deliver}
	c.deliverH = sched.Register(func(now sim.Cycle) {
		var tf txFlit
		if x := c.pending.cross; x != nil {
			tf = x.Pop()
		} else {
			tf = c.pending.popLocal()
		}
		if c.rel != nil {
			c.relArrival(now, tf)
			return
		}
		c.deliver(now, tf.f)
	})
	return c
}

// SetKeys assigns the channel's ordering keys (see the field docs). Must be
// called during construction, before any flit is sent.
func (c *Channel) SetKeys(selfKey, deliverKey uint32) {
	c.selfKey = selfKey
	c.deliverKey = deliverKey
}

// Keys returns the channel's ordering keys (see SetKeys).
func (c *Channel) Keys() (selfKey, deliverKey uint32) { return c.selfKey, c.deliverKey }

// CrossShards declares that the channel's sender and receiver run in
// different shards, so the one FIFO between their windows publishes
// through a shardrun.Ring: pending on a lossless channel, rx on a reliable
// one. Every other FIFO stays a plain inline ring. Must be called during
// construction, before any flit is sent; EnableReliability may come before
// or after it.
func (c *Channel) CrossShards() {
	if c.rel != nil {
		c.rel.rx.cross = shardrun.NewRing[FlitRef](rxCap)
		return
	}
	c.pending.cross = shardrun.NewRing[txFlit](pendingCap)
}

// EnableReliability switches the channel to reliable delivery under cfg and
// registers the protocol's handlers. Must be called during network
// construction, before any flit is sent.
func (c *Channel) EnableReliability(cfg ReliabilityConfig) {
	if c.rel != nil {
		panic("router: EnableReliability called twice")
	}
	if cfg.Source == nil || cfg.Window <= 0 || cfg.AckDelay <= 0 || cfg.Timeout <= 0 ||
		cfg.MaxRetries <= 0 || cfg.ResetCycles <= 0 {
		panic(fmt.Sprintf("router: bad reliability config %+v", cfg))
	}
	c.rel = &relState{
		cfg:     cfg,
		retx:    make([]txFlit, cfg.Window),
		acceptH: c.sched.Register(c.accept),
		fbH:     c.sched.Register(c.feedback),
		pumpH:   c.sched.Register(c.pumpReplay),
		wdH:     c.sched.Register(c.watchdog),
	}
	if c.pending.cross != nil {
		// A reliable arrival runs in the sender's shard, so the crossing
		// moves from pending to rx.
		c.pending.cross = nil
		c.CrossShards()
	}
}

// accept moves the next accepted flit out of the rx pipeline register into
// the downstream receiver.
func (c *Channel) accept(now sim.Cycle) {
	c.deliver(now, c.rel.rx.pop())
}

// feedback sends the receiver's pending ACK/NACK to the sender.
func (c *Channel) feedback(now sim.Cycle) {
	r := c.rel
	r.fbArmed = false
	nack := r.wantReplay
	r.wantReplay = false
	c.processFeedback(now, r.rxExpect, nack)
}

// ReliabilityEnabled reports whether this channel runs the retransmission
// protocol.
func (c *Channel) ReliabilityEnabled() bool { return c.rel != nil }

// PLink returns the channel's power-aware link state machine.
func (c *Channel) PLink() *powerlink.Link { return c.plink }

// physUsable is the lossless-channel availability check: the previous flit
// finishes some time within this cycle (fractional flit times at rates like
// 6 Gb/s must not round up to whole cycles, or the link would lose real
// capacity) and the link is powered and locked.
func (c *Channel) physUsable(now sim.Cycle) bool {
	return c.busyUntilMC < (int64(now)+1)*1000 && c.plink.BitRateGbps(now) > 0
}

// Usable reports whether a new flit could start serialising during cycle
// now. With reliability enabled the retransmit window must have room, no
// go-back-N replay may be in progress (replayed flits must precede new ones
// on the wire), and the link must not be hard-down or resetting.
func (c *Channel) Usable(now sim.Cycle) bool {
	if !c.physUsable(now) {
		return false
	}
	r := c.rel
	if r == nil {
		return true
	}
	if r.sendSeq-r.ackSeq >= uint64(r.cfg.Window) || r.replayNext < r.sendSeq || r.downUntil > now {
		return false
	}
	if down, _ := r.cfg.Source.DownWindow(r.cfg.Link, now); down {
		return false
	}
	return true
}

// NextUsableAt returns the earliest cycle >= now at which the channel is
// expected to accept a flit. If the link is off (ablation mode) a wake
// request is issued as a side effect — waiting traffic is the demand
// signal that re-activates an off link. The estimate is a lower bound;
// callers (router outputs, NICs) re-poll via wheel-scheduled wake events,
// so reliability stalls (window full, replay, reset) report the feedback
// timescale and the polling loop converges once the stall clears.
func (c *Channel) NextUsableAt(now sim.Cycle) sim.Cycle {
	t := sim.Cycle(c.busyUntilMC / 1000)
	if t < now {
		t = now
	}
	// Only probe the link at the present cycle — advancing its lazy state
	// machine into the future would break other same-cycle observers.
	if c.plink.Level(now) == powerlink.OffLevel {
		c.plink.RequestStep(now, +1)
	}
	if at := c.plink.AvailableAt(now); at > t {
		t = at
	}
	if r := c.rel; r != nil {
		if r.downUntil > t {
			t = r.downUntil
		}
		if down, until := r.cfg.Source.DownWindow(r.cfg.Link, now); down && until > t {
			t = until
		}
		if r.sendSeq-r.ackSeq >= uint64(r.cfg.Window) || r.replayNext < r.sendSeq {
			if at := now + r.cfg.AckDelay; at > t {
				t = at
			}
		}
	}
	return t
}

// Send begins serialising f at cycle now and schedules its delivery. The
// caller must have checked Usable; Send panics otherwise (a simulator bug,
// not a network condition). With reliability enabled the flit is stamped
// with a sequence number and CRC and retained for replay until the
// receiver's cumulative ack covers it.
func (c *Channel) Send(now sim.Cycle, f FlitRef) sim.Cycle {
	tf := txFlit{f: f}
	if r := c.rel; r != nil {
		if r.sendSeq-r.ackSeq >= uint64(r.cfg.Window) {
			panic("router: Send with full retransmit window")
		}
		if r.replayNext < r.sendSeq {
			panic("router: Send during go-back-N replay")
		}
		tf.seq = r.sendSeq
		tf.pktID = f.Pkt.ID
		r.retx[tf.seq%uint64(r.cfg.Window)] = tf
		if r.ackSeq == r.sendSeq {
			// First unacknowledged flit: start the progress clock.
			r.lastProgress = now
			c.armWatchdog(now + r.cfg.Timeout)
		}
		r.sendSeq++
		r.replayNext = r.sendSeq
	}
	return c.transmit(now, tf)
}

// transmit serialises tf onto the wire: the physical layer shared by fresh
// sends and replays. The CRC is computed here (per physical transmission)
// and the fault injector's corruption mask, if any, is folded in — each
// replay is a fresh wire crossing with a fresh error draw.
func (c *Channel) transmit(now sim.Cycle, tf txFlit) sim.Cycle {
	rate := c.plink.BitRateGbps(now)
	if rate <= 0 {
		panic("router: Send on disabled link")
	}
	startMC := int64(now) * 1000
	if c.busyUntilMC >= startMC+1000 {
		panic("router: Send on busy channel")
	}
	// Continue from the exact point the previous flit finished, so the
	// sub-cycle remainder of fractional flit times is not lost.
	if c.busyUntilMC > startMC {
		startMC = c.busyUntilMC
	}
	if r := c.rel; r != nil {
		tf.crc = flitCRC(tf.pktID, tf.seq, tf.f.VC)
		if mask := r.cfg.Source.CorruptionMask(r.cfg.Link, now); mask != 0 {
			tf.crc ^= mask
		}
	}
	mbpc := sim.MilliBitsPerCycle(rate)
	durMC := (sim.FlitMilliBits*1000 + mbpc/2) / mbpc
	if durMC < 1 {
		durMC = 1
	}
	c.busyUntilMC = startMC + durMC
	c.busyCycles += float64(durMC) / 1000
	c.flits++

	arrival := sim.Cycle((c.busyUntilMC + 999) / 1000)
	if arrival <= now {
		arrival = now + 1
	}
	if x := c.pending.cross; x != nil {
		x.Push(tf)
	} else {
		c.pending.pushLocal(tf)
	}
	// A lossless delivery mutates the downstream receiver; a reliable
	// arrival mutates the sender-owned protocol state (the receiver is
	// reached via acceptH one cycle later).
	key := c.deliverKey
	if c.rel != nil {
		key = c.selfKey
	}
	c.sched.Schedule(arrival, key, c.deliverH)
	return arrival
}

// relArrival is the receiver side of the retransmission protocol: exactly
// the next expected sequence number with a valid CRC is delivered; all else
// is dropped, and gaps or corruption trigger a NACK on the next feedback.
func (c *Channel) relArrival(now sim.Cycle, tf txFlit) {
	r := c.rel
	if r.downUntil > now {
		r.stats.LostToDown++
		return // lost in the reset; the sender's watchdog replays it
	}
	if down, _ := r.cfg.Source.DownWindow(r.cfg.Link, now); down {
		r.stats.LostToDown++
		return // lost in the failure window; ditto
	}
	switch {
	case tf.seq < r.rxExpect:
		// Go-back-N replays everything from the last cumulative ack, so
		// already-delivered flits reappear. Drop them by sequence number
		// alone — the *Packet may already be recycled.
		r.stats.Duplicates++
	case tf.seq > r.rxExpect:
		// A gap: an earlier flit was lost while the link was down.
		r.wantReplay = true
	default:
		if flitCRC(tf.pktID, tf.seq, tf.f.VC) != tf.crc {
			r.stats.Corrupted++
			r.wantReplay = true
			break
		}
		r.rxExpect++
		r.rx.push(tf.f)
		c.sched.Schedule(now+1, c.deliverKey, r.acceptH)
	}
	// Every arrival (even a drop) is worth reporting: the cumulative ack
	// releases sender window space, and wantReplay rides along.
	if !r.fbArmed {
		r.fbArmed = true
		c.sched.Schedule(now+r.cfg.AckDelay, c.selfKey, r.fbH)
	}
}

// processFeedback is the sender's reaction to one ACK/NACK: free the window
// through the cumulative ack, and on NACK rewind the replay cursor to the
// first unacknowledged flit (go-back-N).
func (c *Channel) processFeedback(now sim.Cycle, cumAck uint64, nack bool) {
	r := c.rel
	if cumAck > r.ackSeq {
		r.ackSeq = cumAck
		r.lastProgress = now
		r.retries = 0
		if r.replayNext < r.ackSeq {
			r.replayNext = r.ackSeq
		}
	}
	if nack && r.ackSeq < r.sendSeq {
		r.stats.Nacks++
		r.replayNext = r.ackSeq
		c.armPump(now + 1)
	}
}

// pumpReplay retransmits the flit at the replay cursor once the physical
// channel can carry it, rescheduling itself until the replay catches up
// with sendSeq. Replays traverse the same serialisation path as fresh
// flits, so busy time and flit counts reflect the real wire occupancy.
func (c *Channel) pumpReplay(now sim.Cycle) {
	r := c.rel
	r.pumpArmed = false
	if r.replayNext < r.ackSeq {
		r.replayNext = r.ackSeq // acked mid-replay; skip ahead
	}
	if r.replayNext >= r.sendSeq {
		return // replay complete (or everything acked)
	}
	if r.downUntil > now {
		c.armPump(r.downUntil)
		return
	}
	if down, until := r.cfg.Source.DownWindow(r.cfg.Link, now); down {
		c.armPump(until)
		return
	}
	if c.plink.BitRateGbps(now) <= 0 {
		at := c.plink.AvailableAt(now)
		if at <= now {
			at = now + 1
		}
		c.armPump(at)
		return
	}
	if c.busyUntilMC >= (int64(now)+1)*1000 {
		at := sim.Cycle(c.busyUntilMC / 1000)
		if at <= now {
			at = now + 1
		}
		c.armPump(at)
		return
	}
	tf := r.retx[r.replayNext%uint64(r.cfg.Window)]
	r.replayNext++
	r.stats.Retransmits++
	c.transmit(now, tf)
	if r.replayNext < r.sendSeq {
		c.armPump(now + 1)
	}
}

// watchdog fires when unacknowledged flits have seen no progress for
// Timeout cycles: it rewinds the replay cursor, and after MaxRetries
// consecutive barren replays escalates to a link reset (down for
// ResetCycles, then replay resumes).
func (c *Channel) watchdog(now sim.Cycle) {
	r := c.rel
	r.wdArmed = false
	if r.ackSeq >= r.sendSeq {
		return // everything acked; disarm until the next send
	}
	if due := r.lastProgress + r.cfg.Timeout; now < due {
		c.armWatchdog(due)
		return
	}
	r.stats.Timeouts++
	r.retries++
	if r.retries > r.cfg.MaxRetries {
		r.stats.Escalations++
		r.retries = 0
		r.downUntil = now + r.cfg.ResetCycles
		if c.downNotify != nil {
			c.downNotify(now, r.downUntil)
		}
	}
	r.lastProgress = now
	r.replayNext = r.ackSeq
	c.armPump(now + 1)
	c.armWatchdog(now + r.cfg.Timeout)
}

func (c *Channel) armPump(at sim.Cycle) {
	r := c.rel
	if r.pumpArmed {
		return
	}
	r.pumpArmed = true
	c.sched.Schedule(at, c.selfKey, r.pumpH)
}

func (c *Channel) armWatchdog(at sim.Cycle) {
	r := c.rel
	if r.wdArmed {
		return
	}
	r.wdArmed = true
	c.sched.Schedule(at, c.selfKey, r.wdH)
}

// OutstandingFlits returns the number of flits granted onto this channel
// (credits held upstream) but not yet delivered downstream — the audit's
// extra conservation slack while corruption, loss, or replay is pending.
// Zero without reliability or when fully drained.
func (c *Channel) OutstandingFlits() int {
	if c.rel == nil {
		return 0
	}
	return int(c.rel.sendSeq - c.rel.rxExpect)
}

// RxPending returns the number of accepted flits still waiting in the rx
// pipeline register (acknowledged to the sender, not yet in the downstream
// buffer) — additional conservation slack for the audit. Zero without
// reliability.
func (c *Channel) RxPending() int {
	if c.rel == nil {
		return 0
	}
	return c.rel.rx.len()
}

// SetDownNotify sets the callback invoked whenever a watchdog escalation
// resets the link: escalations are the only surprise downtime, since
// scheduled failure windows are known up front. The network's callback
// spools each escalation for its recovery and telemetry layers.
func (c *Channel) SetDownNotify(fn func(now, until sim.Cycle)) { c.downNotify = fn }

// DownUntil returns the cycle at which a link that is hard-down at now is
// expected back up, or now itself when the link is up. Open-ended only for
// permanent scheduled failures (RepairAt == 0), reported as a far-future
// sentinel by the injector.
func (c *Channel) DownUntil(now sim.Cycle) sim.Cycle {
	r := c.rel
	if r == nil {
		return now
	}
	t := now
	if r.downUntil > t {
		t = r.downUntil
	}
	if down, until := r.cfg.Source.DownWindow(r.cfg.Link, now); down && until > t {
		t = until
	}
	return t
}

// DownAt reports whether the link is hard-down at now: inside a scheduled
// failure window or an escalated reset.
func (c *Channel) DownAt(now sim.Cycle) bool {
	r := c.rel
	if r == nil {
		return false
	}
	if r.downUntil > now {
		return true
	}
	down, _ := r.cfg.Source.DownWindow(r.cfg.Link, now)
	return down
}

// RelStats returns the channel's reliability counters (zero value without
// reliability).
func (c *Channel) RelStats() RelStats {
	if c.rel == nil {
		return RelStats{}
	}
	return c.rel.stats
}

// BusyCycles returns the cumulative serialisation time in (fractional)
// router cycles — the policy controller's Lu numerator.
func (c *Channel) BusyCycles() float64 { return c.busyCycles }

// Flits returns the number of flits transmitted (including replays).
func (c *Channel) Flits() int64 { return c.flits }

// String implements fmt.Stringer for debugging.
func (c *Channel) String() string {
	return fmt.Sprintf("channel{busyUntilMC=%d flits=%d}", c.busyUntilMC, c.flits)
}

// crcTable maps the top byte of a CRC-16/CCITT register (polynomial 0x1021,
// MSB first), already XORed with the next input byte, to that byte's eight
// shift-and-reduce steps.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// flitCRC computes the CRC-16/CCITT (init 0xFFFF) of a flit's wire header:
// the packet ID and the link sequence number, each least significant byte
// first, then the VC — one table step per byte. The simulator does not model
// payload bits; corrupting the stored CRC with the injector's error mask is
// equivalent to corrupting any header or payload bit the CRC covers.
func flitCRC(pktID int64, seq uint64, vc int8) uint16 {
	crc := uint16(0xFFFF)
	for i := 0; i < 64; i += 8 {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^byte(uint64(pktID)>>i)]
	}
	for i := 0; i < 64; i += 8 {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^byte(seq>>i)]
	}
	return crc<<8 ^ crcTable[byte(crc>>8)^byte(vc)]
}
