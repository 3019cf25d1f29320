package router

import (
	"fmt"

	"repro/internal/sim"
)

// RouteFunc computes, at router routerID, the output port for packet p and
// the set of downstream virtual channels the packet may claim there (bit v
// set = VC v allowed). inVC is the input VC the packet arrived on — escape
// VC disciplines route restrictively once a packet is on the escape layer.
// The mask must be non-zero; a routing function with no VC policy returns
// all ones.
type RouteFunc func(routerID int, p *Packet, inVC int) (port int, vcMask uint32)

// AllVCs builds the unrestricted VC mask for n virtual channels.
func AllVCs(n int) uint32 { return uint32(1)<<uint(n) - 1 }

// Sched is the event-scheduling half of the surrounding simulation. Under
// sharding this is the router's owning shard, which registers handlers with
// the global wheel and stages schedules for the cycle barrier; a standalone
// router or channel takes a *sim.Wheel, whose methods have these
// signatures. The key orders same-cycle events canonically (see
// sim.Entry); key 0 is the sequential coordinator band.
type Sched interface {
	// Register adds ev to the wheel's handler table and returns its
	// handle. Called only during construction.
	Register(ev sim.Event) sim.Handler
	// Schedule enqueues handler h to fire at cycle at.
	Schedule(at sim.Cycle, key uint32, h sim.Handler)
}

// Scheduler is the part of the surrounding network the router talks to:
// event scheduling plus the active-output work list.
type Scheduler interface {
	Sched
	// ActivateOutput queues o for grant processing; idempotent while the
	// output is already active.
	ActivateOutput(o *Output)
}

// CreditSink receives returned credits for a virtual channel: the upstream
// output port of a router-to-router link, or a NIC for an injection link.
type CreditSink interface {
	ReturnCredit(now sim.Cycle, vc int)
}

// Config parameterises one router.
type Config struct {
	ID       int
	Ports    int
	VCs      int
	BufDepth int // flits per input VC
	Route    RouteFunc
	// Key is the ordering key of the router's self-scheduled events (HOL
	// eligibility, output wake-ups). 0 is fine for a standalone router on a
	// bare wheel, where every key is then 0 and BeginCycle fires in
	// insertion order; a sharded network gives every router its own key
	// from its layout (DESIGN.md §6g).
	Key uint32
	// EscapeVCs reserves the first EscapeVCs virtual channels of every
	// port as the escape layer of fault-aware routing (Duato-style): VC
	// allocation prefers the remaining adaptive VCs and only claims an
	// escape VC when the routing function's mask offers it. 0 disables —
	// allocation order and behaviour are then exactly the historical ones.
	EscapeVCs int
}

// Router is one 5-stage pipelined virtual-channel wormhole router. Its
// mutable state lives in records that are also its checkpoint: st for the
// router itself, and one per input VC and per output (see snapshot.go).
type Router struct {
	id        int
	ports     int
	vcs       int
	depth     int
	escapeVCs int
	route     RouteFunc
	sched     Scheduler
	selfKey   uint32 // ordering key for self-scheduled events (HOL, wake)

	ins  []inputVC
	outs []Output
	st   RouterState
}

// inputVC is one input virtual channel: its record, its flit buffer, the
// packet whose wormhole owns it, and its credit-return wiring.
type inputVC struct {
	st     InputVCState
	buf    *Buffer
	curPkt *Packet // packet whose wormhole currently owns this input VC
	//optolint:derived credit-return wiring re-installed by SetUpstream during construction
	upstream CreditSink
	//optolint:derived credit-return wiring re-installed by SetUpstream during construction
	upVC int
	//optolint:derived credit-return wiring re-installed by SetUpstream during construction
	creditKey uint32 // ordering key for credit returns: (upstream owner, us)

	holH    sim.Handler // fires register() when the HOL flit becomes ready
	creditH sim.Handler // returns one credit upstream
}

// Output is one router output port: the request list competing for it, its
// output virtual channels (tracking downstream buffer credits and wormhole
// ownership), and the physical channel. Its mutable state is its record
// st, which is also its checkpoint.
type Output struct {
	router *Router
	port   int
	//optolint:derived physical-channel wiring re-installed by ConnectOutput during construction
	ch    *Channel
	st    OutputState
	wakeH sim.Handler
}

// CreditStalls returns how many grant attempts this output port rejected
// because the chosen output VC had no downstream credits — a direct measure
// of backpressure on the port.
func (o *Output) CreditStalls() int64 { return o.st.CreditStalls }

// New builds a router with all ports and VCs initialised. Channels are
// attached afterwards via ConnectOutput; input-port upstreams via
// SetUpstream.
func New(cfg Config, sched Scheduler) *Router {
	if cfg.Ports <= 0 || cfg.VCs <= 0 || cfg.BufDepth <= 0 {
		panic(fmt.Sprintf("router: bad config %+v", cfg))
	}
	if cfg.EscapeVCs < 0 || cfg.EscapeVCs >= cfg.VCs {
		panic(fmt.Sprintf("router: EscapeVCs %d must be in [0, VCs=%d)", cfg.EscapeVCs, cfg.VCs))
	}
	r := &Router{
		id:        cfg.ID,
		ports:     cfg.Ports,
		vcs:       cfg.VCs,
		depth:     cfg.BufDepth,
		escapeVCs: cfg.EscapeVCs,
		route:     cfg.Route,
		sched:     sched,
		selfKey:   cfg.Key,
		ins:       make([]inputVC, cfg.Ports*cfg.VCs),
		outs:      make([]Output, cfg.Ports),
		st:        RouterState{InputBusy: make([]sim.Cycle, cfg.Ports)},
	}
	for i := range r.st.InputBusy {
		r.st.InputBusy[i] = -1
	}
	for i := range r.ins {
		in := &r.ins[i]
		in.buf = NewBuffer(cfg.BufDepth)
		in.st = InputVCState{Route: -1, OutVC: -1}
		idx := i
		in.holH = sched.Register(func(now sim.Cycle) { r.register(now, idx) })
		in.creditH = sched.Register(func(now sim.Cycle) {
			in := &r.ins[idx]
			in.st.CreditsReturned++
			if up := in.upstream; up != nil {
				up.ReturnCredit(now, in.upVC)
			}
		})
	}
	for p := range r.outs {
		o := &r.outs[p]
		o.router = r
		o.port = p
		o.st.OVC = make([]OutVCState, cfg.VCs)
		for v := range o.st.OVC {
			o.st.OVC[v] = OutVCState{Credits: cfg.BufDepth, Owner: -1}
		}
		o.wakeH = sched.Register(func(now sim.Cycle) {
			o.st.WakePending = false
			if len(o.st.Req) > 0 {
				r.sched.ActivateOutput(o)
			}
		})
	}
	return r
}

// ID returns the router's identifier.
func (r *Router) ID() int { return r.id }

// Ports returns the number of ports.
func (r *Router) Ports() int { return r.ports }

// VCs returns the number of virtual channels per port.
func (r *Router) VCs() int { return r.vcs }

// FlitsRouted returns the number of flits this router has switched.
func (r *Router) FlitsRouted() int64 { return r.st.FlitsRouted }

// Output returns output port p.
func (r *Router) Output(p int) *Output { return &r.outs[p] }

// InputBuffer returns the buffer of input port p, virtual channel v —
// what the upstream link's policy controller samples for Bu.
func (r *Router) InputBuffer(p, v int) *Buffer { return r.ins[p*r.vcs+v].buf }

// CreditsInFlight returns the number of credit returns for input port p,
// VC v that are scheduled but not yet delivered upstream — conservation
// slack for the audit (a killed packet's discard puts one per flit in
// flight at once).
func (r *Router) CreditsInFlight(p, v int) int { return r.ins[p*r.vcs+v].creditsInFlight() }

func (in *inputVC) creditsInFlight() int { return in.st.CreditsSent - in.st.CreditsReturned }

// SetUpstream wires the credit-return path for input port p, VC v: when a
// flit leaves that buffer, sink.ReturnCredit(·, upVC) is invoked after
// CreditDelay cycles, ordered under creditKey. The credit event mutates
// upstream state, so it executes on the sink owner's shard; the network
// keys it (sink owner, this router).
func (r *Router) SetUpstream(p, v int, sink CreditSink, upVC int, creditKey uint32) {
	in := &r.ins[p*r.vcs+v]
	in.upstream = sink
	in.upVC = upVC
	in.creditKey = creditKey
}

// Key returns the ordering key of the router's self-scheduled events.
func (r *Router) Key() uint32 { return r.selfKey }

// CreditKey returns the ordering key of input port p, VC v's credit
// returns (see SetUpstream).
func (r *Router) CreditKey(p, v int) uint32 { return r.ins[p*r.vcs+v].creditKey }

// ConnectOutput attaches the physical channel for output port p.
func (r *Router) ConnectOutput(p int, ch *Channel) { r.outs[p].ch = ch }

// AcceptFlit is the delivery function for channels terminating at input
// port p of this router: the flit is written into the VC buffer it was
// sent on and pipeline eligibility is stamped.
func (r *Router) AcceptFlit(p int) DeliverFunc {
	return func(now sim.Cycle, f FlitRef) {
		ivc := p*r.vcs + int(f.VC)
		in := &r.ins[ivc]
		if f.IsHead() {
			f.ReadyAt = now + HeadPipeDelay
		} else {
			f.ReadyAt = now + BodyPipeDelay
		}
		wasEmpty := in.buf.Len() == 0
		in.buf.Push(now, f)
		if wasEmpty {
			in.st.ProgressAt = now
			r.register(now, ivc)
		}
	}
}

// register makes input VC ivc's head-of-line flit compete for its output
// port, scheduling itself for later if the flit is not yet pipeline-ready.
// Flits of packets killed at this router are discarded here instead.
func (r *Router) register(now sim.Cycle, ivc int) {
	in := &r.ins[ivc]
	if in.st.InReq || in.buf.Len() == 0 {
		return
	}
	f := in.buf.Front()
	if f.Pkt.Killed && f.Pkt.KillRouter == r.id {
		r.discardKilled(now, ivc)
		if in.buf.Len() == 0 {
			return
		}
		f = in.buf.Front()
	}
	if f.ReadyAt > now {
		r.sched.Schedule(f.ReadyAt, r.selfKey, in.holH)
		return
	}
	if f.IsHead() && in.st.Route < 0 {
		port, mask := r.route(r.id, f.Pkt, ivc%r.vcs) // route computation stage
		if port < 0 || port >= r.ports {
			panic(fmt.Sprintf("router %d: route for packet %d -> invalid port %d", r.id, f.Pkt.ID, port))
		}
		if mask == 0 {
			panic(fmt.Sprintf("router %d: empty VC mask for packet %d", r.id, f.Pkt.ID))
		}
		in.st.Route = port
		in.st.VCMask = mask
		in.curPkt = f.Pkt
	}
	o := &r.outs[in.st.Route]
	in.st.InReq = true
	o.st.Req = append(o.st.Req, ivc)
	r.sched.ActivateOutput(o)
}

// discardKilled drops the flits of the killed packet at the head of input
// VC ivc, returning one upstream credit per flit. When the packet's tail
// passes, the wormhole state it held through this router is released. The
// caller must have detached ivc from any request list first.
func (r *Router) discardKilled(now sim.Cycle, ivc int) {
	in := &r.ins[ivc]
	for in.buf.Len() > 0 {
		f := in.buf.Front()
		p := f.Pkt
		if !p.Killed || p.KillRouter != r.id {
			return
		}
		in.buf.Pop(now)
		in.st.ProgressAt = now
		r.st.FlitsDiscarded++
		if in.upstream != nil {
			in.st.CreditsSent++
			r.sched.Schedule(now+CreditDelay, in.creditKey, in.creditH)
		}
		if f.IsTail() && in.curPkt == p {
			if in.st.OutVC >= 0 {
				r.outs[in.st.Route].st.OVC[in.st.OutVC].Owner = -1
				in.st.OutVC = -1
			}
			in.st.Route = -1
			in.curPkt = nil
		}
	}
}

// detach removes input VC ivc from its output's request list, if queued.
func (r *Router) detach(ivc int) {
	in := &r.ins[ivc].st
	if !in.InReq {
		return
	}
	o := &r.outs[in.Route].st
	for i, q := range o.Req {
		if q == ivc {
			o.Req = append(o.Req[:i], o.Req[i+1:]...)
			break
		}
	}
	if len(o.Req) == 0 {
		o.RR = 0
	} else {
		o.RR %= len(o.Req)
	}
	in.InReq = false
}

// InputVCs returns the number of input virtual channels (ports × VCs);
// input VC indices run [0, InputVCs()).
func (r *Router) InputVCs() int { return len(r.ins) }

// HOL returns input VC ivc's head-of-line flit (ok=false when empty).
func (r *Router) HOL(ivc int) (FlitRef, bool) {
	in := &r.ins[ivc]
	if in.buf.Len() == 0 {
		return FlitRef{}, false
	}
	return in.buf.Front(), true
}

// ProgressAt returns the cycle of input VC ivc's last forward progress.
func (r *Router) ProgressAt(ivc int) sim.Cycle { return r.ins[ivc].st.ProgressAt }

// RerouteHOL redirects the head-of-line packet of input VC ivc to (port,
// vcMask), releasing any request-list slot and output VC it held. Only a
// packet whose head flit is still waiting here can change course — once
// body flits follow, the wormhole is committed. Reports whether the
// reroute was applied.
func (r *Router) RerouteHOL(now sim.Cycle, ivc, port int, vcMask uint32) bool {
	in := &r.ins[ivc]
	if in.buf.Len() == 0 || vcMask == 0 || port < 0 || port >= r.ports {
		return false
	}
	f := in.buf.Front()
	if !f.IsHead() {
		return false
	}
	if in.st.Route == port && in.st.VCMask == vcMask {
		// Already restricted to exactly this route: re-registering would be
		// a no-op, and reporting success would let a caller's escalation
		// counter tick on every scan for one stuck packet.
		return false
	}
	r.detach(ivc)
	if in.st.OutVC >= 0 {
		r.outs[in.st.Route].st.OVC[in.st.OutVC].Owner = -1
		in.st.OutVC = -1
	}
	in.st.Route = port
	in.st.VCMask = vcMask
	in.curPkt = f.Pkt
	r.register(now, ivc)
	return true
}

// KillHOL drops the packet whose head flit is blocked at input VC ivc: the
// packet is marked killed with this router as its discard point, its
// buffered flits are dropped with credits returned, and any flits still
// arriving from upstream are discarded on arrival. Returns the killed
// packet, or nil when the head-of-line flit is not a head (a committed
// wormhole cannot be killed here — its head router must do it).
func (r *Router) KillHOL(now sim.Cycle, ivc int) *Packet {
	in := &r.ins[ivc]
	if in.buf.Len() == 0 {
		return nil
	}
	f := in.buf.Front()
	if !f.IsHead() {
		return nil
	}
	p := f.Pkt
	r.detach(ivc)
	if in.st.OutVC >= 0 {
		r.outs[in.st.Route].st.OVC[in.st.OutVC].Owner = -1
		in.st.OutVC = -1
	}
	in.st.Route = -1
	in.curPkt = nil
	p.Killed = true
	p.KillRouter = r.id
	r.discardKilled(now, ivc)
	if in.buf.Len() > 0 {
		r.register(now, ivc)
	}
	return p
}

// DiscardedFlits returns how many killed-packet flits this router dropped.
func (r *Router) DiscardedFlits() int64 { return r.st.FlitsDiscarded }

// EscapeGrants returns how many flits this router granted onto escape VCs.
func (r *Router) EscapeGrants() int64 { return r.st.EscGrants }

// BufferedFlits returns the number of flits currently occupying this
// router's input buffers across all ports and VCs — the telemetry probe for
// instantaneous VC occupancy.
func (r *Router) BufferedFlits() int {
	n := 0
	for i := range r.ins {
		n += r.ins[i].buf.Len()
	}
	return n
}

// pickVC selects a free output VC permitted by mask, preferring adaptive
// VCs over escape VCs; with no escape VCs configured the scan is the
// historical ascending order.
func (o *Output) pickVC(mask uint32) int {
	esc := o.router.escapeVCs
	for v := esc; v < len(o.st.OVC); v++ {
		if mask&(1<<uint(v)) != 0 && o.st.OVC[v].Owner < 0 {
			return v
		}
	}
	for v := 0; v < esc; v++ {
		if mask&(1<<uint(v)) != 0 && o.st.OVC[v].Owner < 0 {
			return v
		}
	}
	return -1
}

// TryGrant runs one switch-allocation round for this output port at cycle
// now: at most one flit is granted. It returns whether the output should
// remain on the active list for the next cycle.
func (o *Output) TryGrant(now sim.Cycle) bool {
	r := o.router
	if len(o.st.Req) == 0 {
		o.st.Active = false
		return false
	}
	// Link/channel availability gates everything: when the channel is
	// serialising or the link is mid-frequency-switch, sleep until it is
	// expected back.
	if !o.ch.Usable(now) {
		o.st.Active = false
		if !o.st.WakePending {
			o.st.WakePending = true
			at := o.ch.NextUsableAt(now)
			if at <= now {
				at = now + 1
			}
			r.sched.Schedule(at, r.selfKey, o.wakeH)
		}
		return false
	}

	n := len(o.st.Req)
	for k := 0; k < n; k++ {
		i := (o.st.RR + k) % n
		ivc := o.st.Req[i]
		in := &r.ins[ivc]
		inPort := ivc / r.vcs
		if r.st.InputBusy[inPort] == now {
			continue // crossbar input already used this cycle
		}
		if hol := in.buf.Front(); hol.Pkt.Killed && hol.Pkt.KillRouter == r.id {
			// Killed between registration and grant: discard instead of
			// forwarding (the watchdog normally sweeps these out first).
			o.st.Req = append(o.st.Req[:i], o.st.Req[i+1:]...)
			in.st.InReq = false
			if len(o.st.Req) > 0 {
				o.st.RR = i % len(o.st.Req)
			} else {
				o.st.RR = 0
			}
			r.discardKilled(now, ivc)
			if in.buf.Len() > 0 {
				r.register(now, ivc)
			}
			o.st.Active = len(o.st.Req) > 0
			return o.st.Active
		}
		// VC allocation for head flits that have not yet acquired an
		// output VC.
		if in.st.OutVC < 0 {
			free := o.pickVC(in.st.VCMask)
			if free < 0 {
				continue // all permitted output VCs owned; wait for a tail
			}
			o.st.OVC[free].Owner = ivc
			in.st.OutVC = free
		}
		v := in.st.OutVC
		if o.st.OVC[v].Credits == 0 {
			o.st.CreditStalls++
			continue // downstream buffer full; credit return reactivates us
		}

		// Grant: switch traversal and link transmission.
		o.st.OVC[v].Credits--
		f := in.buf.Pop(now)
		in.st.ProgressAt = now
		r.st.InputBusy[inPort] = now
		r.st.FlitsRouted++
		o.st.Grants++
		if v < r.escapeVCs {
			r.st.EscGrants++
		}
		if in.upstream != nil {
			in.st.CreditsSent++
			r.sched.Schedule(now+CreditDelay, in.creditKey, in.creditH)
		}
		f.VC = int8(v)
		o.ch.Send(now, f)

		if f.IsTail() {
			o.st.OVC[v].Owner = -1
			in.st.OutVC = -1
			in.st.Route = -1
			in.curPkt = nil
		}

		// Remove ivc from the request list (ordered, for stable fairness)
		// and advance the round-robin pointer past the granted slot.
		o.st.Req = append(o.st.Req[:i], o.st.Req[i+1:]...)
		in.st.InReq = false
		if len(o.st.Req) > 0 {
			o.st.RR = i % len(o.st.Req)
		} else {
			o.st.RR = 0
		}
		// Re-register the next flit in this VC (it may target the same or,
		// after a tail, a different output).
		if in.buf.Len() > 0 {
			r.register(now, ivc)
		}
		o.st.Active = len(o.st.Req) > 0
		return o.st.Active
	}
	// Requests exist but none could be granted this cycle (input-port
	// conflicts, VC exhaustion, or zero credits). Stay active: conflicts
	// clear next cycle, and credit returns also re-activate us.
	return true
}

// ReturnCredit implements CreditSink for the downstream side of this
// output's link: a flit left the downstream input buffer, freeing a slot.
func (o *Output) ReturnCredit(now sim.Cycle, vc int) {
	o.st.OVC[vc].Credits++
	if sim.Debug {
		sim.Assertf(o.st.OVC[vc].Credits <= o.router.depth,
			"router %d output %d vc %d: %d credits exceed buffer depth %d (credit conservation broken)",
			o.router.id, o.port, vc, o.st.OVC[vc].Credits, o.router.depth)
	}
	if len(o.st.Req) > 0 {
		o.router.sched.ActivateOutput(o)
	}
}

// Credits returns the available credits on output VC v (tests/diagnostics).
func (o *Output) Credits(v int) int { return o.st.OVC[v].Credits }

// TotalCredits returns the credits summed over the output's VCs — the
// congestion signal adaptive routing selects by.
func (o *Output) TotalCredits() int {
	var sum int
	for v := range o.st.OVC {
		sum += o.st.OVC[v].Credits
	}
	return sum
}

// Grants returns the number of flits this output has switched.
func (o *Output) Grants() int64 { return o.st.Grants }

// Channel returns the attached physical channel.
func (o *Output) Channel() *Channel { return o.ch }

// Port returns the output's port index.
func (o *Output) Port() int { return o.port }

// Active reports whether the output is on the scheduler's work list.
func (o *Output) Active() bool { return o.st.Active }

// SetActive marks the output as queued; used by the Scheduler only.
func (o *Output) SetActive(v bool) { o.st.Active = v }
