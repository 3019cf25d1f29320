package network

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/router"
	"repro/internal/shardrun"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// Network is a fully wired power-aware opto-electronic networked system:
// routers, NICs, every unidirectional link with its power state machine,
// and (when power-aware) one policy controller per link.
type Network struct {
	cfg   Config
	wheel *sim.Wheel

	routers     []*router.Router
	nics        []*NIC
	channels    []*router.Channel
	controllers []policy.LinkPolicy
	// ctrlChans is the channel behind each controller (same order), for
	// the policy-level energy/trace accessors.
	ctrlChans []*router.Channel
	// policyRec records the per-window demand/margin trace for the regret
	// oracle, nil unless cfg.Policy.RecordTrace.
	policyRec *policy.Recorder
	// timerH is each controller's OnTimer handler, by controller ordinal
	// (0 for policies that arm no timers).
	timerH []sim.Handler

	// Sharded core (DESIGN.md §6g). Even a single-shard network runs
	// through shard 0 — the canonical engine is the only engine, so the
	// shard count is purely a performance knob.
	shards []*shard
	//optolint:derived worker pool rebuilt at construction; Close tears it down
	runner *shardrun.Pool // nil when len(shards) == 1
	tasks  []func()
	//optolint:derived transient: stamped at the top of every Step, meaningless between steps
	stepNow    sim.Cycle // cycle the current parallel region runs at
	perCol     int       // actor ids per mesh column (see shard.go)
	srcBits    uint      // width of an ordering key's src field (see shard.go)
	shardWidth int       // mesh columns per shard
	chanOwner  []*shard  // owning shard per global link index

	gen  traffic.Generator
	rngs []*sim.RNG

	// injector is the fault injector, nil unless cfg.Fault is enabled.
	injector *fault.Injector

	// rec is the fault-aware routing and recovery subsystem, nil unless
	// cfg.Recovery.Enabled. baseRoute is the configured scheme's plain
	// port function, which recoveryRoute consults for its preference.
	rec       *recovery
	baseRoute func(routerID int, p *router.Packet) int

	// Mesh topology tables: the outgoing channel and global link index per
	// (router, direction), and the reverse map from an inter-router link
	// index to its (router, direction). Unwired mesh edges are nil / -1.
	meshOut  [][4]*router.Channel
	meshLink [][4]int
	meshRef  []meshPos

	// st is the network's clock record (see ClockState). The per-packet
	// counters live in the shards' records and are merged by totals.
	st ClockState

	// Fast-forward: RunTo and RunUntilQuiescent skip idle gaps unless
	// disabled (see SetFastForward).
	//optolint:derived run-mode toggle, not simulated state: FF on and off are result-equivalent by construction
	ffDisabled bool

	// Coordinator scratch, reused across cycles and summaries.
	sum          Counters // totals' merged record
	levelScratch []int    // LevelHistogram buckets, allocated at build
	//optolint:derived drain scratch, reused across cycles, never holds state across a step boundary
	flightScratch []telemetry.Event // flight-spool drain scratch
	//optolint:derived drain scratch, reused across cycles, never holds state across a step boundary
	downScratch []downNote // down-notification drain scratch

	// OnDeliver, when set, observes every delivered packet (measured or
	// not) — used by the experiment harnesses to build time series.
	OnDeliver func(now sim.Cycle, p *router.Packet, latency sim.Cycle)

	// telem is the telemetry registry, nil unless cfg.Telemetry.Enabled;
	// telemLat is its "packet_latency" histogram, cached for the delivery
	// hot path.
	telem *telemetry.Registry
	//optolint:derived cache of the registry's packet_latency histogram, re-wired at construction
	telemLat *stats.Histogram
}

// wheelSize is the network wheel's bucket count, and so its horizon in
// cycles. Per-flit events (channel arrival, credit return, pipeline,
// wake-ups) land 1–4 cycles ahead — 99.97 % of schedules at the Fig. 5
// medium load — so 64 buckets hold nearly every event in a wheel small
// enough to stay cache-resident; the rare long waits (retransmit watchdog,
// telemetry sampler, failure windows) go to its far heap.
const wheelSize = 64

// New assembles a network from cfg with traffic generator gen (nil for a
// quiet network driven only by tests).
func New(cfg Config, gen traffic.Generator) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ownerBits, srcBits := cfg.keyBits()
	if ownerBits+srcBits > 32 {
		return nil, fmt.Errorf("network: ordering keys need %d bits (%d owner + %d src), more than the 32 a key holds",
			ownerBits+srcBits, ownerBits, srcBits)
	}
	n := &Network{
		cfg:   cfg,
		wheel: sim.NewWheel(wheelSize),
		gen:   gen,
	}
	n.wheel.Reserve(cfg.handlers())

	// Shards.
	K := cfg.Shards
	if K <= 0 {
		K = 1
	}
	n.perCol = cfg.actorsPerCol()
	n.srcBits = uint(srcBits)
	n.shardWidth = cfg.MeshW / K
	n.shards = make([]*shard, K)
	for i := range n.shards {
		s := &shard{n: n, idx: i, st: Counters{LatMin: -1}}
		n.shards[i] = s
		n.tasks = append(n.tasks, func() { s.runCycle(n.stepNow) })
	}
	if K > 1 {
		// K-1 workers: the coordinator runs shard 0's window inline.
		n.runner = shardrun.NewPool(K - 1)
	}
	n.levelScratch = make([]int, len(cfg.Link.LevelRates))

	// Routers. The configured scheme's plain port function becomes either
	// the whole routing function (recovery disabled: any VC, identical to
	// the historical behaviour) or the preference input to recoveryRoute.
	n.baseRoute = n.routeXY
	switch cfg.Routing {
	case RoutingYX:
		n.baseRoute = n.routeYX
	case RoutingWestFirst:
		n.baseRoute = n.routeWestFirst
	}
	route := func(routerID int, p *router.Packet, inVC int) (int, uint32) {
		return n.baseRoute(routerID, p), router.AllVCs(cfg.VCs)
	}
	escVCs := 0
	recCfg := cfg.Recovery
	if recCfg.Enabled {
		recCfg = recCfg.WithDefaults()
		escVCs = escapeVCs
		route = n.recoveryRoute
	}
	n.routers = make([]*router.Router, cfg.Routers())
	for r := range n.routers {
		a := n.routerActor(r)
		n.routers[r] = router.New(router.Config{
			ID:        r,
			Ports:     cfg.PortsPerRouter(),
			VCs:       cfg.VCs,
			BufDepth:  cfg.BufDepth,
			Route:     route,
			EscapeVCs: escVCs,
			Key:       n.key(a, a),
		}, n.shards[n.shardOfRouter(r)])
	}
	n.meshOut = make([][4]*router.Channel, cfg.Routers())
	n.meshLink = make([][4]int, cfg.Routers())
	for r := range n.meshLink {
		n.meshLink[r] = [4]int{-1, -1, -1, -1}
	}

	linkCfg := cfg.linkConfigFor()
	newLink := func() (*powerlink.Link, error) { return powerlink.New(linkCfg) }

	// Node (injection/ejection) links may be pinned at the top rate for
	// the Table 3 sensitivity study; see Config.NodeLinksPowerAware.
	nodeAware := cfg.PowerAware && cfg.NodeLinksPowerAware
	nodeLinkCfg := linkCfg
	if !nodeAware {
		nodeLinkCfg = pinnedTop(linkCfg)
	}
	newNodeLink := func() (*powerlink.Link, error) { return powerlink.New(nodeLinkCfg) }

	addController := func(pl *powerlink.Link, ch *router.Channel, bufs []*router.Buffer) error {
		if !cfg.PowerAware {
			return nil
		}
		var capSum int
		for _, b := range bufs {
			capSum += b.Cap()
		}
		src := &utilSource{ch: ch, bufs: bufs, capSum: capSum}
		pc, err := policy.New(cfg.Policy, policy.Deps{
			Link:    pl,
			Util:    src,
			Loss:    src,
			Timers:  n,
			Ordinal: len(n.controllers),
		})
		if err != nil {
			return err
		}
		var timer sim.Handler
		if tp, ok := pc.(policy.TimerPolicy); ok {
			timer = n.wheel.Register(tp.OnTimer)
		}
		n.controllers = append(n.controllers, pc)
		n.ctrlChans = append(n.ctrlChans, ch)
		n.timerH = append(n.timerH, timer)
		return nil
	}

	// Inter-router mesh links. The router and direction order fixes every
	// link's global index.
	for r := range n.routers {
		for _, dir := range [...]int{DirE, DirW, DirS, DirN} {
			dst, rev, ok := cfg.neighbor(r, dir)
			if !ok {
				continue
			}
			pl, err := newLink()
			if err != nil {
				return nil, err
			}
			inPort := cfg.meshPort(rev) // port at dst facing back
			outPort := cfg.meshPort(dir)
			owner := n.shards[n.shardOfRouter(r)]
			li := len(n.channels)
			ch := router.NewChannel(pl, owner, n.routers[dst].AcceptFlit(inPort))
			ch.SetKeys(n.key(n.routerActor(r), n.chanSrc(li)), n.key(n.routerActor(dst), n.chanSrc(li)))
			if n.shardOfRouter(r) != n.shardOfRouter(dst) {
				ch.CrossShards()
			}
			n.routers[r].ConnectOutput(outPort, ch)
			n.meshOut[r][dir] = ch
			n.meshLink[r][dir] = li
			n.meshRef = append(n.meshRef, meshPos{r: r, dir: dir})
			bufs := make([]*router.Buffer, cfg.VCs)
			for v := 0; v < cfg.VCs; v++ {
				n.routers[dst].SetUpstream(inPort, v, n.routers[r].Output(outPort), v, n.key(n.routerActor(r), n.routerActor(dst)))
				bufs[v] = n.routers[dst].InputBuffer(inPort, v)
			}
			n.channels = append(n.channels, ch)
			n.chanOwner = append(n.chanOwner, owner)
			if err := addController(pl, ch, bufs); err != nil {
				return nil, err
			}
		}
	}

	// Node links: injection (NIC -> router) and ejection (router -> sink).
	nodes := cfg.Nodes()
	n.nics = make([]*NIC, nodes)
	for node := 0; node < nodes; node++ {
		r := cfg.nodeRouter(node)
		local := cfg.nodeLocal(node)
		owner := n.shards[n.shardOfRouter(r)]

		// Injection.
		plIn, err := newNodeLink()
		if err != nil {
			return nil, err
		}
		li := len(n.channels)
		chIn := router.NewChannel(plIn, owner, n.routers[r].AcceptFlit(local))
		chIn.SetKeys(n.key(n.nicActor(node), n.chanSrc(li)), n.key(n.routerActor(r), n.chanSrc(li)))
		nic := newNIC(n, owner, node, chIn, cfg.VCs, cfg.BufDepth)
		n.nics[node] = nic
		bufs := make([]*router.Buffer, cfg.VCs)
		for v := 0; v < cfg.VCs; v++ {
			n.routers[r].SetUpstream(local, v, nic, v, n.key(n.nicActor(node), n.routerActor(r)))
			bufs[v] = n.routers[r].InputBuffer(local, v)
		}
		n.channels = append(n.channels, chIn)
		n.chanOwner = append(n.chanOwner, owner)
		if nodeAware {
			if err := addController(plIn, chIn, bufs); err != nil {
				return nil, err
			}
		}

		// Ejection: the node's receive side consumes flits on arrival, so
		// credits bounce straight back to the router's local output port.
		// Both ends live in the router's own shard.
		plOut, err := newNodeLink()
		if err != nil {
			return nil, err
		}
		out := n.routers[r].Output(local)
		li = len(n.channels)
		chOut := router.NewChannel(plOut, owner, n.sinkDeliver(out, owner))
		k := n.key(n.routerActor(r), n.chanSrc(li))
		chOut.SetKeys(k, k)
		n.routers[r].ConnectOutput(local, chOut)
		n.channels = append(n.channels, chOut)
		n.chanOwner = append(n.chanOwner, owner)
		// Ejection terminates at an always-ready sink: no downstream
		// buffer, so Bu = 0 and the uncongested thresholds apply.
		if nodeAware {
			if err := addController(plOut, chOut, nil); err != nil {
				return nil, err
			}
		}
	}

	if len(n.channels) != cfg.TotalLinks() {
		return nil, fmt.Errorf("network: wired %d links, expected %d", len(n.channels), cfg.TotalLinks())
	}

	n.st.NextPolicyTick = neverCycle
	if len(n.controllers) > 0 {
		n.st.NextPolicyTick = cfg.Policy.Window
		if cfg.Policy.RecordTrace {
			n.policyRec = policy.NewRecorder(cfg.Policy.Window, len(n.controllers))
		}
	}

	// Fault injection + link-level reliability. The injector draws from
	// its own seed stream, so a disabled config leaves every other draw —
	// and therefore every result — bit-identical.
	if fc := cfg.Fault; fc.Enabled() {
		inj, err := fault.NewInjector(fc, sim.NewStream(cfg.Seed, sim.StreamFault).Uint64(), len(n.channels))
		if err != nil {
			return nil, err
		}
		n.injector = inj
		for i, ch := range n.channels {
			inj.Bind(i, ch.PLink())
			ch.EnableReliability(router.ReliabilityConfig{
				Source:      inj,
				Link:        i,
				Window:      fault.WindowSize,
				AckDelay:    fault.AckDelay,
				Timeout:     fault.RetxTimeout,
				MaxRetries:  fault.MaxRetries,
				ResetCycles: fault.ResetCycles,
			})
			if fc.RelockFailProb > 0 {
				ch.PLink().SetRelockFaults(inj.Relock(i), fault.MaxRelockRetries)
			}
			// Watchdog escalations are spooled by the owning shard and
			// drained at the cycle barrier in link order, where the recovery
			// and telemetry layers both observe them (replacing the old
			// per-subsystem notify chain with one K-invariant path).
			s, link := n.chanOwner[i], i
			ch.SetDownNotify(func(_, until sim.Cycle) {
				s.downMailbox = append(s.downMailbox, downNote{link: link, until: until})
			})
		}
	}

	// Recovery: liveness tables, reachability, and the stall watchdog.
	// Built after the injector so the scheduled failure windows and the
	// channels' escalation notifications are both in place.
	if recCfg.Enabled {
		n.rec = newRecovery(n, recCfg)
		for _, nc := range n.nics {
			nc.minVC = escapeVCs
		}
	}

	// Telemetry last, so its probes and notify-chain hooks see the fully
	// wired system (channels, injector, recovery). No-op when disabled.
	n.initTelemetry()

	// Traffic sources. The master generator is stream 0 of the seed —
	// byte-identical to the pre-stream NewRNG(seed) derivation. Each NIC's
	// first packet goes straight on the wheel as its first arrival event.
	if gen != nil {
		master := sim.NewStream(cfg.Seed, sim.StreamTraffic)
		n.rngs = make([]*sim.RNG, nodes)
		for node := 0; node < nodes; node++ {
			n.rngs[node] = master.Fork()
		}
		for _, nc := range n.nics {
			nc.pull(-1)
			if nc.st.Next.Size > 0 {
				n.wheel.Schedule(nc.st.Next.Created, nc.selfKey, nc.arriveH)
			}
		}
	}
	if sim.Debug {
		got, want := n.wheel.ExportState().Handlers, cfg.handlers()
		sim.Assertf(got == want, "network: registered %d wheel handlers, Config.handlers sized the table for %d", got, want)
	}
	return n, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, gen traffic.Generator) *Network {
	n, err := New(cfg, gen)
	if err != nil {
		panic(err)
	}
	return n
}

// routeXY is dimension-order routing: X first, then Y, then the local
// ejection port — deadlock-free on the mesh.
func (n *Network) routeXY(routerID int, p *router.Packet) int {
	if p.DstRouter == routerID {
		return p.DstLocal
	}
	x, y := n.cfg.routerXY(routerID)
	dx, dy := n.cfg.routerXY(p.DstRouter)
	switch {
	case dx > x:
		return n.cfg.meshPort(DirE)
	case dx < x:
		return n.cfg.meshPort(DirW)
	case dy > y:
		return n.cfg.meshPort(DirS)
	default:
		return n.cfg.meshPort(DirN)
	}
}

// routeYX is dimension-order routing with Y resolved first.
func (n *Network) routeYX(routerID int, p *router.Packet) int {
	if p.DstRouter == routerID {
		return p.DstLocal
	}
	x, y := n.cfg.routerXY(routerID)
	dx, dy := n.cfg.routerXY(p.DstRouter)
	switch {
	case dy > y:
		return n.cfg.meshPort(DirS)
	case dy < y:
		return n.cfg.meshPort(DirN)
	case dx > x:
		return n.cfg.meshPort(DirE)
	default:
		return n.cfg.meshPort(DirW)
	}
}

// routeWestFirst implements the adaptive west-first turn model: all
// westward hops first, then adaptive minimal routing among the remaining
// productive directions, selecting the output with the most free
// downstream credits (ties prefer the X dimension).
func (n *Network) routeWestFirst(routerID int, p *router.Packet) int {
	if p.DstRouter == routerID {
		return p.DstLocal
	}
	x, y := n.cfg.routerXY(routerID)
	dx, dy := n.cfg.routerXY(p.DstRouter)
	if dx < x {
		return n.cfg.meshPort(DirW)
	}
	var cand []int
	if dx > x {
		cand = append(cand, n.cfg.meshPort(DirE))
	}
	if dy > y {
		cand = append(cand, n.cfg.meshPort(DirS))
	} else if dy < y {
		cand = append(cand, n.cfg.meshPort(DirN))
	}
	if len(cand) == 1 {
		return cand[0]
	}
	r := n.routers[routerID]
	best, bestScore := cand[0], r.Output(cand[0]).TotalCredits()
	for _, c := range cand[1:] {
		if score := r.Output(c).TotalCredits(); score > bestScore {
			best, bestScore = c, score
		}
	}
	return best
}

// meshPos locates an inter-router link: the router it leaves and the mesh
// direction it points.
type meshPos struct {
	r, dir int
}

// sinkDeliver builds the delivery function for an ejection link owned by
// shard s: flits are consumed on arrival, credits return to the router's
// local output port, and tail flits complete their packet. Statistics land
// in the shard's own counters; the single-threaded OnDeliver hook (and its
// pool recycle) is deferred to the coordinator via the deliveries spool.
func (n *Network) sinkDeliver(out *router.Output, s *shard) router.DeliverFunc {
	return func(now sim.Cycle, f router.FlitRef) {
		out.ReturnCredit(now, int(f.VC))
		s.st.DeliveredFlits++
		if f.IsHead() && f.Pkt.CreatedAt >= n.st.MeasureFrom {
			// Head-arrival latency, kept alongside the paper's stated
			// creation-to-tail-ejection metric; see EXPERIMENTS.md.
			s.st.HeadLatCount++
			s.st.HeadLatSum += int64(now - f.Pkt.CreatedAt)
		}
		if !f.IsTail() {
			return
		}
		p := f.Pkt
		lat := now - p.CreatedAt
		s.st.DeliveredPkts++
		if p.CreatedAt >= n.st.MeasureFrom {
			s.st.LatCount++
			s.st.LatSum += int64(lat)
			if s.st.LatMin < 0 || lat < s.st.LatMin {
				s.st.LatMin = lat
			}
			if lat > s.st.LatMax {
				s.st.LatMax = lat
			}
			s.st.LatHist.Record(lat)
			if n.telemLat != nil {
				s.latVals = append(s.latVals, lat)
			}
		}
		if n.OnDeliver != nil {
			s.deliveries = append(s.deliveries, deliveredPkt{p: p, lat: lat})
			return
		}
		s.pool.Put(p)
	}
}

// Step advances the simulation by one cycle: coordinator band, parallel
// shard windows, then the barrier drains. Every drain order is independent
// of the shard count, so results are bit-identical for all K (DESIGN.md
// §6g).
func (n *Network) Step() {
	now := n.st.Now
	n.stepNow = now

	// 1. Harvest the cycle's events in canonical (Key, Seq) order. The
	// key-0 prefix is the coordinator band — watchdog scans, recovery
	// refreshes, fault markers, the telemetry sampler — and runs
	// sequentially before the shards because it may touch state anywhere.
	entries := n.wheel.BeginCycle(now)
	band := 0
	for band < len(entries) && entries[band].Key == 0 {
		band++
	}
	n.wheel.Run(entries[:band], now)

	// 2. The parallel region. Actor ids are column-major, so the sorted
	// entries split into one contiguous slice per shard; each shard then
	// runs its events (packet arrivals included) + NIC + switch-allocation
	// phases over disjoint state.
	shards := n.shards
	rest := entries[band:]
	if len(shards) == 1 {
		shards[0].entries = rest
		shards[0].runCycle(now)
	} else {
		start := 0
		for si := 0; si < len(shards)-1; si++ {
			end := start
			for end < len(rest) && n.shardOfActor(rest[end].Key>>n.srcBits) == si {
				end++
			}
			shards[si].entries = rest[start:end]
			start = end
		}
		shards[len(shards)-1].entries = rest[start:]
		n.runner.Run(n.tasks)
	}

	// 3. Replay staged wheel schedules in shard order. Every ordering key
	// is produced by exactly one shard, in a window order K cannot change,
	// so this assigns sequence numbers in a K-invariant per-key order.
	for _, s := range shards {
		for _, se := range s.staged {
			n.wheel.Schedule(se.at, se.key, se.h)
		}
		s.staged = s.staged[:0]
	}

	// 4. Down-notifications, in link order: recovery and telemetry observe
	// every escalation exactly one barrier after the shard recorded it.
	n.drainDownNotes(now)

	// 5. Policy windows. The trace recorder observes first — the window's
	// demand and margin ceiling as the policy itself saw them, before any
	// tick-driven level change moves the margin.
	if now == n.st.NextPolicyTick {
		if n.policyRec != nil {
			for i, c := range n.controllers {
				n.policyRec.Observe(i, n.ctrlChans[i].Flits(), policy.MaxSafeLevel(now, c.Link(), n.cfg.Policy.MaxBER))
			}
		}
		for _, c := range n.controllers {
			c.Tick(now)
		}
		n.st.NextPolicyTick += n.cfg.Policy.Window
	}

	// 6. Telemetry spools — after the policy tick, which can itself emit
	// level-change events — then the deliver hooks in canonical order.
	n.drainTelemetry()
	n.drainDeliveries(now)

	// 7. One watchdog-scan arming decision per cycle.
	if n.rec != nil {
		want := false
		for _, s := range shards {
			want = want || s.wantScan
			s.wantScan = false
		}
		if want {
			n.rec.armScan(now)
		}
	}

	// 8. simdebug builds re-audit flit/credit conservation periodically, so
	// a violation halts within debugAuditEvery cycles of its cause instead
	// of surfacing as corrupt statistics long after.
	if sim.Debug && now&(debugAuditEvery-1) == 0 {
		if err := n.audit(); err != nil {
			panic("simdebug: " + err.Error())
		}
	}

	n.st.Now = now + 1
}

// drainDownNotes applies the shards' spooled link escalations in global
// link order: a flight-recorder event per reset, and one recovery-table
// refresh when any mesh link went down.
func (n *Network) drainDownNotes(now sim.Cycle) {
	notes := n.downScratch[:0]
	for _, s := range n.shards {
		notes = append(notes, s.downMailbox...)
		s.downMailbox = s.downMailbox[:0]
	}
	n.downScratch = notes[:0]
	if len(notes) == 0 {
		return
	}
	sort.Slice(notes, func(i, j int) bool { return notes[i].link < notes[j].link })
	for _, dn := range notes {
		if n.telem != nil {
			n.telem.Record(telemetry.Event{
				At:     now,
				Kind:   telemetry.EventLinkReset,
				Link:   dn.link,
				Router: -1,
				B:      int64(dn.until),
			})
		}
		if n.rec != nil && dn.link < len(n.meshRef) {
			n.rec.refresh(now, dn.link)
		}
	}
}

// drainTelemetry feeds the shards' flight-recorder spools (stable-sorted by
// link — per-link event order is already deterministic) and latency samples
// into the registry.
func (n *Network) drainTelemetry() {
	if n.telem != nil {
		evs := n.flightScratch[:0]
		for _, s := range n.shards {
			evs = append(evs, s.flightMailbox...)
			s.flightMailbox = s.flightMailbox[:0]
		}
		if len(evs) > 1 {
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].Link < evs[j].Link })
		}
		for i := range evs {
			n.telem.Record(evs[i])
		}
		n.flightScratch = evs[:0]
	}
	if n.telemLat != nil {
		for _, s := range n.shards {
			for _, v := range s.latVals {
				n.telemLat.Record(v)
			}
			s.latVals = s.latVals[:0]
		}
	}
}

// drainDeliveries runs the OnDeliver hook over the cycle's delivered
// packets. Deliveries happen only in shard phase 1 and actor ranges are
// shard-nested, so shard-order concatenation IS the canonical global order.
func (n *Network) drainDeliveries(now sim.Cycle) {
	for _, s := range n.shards {
		for _, d := range s.deliveries {
			if n.OnDeliver != nil {
				n.OnDeliver(now, d.p, d.lat)
			}
			s.pool.Put(d.p)
		}
		s.deliveries = s.deliveries[:0]
	}
}

// debugAuditEvery is the simdebug audit period; a power of two so the
// cheap mask test above works.
const debugAuditEvery = 2048

// neverCycle is a cycle no simulation reaches; used for "no next event".
const neverCycle = sim.Cycle(math.MaxInt64)

// nextWorkAt returns the earliest cycle in [n.st.Now, limit] at which anything
// can happen: a scheduled wheel event (packet arrivals included) or a
// policy-window tick. When the NIC and output work lists are empty, every
// cycle before that point is a no-op and may be skipped.
func (n *Network) nextWorkAt(limit sim.Cycle) sim.Cycle {
	next := limit
	if at, ok := n.wheel.NextEventAt(); ok && at < next {
		next = at
	}
	if n.st.NextPolicyTick < next {
		next = n.st.NextPolicyTick
	}
	if next < n.st.Now {
		next = n.st.Now
	}
	return next
}

// skipIdleTo fast-forwards to the next cycle with work, bounded by limit.
// It returns whether a skip happened. A skip is legal only when both work
// lists are empty: then the NIC and switch-allocation phases of a shard's
// window are no-ops, and the remaining work sources (wheel events, policy
// ticks) are all visible to nextWorkAt. The powerlink energy/level
// accounting and the buffer occupancy integrals take `now` lazily, so no
// per-link or per-buffer work is needed on a skip — the skipped cycles are
// bit-identical to stepping.
func (n *Network) skipIdleTo(limit sim.Cycle) bool {
	if n.ffDisabled {
		return false
	}
	for _, s := range n.shards {
		if len(s.activeNICs) > 0 || len(s.activeOuts) > 0 {
			return false
		}
	}
	// A one-cycle skip cannot pay for the wheel occupancy scan inside
	// nextWorkAt, so a policy tick due by the next cycle bails out first.
	if n.st.NextPolicyTick <= n.st.Now+1 {
		return false
	}
	next := n.nextWorkAt(limit)
	if next <= n.st.Now {
		return false
	}
	// Keep the wheel's clock one cycle behind the network's, exactly as
	// cycle-by-cycle stepping would leave it.
	n.wheel.SkipTo(next - 1)
	n.st.FFSkips++
	n.st.FFCycles += int64(next - n.st.Now)
	n.st.Now = next
	return true
}

// RunTo advances the simulation to cycle t, fast-forwarding over idle gaps
// (disable with SetFastForward(false) to force cycle-by-cycle stepping;
// results are bit-identical either way).
func (n *Network) RunTo(t sim.Cycle) {
	for n.st.Now < t {
		if n.skipIdleTo(t) {
			continue
		}
		n.Step()
	}
}

// Quiescent reports whether the network has fully drained: every injected
// packet was delivered or dropped-and-counted, no events are scheduled —
// a source's next packet is a pending arrival event, so a source with
// packets still to create keeps the network busy — and no NIC or output
// holds work. A network with an open-loop (infinite) generator never
// quiesces. Telemetry's wheel events (the recurring sampler, future fault
// markers) are subtracted: they observe the simulation, they are not work.
func (n *Network) Quiescent() bool {
	var open int64 // packets injected and neither delivered nor dropped
	for _, s := range n.shards {
		if len(s.activeNICs) > 0 || len(s.activeOuts) > 0 {
			return false
		}
		open += s.st.InjectedPkts - s.st.DeliveredPkts - s.st.UnreachableDrops
	}
	if n.rec != nil {
		open -= n.rec.st.WdDrops
	}
	return open == 0 && n.wheel.Pending() == n.telemPending()
}

// RunUntilQuiescent advances the simulation until it quiesces or reaches
// deadline, whichever comes first, and reports whether it quiesced. It
// replaces hand-rolled drain loops: run traffic, then call this to let
// in-flight packets, credit returns, and wake-ups settle.
func (n *Network) RunUntilQuiescent(deadline sim.Cycle) bool {
	for n.st.Now < deadline && !n.Quiescent() {
		if n.skipIdleTo(deadline) {
			continue
		}
		n.Step()
	}
	return n.Quiescent()
}

// SetFastForward enables or disables idle-cycle skipping in RunTo and
// RunUntilQuiescent (enabled by default). Step is always cycle-accurate.
func (n *Network) SetFastForward(enabled bool) { n.ffDisabled = !enabled }

// FastForwardStats returns how many idle skips RunTo has taken and how many
// cycles they covered.
func (n *Network) FastForwardStats() (skips, cycles int64) {
	return n.st.FFSkips, n.st.FFCycles
}

// Now returns the current cycle.
func (n *Network) Now() sim.Cycle { return n.st.Now }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// SetMeasureFrom discards latency statistics for packets created before t
// (warm-up exclusion) and resets the aggregate latency counters.
func (n *Network) SetMeasureFrom(t sim.Cycle) {
	n.st.MeasureFrom = t
	for _, s := range n.shards {
		c := &s.st
		c.LatCount, c.LatSum, c.LatMin, c.LatMax = 0, 0, -1, 0
		c.HeadLatCount, c.HeadLatSum = 0, 0
		c.LatHist.Reset()
	}
}

// MeasureFrom returns the start of the measured window (zero until
// SetMeasureFrom).
func (n *Network) MeasureFrom() sim.Cycle { return n.st.MeasureFrom }

// totals merges the shards' measurement records into the network's
// scratch record and returns it; it is valid until the next call.
func (n *Network) totals() *Counters {
	t := &n.sum
	hist := t.LatHist
	hist.Reset()
	*t = Counters{LatMin: -1, LatHist: hist}
	for _, s := range n.shards {
		t.add(&s.st)
	}
	return t
}

// add merges o into c.
func (c *Counters) add(o *Counters) {
	c.InjectedPkts += o.InjectedPkts
	c.DeliveredPkts += o.DeliveredPkts
	c.DeliveredFlits += o.DeliveredFlits
	c.LatCount += o.LatCount
	c.LatSum += o.LatSum
	if o.LatMin >= 0 && (c.LatMin < 0 || o.LatMin < c.LatMin) {
		c.LatMin = o.LatMin
	}
	c.LatMax = max(c.LatMax, o.LatMax)
	c.LatHist.Merge(&o.LatHist)
	c.HeadLatCount += o.HeadLatCount
	c.HeadLatSum += o.HeadLatSum
	c.Reroutes += o.Reroutes
	c.Misroutes += o.Misroutes
	c.UnreachableDrops += o.UnreachableDrops
}

// LatencyQuantile returns the q-quantile of measured packet latencies
// (log-bucket estimate, ~9 % resolution).
func (n *Network) LatencyQuantile(q float64) float64 { return n.totals().LatHist.Quantile(q) }

// InjectedPackets returns the number of packets offered by the sources.
func (n *Network) InjectedPackets() int64 { return n.totals().InjectedPkts }

// DeliveredPackets returns the number of packets fully ejected.
func (n *Network) DeliveredPackets() int64 { return n.totals().DeliveredPkts }

// DeliveredFlits returns the number of flits ejected.
func (n *Network) DeliveredFlits() int64 { return n.totals().DeliveredFlits }

// MeasuredPackets returns the count of measured (post-warm-up) packets.
func (n *Network) MeasuredPackets() int64 { return n.totals().LatCount }

// MeanLatency returns the mean measured packet latency in cycles.
func (n *Network) MeanLatency() float64 {
	t := n.totals()
	if t.LatCount == 0 {
		return 0
	}
	return float64(t.LatSum) / float64(t.LatCount)
}

// MeanHeadLatency returns the mean latency from packet creation to the
// ejection of its head flit — excluding body serialisation.
func (n *Network) MeanHeadLatency() float64 {
	t := n.totals()
	if t.HeadLatCount == 0 {
		return 0
	}
	return float64(t.HeadLatSum) / float64(t.HeadLatCount)
}

// MaxLatency returns the maximum measured packet latency.
func (n *Network) MaxLatency() sim.Cycle { return n.totals().LatMax }

// MinLatency returns the minimum measured packet latency (-1 when none).
func (n *Network) MinLatency() sim.Cycle { return n.totals().LatMin }

// LinkEnergyJ returns total energy consumed by all links up to now.
func (n *Network) LinkEnergyJ() float64 {
	var e float64
	for _, ch := range n.channels {
		e += ch.PLink().EnergyJ(n.st.Now)
	}
	return e
}

// LinkPowerW returns the instantaneous total link power.
func (n *Network) LinkPowerW() float64 {
	var p float64
	for _, ch := range n.channels {
		p += ch.PLink().PowerW(n.st.Now)
	}
	return p
}

// Channels exposes every link for diagnostics and tests. Inter-router
// links come first (Config.InterRouterLinks of them), then each node's
// injection and ejection links in node order.
func (n *Network) Channels() []*router.Channel { return n.channels }

// FabricEnergyJ returns the energy consumed by the router-to-router links
// only — the denominator used when node links are pinned at full rate
// (Config.NodeLinksPowerAware = false).
func (n *Network) FabricEnergyJ() float64 {
	var e float64
	for _, ch := range n.channels[:n.cfg.InterRouterLinks()] {
		e += ch.PLink().EnergyJ(n.st.Now)
	}
	return e
}

// Injector returns the fault injector, or nil when faults are disabled.
func (n *Network) Injector() *fault.Injector { return n.injector }

// FaultStats aggregates the reliability counters of every channel plus the
// injector into one snapshot (zero value when faults are disabled).
func (n *Network) FaultStats() stats.Reliability {
	var r stats.Reliability
	if n.injector != nil {
		is := n.injector.Stats()
		r.CorruptedFlits = is.CorruptedFlits
		r.RelockFailures = is.RelockFailures
	}
	for _, ch := range n.channels {
		cs := ch.RelStats()
		r.CrcDrops += cs.Corrupted
		r.LostToDown += cs.LostToDown
		r.Retransmits += cs.Retransmits
		r.Nacks += cs.Nacks
		r.Timeouts += cs.Timeouts
		r.Escalations += cs.Escalations
		r.Duplicates += cs.Duplicates
		if ch.DownAt(n.st.Now) {
			r.DownLinks++
		}
	}
	return r
}

// DownLinks returns how many links are hard-down at the current cycle
// (scheduled failure windows plus escalated resets).
func (n *Network) DownLinks() int {
	var d int
	for _, ch := range n.channels {
		if ch.DownAt(n.st.Now) {
			d++
		}
	}
	return d
}

// Routers exposes the routers for diagnostics and tests.
func (n *Network) Routers() []*router.Router { return n.routers }

// Controllers exposes the policy controllers (empty when !PowerAware).
func (n *Network) Controllers() []policy.LinkPolicy { return n.controllers }

// ArmPolicyTimer implements policy.TimerSink: a coordinator-band wheel
// event that fires the controller's OnTimer hook at `at`. Being a real
// wheel entry keeps fast-forward honest about the pending wake, and its
// registered handler travels with checkpoints.
func (n *Network) ArmPolicyTimer(at sim.Cycle, ordinal int) {
	n.wheel.Schedule(at, 0, n.timerH[ordinal])
}

// PolicyStats aggregates every controller's counters into one report block
// (zero value when the network runs without power awareness).
func (n *Network) PolicyStats() stats.Policy {
	var p stats.Policy
	if len(n.controllers) == 0 {
		return p
	}
	p.Kind = n.cfg.Policy.Kind.String()
	for _, c := range n.controllers {
		p.Add(c.Stats())
	}
	p.EnergyJ = n.ControlledLinkEnergyJ()
	return p
}

// ControlledLinkEnergyJ returns the energy consumed by policy-controlled
// links only — the quantity the regret oracle bounds.
func (n *Network) ControlledLinkEnergyJ() float64 {
	var e float64
	for _, ch := range n.ctrlChans {
		e += ch.PLink().EnergyJ(n.st.Now)
	}
	return e
}

// PolicyTrace returns the per-window demand/margin recording, or nil when
// Config.Policy.RecordTrace was off.
func (n *Network) PolicyTrace() *policy.Trace {
	if n.policyRec == nil {
		return nil
	}
	tr := n.policyRec.Trace()
	return &tr
}

// ControlledLinkModels returns the oracle's per-level cost/capacity view of
// every controlled link, in controller order.
func (n *Network) ControlledLinkModels() []policy.LinkModel {
	out := make([]policy.LinkModel, len(n.controllers))
	for i, c := range n.controllers {
		out[i] = c.Link()
	}
	return out
}

// NICQueueLen returns the number of packets waiting at node's NIC
// (including the one being serialised).
func (n *Network) NICQueueLen(node int) int {
	nc := n.nics[node]
	q := nc.q.n
	if nc.cur != nil {
		q++
	}
	return q
}

// LevelHistogram returns how many links currently sit at each electrical
// level (index = level; off-links counted in Off). A quick health read of
// what the policy is doing. The returned slice is a buffer preallocated at
// network build, reused by every call: read or copy it before calling
// again, and never retain it across calls.
func (n *Network) LevelHistogram() (levels []int, off int) {
	levels = n.levelScratch
	for i := range levels {
		levels[i] = 0
	}
	for _, ch := range n.channels {
		lv := ch.PLink().Level(n.st.Now)
		if lv < 0 {
			off++
			continue
		}
		// Non-power-aware links have a single level; map it to the top of
		// the configured ladder for reporting. Links whose own ladder is
		// longer than the configured one clamp to the top so every link is
		// counted exactly once.
		if ch.PLink().NumLevels() == 1 || lv >= len(levels) {
			lv = len(levels) - 1
		}
		levels[lv]++
	}
	return levels, off
}

// TimeAtLevelHistogram aggregates, across all links, the fraction of
// link-time spent at each electrical level since the start of the run.
func (n *Network) TimeAtLevelHistogram() []float64 {
	out := make([]float64, len(n.cfg.Link.LevelRates))
	var total float64
	for _, ch := range n.channels {
		st := ch.PLink().Stats(n.st.Now)
		for lv, c := range st.TimeAtLevel {
			if len(st.TimeAtLevel) == 1 {
				lv = len(out) - 1 // a link pinned to one rate runs at the top
			}
			if lv < len(out) {
				out[lv] += float64(c)
			}
			total += float64(c)
		}
		total += float64(st.TimeOff)
	}
	if total > 0 {
		for i := range out {
			out[i] /= total
		}
	}
	return out
}

// utilSource adapts one channel + downstream buffers to the policy's view.
type utilSource struct {
	ch     *router.Channel
	bufs   []*router.Buffer
	capSum int
}

func (u *utilSource) BusyCycles() float64 { return u.ch.BusyCycles() }

func (u *utilSource) FlitCount() int64 { return u.ch.Flits() }

func (u *utilSource) BufferOccupancyIntegral(now sim.Cycle) float64 {
	var s float64
	for _, b := range u.bufs {
		s += b.OccupancyIntegral(now)
	}
	return s
}

func (u *utilSource) BufferCapacity() int { return u.capSum }

// The loss-sensor half of the adapter (policy.LossSource): cumulative
// reliability counters the rule engine differences across windows.

func (u *utilSource) Retransmits() int64 { return u.ch.RelStats().Retransmits }

func (u *utilSource) CrcDrops() int64 { return u.ch.RelStats().Corrupted }

func (u *utilSource) Escalations() int64 { return u.ch.RelStats().Escalations }

func (u *utilSource) RelockFailures(now sim.Cycle) int64 { return u.ch.PLink().RelockFailures(now) }
