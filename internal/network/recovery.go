package network

import (
	"fmt"

	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// RecoveryConfig enables fault-aware routing and the self-healing recovery
// subsystem: per-router link liveness tables maintained from the fault
// schedule and escalation notifications, adaptive minimal routing filtered
// by liveness with a Duato-style escape virtual channel as the deadlock-free
// fallback, and a stall watchdog that first forces head-of-line packets onto
// the escape network and, past a second horizon, drops them with an exact
// count. The zero value disables everything: routing, VC allocation, and all
// experiment outputs stay byte-identical to a build without this subsystem.
type RecoveryConfig struct {
	// Enabled switches the subsystem on.
	Enabled bool
	// ScanEvery is the stall-watchdog scan period in cycles (default 256).
	// The scan is a wheel event, so event-driven fast-forward stays legal.
	ScanEvery sim.Cycle
	// StallHorizon is how long a head-of-line packet may sit without
	// forward progress before the watchdog forces it onto the escape
	// network (default 1024).
	StallHorizon sim.Cycle
	// DropHorizon is the last-resort horizon: a head-of-line packet still
	// stalled this long is dropped and counted (default 8192). Must be
	// greater than StallHorizon.
	DropHorizon sim.Cycle
}

const (
	// escapeVCs is the number of VCs (indices [0, escapeVCs)) recovery
	// reserves as the escape network, which runs strict XY routing —
	// acyclic, so packets on it can always drain. Config.VCs must leave at
	// least one adaptive VC above them.
	escapeVCs = 1
	// maxMisroutes bounds non-minimal hops per packet when every minimal
	// candidate is dead — the livelock bound.
	maxMisroutes = 8
)

// WithDefaults returns c with zero knobs replaced by defaults.
func (c RecoveryConfig) WithDefaults() RecoveryConfig {
	if c.ScanEvery <= 0 {
		c.ScanEvery = 256
	}
	if c.StallHorizon <= 0 {
		c.StallHorizon = 1024
	}
	if c.DropHorizon <= 0 {
		c.DropHorizon = 8192
	}
	return c
}

// validateFor reports configuration errors against the network's VC count.
func (c RecoveryConfig) validateFor(vcs int) error {
	if !c.Enabled {
		return nil
	}
	c = c.WithDefaults()
	if escapeVCs >= vcs {
		return fmt.Errorf("network: recovery needs at least one adaptive VC: %d escape VC with %d VCs", escapeVCs, vcs)
	}
	if c.DropHorizon <= c.StallHorizon {
		return fmt.Errorf("network: recovery DropHorizon %d must exceed StallHorizon %d", c.DropHorizon, c.StallHorizon)
	}
	return nil
}

// recovery is the per-network recovery state: liveness, reachability, the
// stall watchdog, and the routing/escalation counters.
type recovery struct {
	n   *Network
	cfg RecoveryConfig

	escMask   uint32 // VC bits [0, escapeVCs)
	adaptMask uint32 // VC bits [escapeVCs, VCs)
	allMask   uint32

	// st is the liveness table and the watchdog's counters (see
	// RecoveryState).
	st RecoveryState
	// reach[src*R+dst] reports whether a path of live mesh links connects
	// the two routers.
	//optolint:derived recomputed from the live-link table by recompute() on restore
	reach []bool
	//optolint:derived BFS scratch, reused across recompute calls
	bfsQueue []int

	scanH sim.Handler
	// refreshH is each mesh link's liveness-refresh handler, by global link
	// index.
	refreshH []sim.Handler
}

func newRecovery(n *Network, cfg RecoveryConfig) *recovery {
	R := len(n.routers)
	rec := &recovery{
		n:         n,
		cfg:       cfg,
		escMask:   router.AllVCs(escapeVCs),
		adaptMask: router.AllVCs(n.cfg.VCs) &^ router.AllVCs(escapeVCs),
		allMask:   router.AllVCs(n.cfg.VCs),
		st:        RecoveryState{Live: make([][4]bool, R)},
		reach:     make([]bool, R*R),
	}
	for r := 0; r < R; r++ {
		for dir := 0; dir < 4; dir++ {
			rec.st.Live[r][dir] = n.meshOut[r][dir] != nil
		}
	}
	rec.scanH = n.wheel.Register(rec.scan)
	rec.refreshH = make([]sim.Handler, len(n.meshRef))
	for li := range rec.refreshH {
		rec.refreshH[li] = n.wheel.Register(func(now sim.Cycle) { rec.refresh(now, li) })
	}
	rec.recompute()

	// Scheduled failure windows are known up front: a liveness refresh at
	// each boundary keeps the table exact without polling. Escalated link
	// resets are the only surprise downtime; the shards spool those into
	// the down mailbox and the coordinator calls refresh at the barrier
	// (see Network.drainDownNotes).
	for _, w := range n.cfg.Fault.LinkFailures {
		if w.Link >= len(n.meshRef) {
			continue // node link: routing cannot steer around it
		}
		n.wheel.Schedule(w.At, 0, rec.refreshH[w.Link])
		n.wheel.Schedule(w.RepairAt, 0, rec.refreshH[w.Link])
	}
	return rec
}

// refresh re-evaluates mesh link li's liveness at now, recomputing
// reachability on a flip; while the link is down, a re-check is scheduled
// for when it is expected back up (repeat checks handle overlapping
// windows and resets extending each other).
func (rec *recovery) refresh(now sim.Cycle, li int) {
	ref := rec.n.meshRef[li]
	ch := rec.n.meshOut[ref.r][ref.dir]
	up := !ch.DownAt(now)
	if up != rec.st.Live[ref.r][ref.dir] {
		rec.st.Live[ref.r][ref.dir] = up
		rec.recompute()
	}
	if !up {
		until := ch.DownUntil(now)
		if until <= now {
			until = now + 1
		}
		rec.n.wheel.Schedule(until, 0, rec.refreshH[li])
	}
}

// recompute rebuilds the all-pairs reachability table by BFS over live
// mesh links from each source router.
func (rec *recovery) recompute() {
	rec.st.Recomputes++
	R := len(rec.n.routers)
	for i := range rec.reach {
		rec.reach[i] = false
	}
	for src := 0; src < R; src++ {
		base := src * R
		rec.reach[base+src] = true
		q := append(rec.bfsQueue[:0], src)
		for len(q) > 0 {
			r := q[0]
			q = q[1:]
			for dir := 0; dir < 4; dir++ {
				if !rec.st.Live[r][dir] {
					continue
				}
				nb, _, _ := rec.n.cfg.neighbor(r, dir)
				if !rec.reach[base+nb] {
					rec.reach[base+nb] = true
					q = append(q, nb)
				}
			}
		}
		rec.bfsQueue = q
	}
}

// reachable reports whether a path of live mesh links connects src to dst.
func (rec *recovery) reachable(src, dst int) bool {
	return rec.reach[src*len(rec.n.routers)+dst]
}

// armScan schedules the next watchdog scan if one is not already pending.
// Called from the router-activation and NIC-activation paths, so a scan is
// armed whenever flits can be sitting in router buffers; the scan disarms
// itself once the network is empty.
func (rec *recovery) armScan(now sim.Cycle) {
	if rec.st.ScanArmed {
		return
	}
	rec.st.ScanArmed = true
	rec.n.wheel.Schedule(now+rec.cfg.ScanEvery, 0, rec.scanH)
}

// scan is the stall watchdog: every input VC whose head-of-line flit has
// seen no forward progress for StallHorizon is escalated — head flits are
// forced onto the escape network (strict XY, always drainable), and past
// DropHorizon the packet is dropped and counted. Committed wormholes (body
// flit at the head of line) are left to the link-level retransmission
// layer: their path is fixed and their flits replay after repair.
func (rec *recovery) scan(now sim.Cycle) {
	rec.st.ScanArmed = false
	busy := false
	for rid, r := range rec.n.routers {
		for ivc, nvc := 0, r.InputVCs(); ivc < nvc; ivc++ {
			f, ok := r.HOL(ivc)
			if !ok {
				continue
			}
			busy = true
			if f.ReadyAt > now {
				continue
			}
			stall := now - r.ProgressAt(ivc)
			if stall < rec.cfg.StallHorizon || !f.IsHead() {
				continue
			}
			if stall >= rec.cfg.DropHorizon {
				if p := r.KillHOL(now, ivc); p != nil {
					rec.st.WdDrops++
					if t := rec.n.telem; t != nil {
						t.Record(telemetry.Event{At: now, Kind: telemetry.EventWatchdogKill, Link: -1, Router: rid, A: int64(stall)})
						t.TriggerDump(now, "watchdog_kill")
					}
				}
				continue
			}
			p := f.Pkt
			port, mask := rec.n.routeXY(rid, p), rec.escMask
			if p.DstRouter == rid {
				mask = rec.allMask
			}
			if r.RerouteHOL(now, ivc, port, mask) {
				rec.st.WdReroutes++
				if t := rec.n.telem; t != nil {
					t.Record(telemetry.Event{At: now, Kind: telemetry.EventWatchdogReroute, Link: -1, Router: rid, A: int64(stall)})
					t.TriggerDump(now, "watchdog_reroute")
				}
			}
		}
	}
	if busy {
		rec.armScan(now)
	}
}

// misroutePort picks a non-minimal output for a packet whose minimal
// candidates are all dead: any live mesh direction, preferring the most
// downstream credits. ok is false when the router is fully cut off.
func (rec *recovery) misroutePort(routerID int) (int, bool) {
	r := rec.n.routers[routerID]
	best, bestScore := -1, -1
	for dir := 0; dir < 4; dir++ {
		if !rec.st.Live[routerID][dir] {
			continue
		}
		p := rec.n.cfg.meshPort(dir)
		if s := r.Output(p).TotalCredits(); s > bestScore {
			best, bestScore = p, s
		}
	}
	return best, best >= 0
}

// recoveryRoute is the fault-aware routing function: adaptive minimal
// candidates filtered by link liveness on the adaptive VCs, strict XY on
// the escape VCs (packets on escape stay on escape — the Duato condition),
// bounded misrouting around fault regions, and a park-on-XY fallback that
// the stall watchdog resolves.
func (n *Network) recoveryRoute(routerID int, p *router.Packet, inVC int) (int, uint32) {
	rec := n.rec
	if p.DstRouter == routerID {
		return p.DstLocal, rec.allMask
	}
	if inVC < escapeVCs {
		return n.routeXY(routerID, p), rec.escMask
	}
	x, y := n.cfg.routerXY(routerID)
	dx, dy := n.cfg.routerXY(p.DstRouter)
	var minimal [2]int
	nd := 0
	if dx > x {
		minimal[nd] = DirE
		nd++
	} else if dx < x {
		minimal[nd] = DirW
		nd++
	}
	if dy > y {
		minimal[nd] = DirS
		nd++
	} else if dy < y {
		minimal[nd] = DirN
		nd++
	}
	var liveDirs [2]int
	nl := 0
	for i := 0; i < nd; i++ {
		if rec.st.Live[routerID][minimal[i]] {
			liveDirs[nl] = minimal[i]
			nl++
		}
	}
	if nl > 0 {
		if nl < nd {
			// Attributed to the router's own shard: recoveryRoute runs
			// either on that shard inside the parallel region or on the
			// coordinator (watchdog scan), never both at once.
			n.shards[n.shardOfRouter(routerID)].st.Reroutes++
		}
		pick := liveDirs[0]
		if nl == 2 {
			// Prefer the base scheme's choice when it is live; otherwise
			// the least congested productive direction.
			bp := n.baseRoute(routerID, p)
			switch {
			case bp == n.cfg.meshPort(liveDirs[1]):
				pick = liveDirs[1]
			case bp == n.cfg.meshPort(liveDirs[0]):
			default:
				r := n.routers[routerID]
				if r.Output(n.cfg.meshPort(liveDirs[1])).TotalCredits() >
					r.Output(n.cfg.meshPort(liveDirs[0])).TotalCredits() {
					pick = liveDirs[1]
				}
			}
		}
		port := n.cfg.meshPort(pick)
		mask := rec.adaptMask
		if port == n.routeXY(routerID, p) {
			// A hop the escape network would also take may use escape VCs:
			// transfers from adaptive to escape are always legal.
			mask |= rec.escMask
		}
		return port, mask
	}
	// Every minimal direction is dead: misroute around the fault region
	// while the per-packet budget lasts.
	if p.Misroutes < maxMisroutes {
		if mp, ok := rec.misroutePort(routerID); ok {
			p.Misroutes++
			n.shards[n.shardOfRouter(routerID)].st.Misroutes++
			return mp, rec.adaptMask
		}
	}
	// Budget spent (or the router is cut off): park toward the XY port and
	// let the link repair or the watchdog drop the packet.
	return n.routeXY(routerID, p), rec.allMask
}

// RecoveryStats aggregates the fault-aware routing and watchdog counters
// (zero value when recovery is disabled).
func (n *Network) RecoveryStats() stats.Recovery {
	var s stats.Recovery
	rec := n.rec
	if rec == nil {
		return s
	}
	t := n.totals()
	s.Reroutes = t.Reroutes
	s.Misroutes = t.Misroutes
	s.UnreachableDrops = t.UnreachableDrops
	s.WatchdogReroutes = rec.st.WdReroutes
	s.WatchdogDrops = rec.st.WdDrops
	s.DroppedPackets = n.DroppedPackets()
	s.ReachRecomputes = rec.st.Recomputes
	for _, r := range n.routers {
		s.EscapeGrants += r.EscapeGrants()
		s.DiscardedFlits += r.DiscardedFlits()
	}
	for r := range rec.st.Live {
		for dir := 0; dir < 4; dir++ {
			if n.meshOut[r][dir] != nil && !rec.st.Live[r][dir] {
				s.DownMeshLinks++
			}
		}
	}
	return s
}

// DroppedPackets returns how many packets were dropped by the recovery
// subsystem (watchdog drops plus unreachable-destination drops). Exact
// drain: Injected == Delivered + Dropped.
func (n *Network) DroppedPackets() int64 {
	v := n.totals().UnreachableDrops
	if n.rec != nil {
		v += n.rec.st.WdDrops
	}
	return v
}

// MeshLinkIndex returns the global link index (Channels() order) of the
// mesh link leaving router r in direction dir, or -1 when no such link is
// wired — the handle experiments use to schedule failures on a specific
// hop and to find its neighbors.
func (n *Network) MeshLinkIndex(r, dir int) int {
	if r < 0 || r >= len(n.meshLink) || dir < 0 || dir > 3 {
		return -1
	}
	return n.meshLink[r][dir]
}
