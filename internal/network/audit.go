package network

import (
	"fmt"

	"repro/internal/telemetry"
)

// Audit verifies the network's conservation invariants at the current
// cycle. It is meant for tests and debugging — it walks every router and
// link, so it is far too slow to run per cycle in experiments.
//
// Checked invariants:
//
//  1. Credit conservation per (link, VC): the upstream output's free
//     credits plus the downstream buffer occupancy plus flits in flight on
//     the wire plus credits in flight back never exceed the buffer depth,
//     and never drop below zero. (Transient in-flight flits/credits make
//     exact equality unobservable from outside, so the audit brackets the
//     sum instead.)
//  2. Buffer occupancy within capacity.
//  3. No negative credit counters.
//
// It returns an error describing the first violation found. A failure also
// triggers the telemetry flight-recorder dump (when enabled): the recent
// event timeline is the post-mortem for a conservation violation.
func (n *Network) Audit() error {
	err := n.audit()
	if err != nil && n.telem != nil {
		n.telem.Record(telemetry.Event{At: n.st.Now, Kind: telemetry.EventAuditFail, Link: -1, Router: -1})
		n.telem.TriggerDump(n.st.Now, "audit_fail")
	}
	return err
}

func (n *Network) audit() error {
	cfg := n.cfg
	for r, rt := range n.routers {
		for p := 0; p < cfg.PortsPerRouter(); p++ {
			out := rt.Output(p)
			if out.Channel() == nil {
				continue // unconnected mesh edge
			}
			for v := 0; v < cfg.VCs; v++ {
				c := out.Credits(v)
				if c < 0 {
					return fmt.Errorf("network: router %d port %d vc %d has negative credits %d", r, p, v, c)
				}
				if c > cfg.BufDepth {
					return fmt.Errorf("network: router %d port %d vc %d has %d credits > depth %d", r, p, v, c, cfg.BufDepth)
				}
			}
		}
		// Input buffers within capacity.
		for p := 0; p < cfg.PortsPerRouter(); p++ {
			for v := 0; v < cfg.VCs; v++ {
				b := rt.InputBuffer(p, v)
				if b.Len() > b.Cap() {
					return fmt.Errorf("network: router %d input %d vc %d over capacity", r, p, v)
				}
			}
		}
	}
	// Credit conservation across inter-router links, walked in wiring
	// order (router, then E, W, S, N): upstream credits + downstream
	// occupancy must bracket the depth once in-flight slack (at most 2
	// flits on the wire + 1 credit in flight) is allowed.
	for _, m := range n.meshRef {
		dst, rev, _ := cfg.neighbor(m.r, m.dir)
		up := n.routers[m.r].Output(cfg.meshPort(m.dir))
		down := n.routers[dst]
		// With link-level reliability, flits granted (credits held)
		// but not yet delivered — corrupted, lost to a down window,
		// or awaiting replay — widen the bracket. OutstandingFlits
		// counts them across VCs, so apply it to each VC's bound
		// conservatively; the upper bound (no credit re-materialises,
		// no flit delivered twice) stays exact.
		// The reliable receive path holds accepted flits for one cycle
		// in the rx pipeline register; those widen the bracket too,
		// as do credit returns already scheduled but not yet
		// delivered (a killed packet's discard puts one per flit in
		// flight at once, so the per-VC count is exact, not a
		// constant).
		slack := 2 + up.Channel().OutstandingFlits() + up.Channel().RxPending()
		for v := 0; v < cfg.VCs; v++ {
			vcSlack := slack + down.CreditsInFlight(cfg.meshPort(rev), v)
			sum := up.Credits(v) + down.InputBuffer(cfg.meshPort(rev), v).Len()
			if sum > cfg.BufDepth || sum < cfg.BufDepth-vcSlack {
				return fmt.Errorf("network: link router %d dir %d vc %d: credits+occupancy = %d, want within [%d,%d]",
					m.r, m.dir, v, sum, cfg.BufDepth-vcSlack, cfg.BufDepth)
			}
		}
	}
	return nil
}
