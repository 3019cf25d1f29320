package network

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Telemetry wiring. Everything here is gated on Config.Telemetry.Enabled:
// a disabled network registers no probes, installs no hooks, and schedules
// no wheel events, so its behaviour and outputs are byte-identical to a
// build without the telemetry package.
//
// Probes only read simulator state. Reading does advance the lazily
// evaluated link state machines, but those are deterministic in observed
// time (advancing at t then t' leaves identical state to advancing only at
// t'), so sampling cannot perturb results — and because the sampler is a
// wheel event, it fires at the same cycles whether or not the run
// fast-forwards (the event bounds every skip via Wheel.NextEventAt).

// Telemetry returns the telemetry registry, or nil when disabled.
func (n *Network) Telemetry() *telemetry.Registry { return n.telem }

// telemPending returns the number of telemetry-owned wheel events. The
// quiescence check subtracts it: the recurring sampler never drains, and a
// drained network must still count as drained.
func (n *Network) telemPending() int {
	if n.telem == nil {
		return 0
	}
	return n.telem.PendingEvents()
}

// initTelemetry builds the registry, registers every probe, and installs
// the flight-recorder hooks. Called at the end of New, once routers,
// channels, the injector, and the recovery layer are all wired.
func (n *Network) initTelemetry() {
	tc := n.cfg.Telemetry
	if !tc.Enabled {
		return
	}
	reg := telemetry.NewRegistry(tc, n.wheel)
	n.telem = reg
	n.telemLat = reg.Histogram("packet_latency")

	// Global aggregates.
	reg.Gauge("net.power_w", func(now sim.Cycle) float64 {
		var p float64
		for _, ch := range n.channels {
			p += ch.PLink().PowerW(now)
		}
		return p
	})
	reg.Gauge("net.down_links", func(now sim.Cycle) float64 {
		var d int
		for _, ch := range n.channels {
			if ch.DownAt(now) {
				d++
			}
		}
		return float64(d)
	})
	reg.Gauge("net.buffered_flits", func(now sim.Cycle) float64 {
		var b int
		for _, r := range n.routers {
			b += r.BufferedFlits()
		}
		return float64(b)
	})
	reg.Counter("net.injected", n.InjectedPackets)
	reg.Counter("net.delivered", n.DeliveredPackets)
	reg.Counter("net.dropped", n.DroppedPackets)

	// Per-link series for the inter-router mesh only: the fabric is where
	// levels ladder, faults land, and recovery acts; instrumenting all
	// TotalLinks() node links as well would multiply memory and sample cost
	// for links the policy treats uniformly.
	for li := range n.meshRef {
		n.addMeshLinkProbes(li)
	}

	// Per-policy series, only for the non-default kinds: adding probes
	// changes the telemetry digest, and DVS runs must stay byte-identical
	// to their pre-engine baselines.
	if len(n.controllers) > 0 && n.cfg.Policy.Kind != policy.KindDVS {
		reg.Gauge("policy.energy_j", func(sim.Cycle) float64 { return n.ControlledLinkEnergyJ() })
		for i, c := range n.controllers {
			c := c
			pre := fmt.Sprintf("policy%d", i)
			reg.Counter(pre+".loss_derates", func() int64 { return int64(c.Stats().LossDerates) })
			reg.Counter(pre+".storm_backoffs", func() int64 { return int64(c.Stats().StormBackoffs) })
			reg.Counter(pre+".gradual_ups", func() int64 { return int64(c.Stats().GradualUps) })
			reg.Counter(pre+".guarded", func() int64 { return int64(c.Stats().Guarded) })
		}
	}

	// Per-router series.
	for rid, r := range n.routers {
		r := r
		reg.Counter(fmt.Sprintf("router%d.escape_grants", rid), r.EscapeGrants)
		reg.Gauge(fmt.Sprintf("router%d.buffered", rid), func(sim.Cycle) float64 {
			return float64(r.BufferedFlits())
		})
	}

	// Flight recorder: link hard-down windows. Scheduled failure windows
	// are known up front — exact markers at each boundary (validation
	// guarantees RepairAt > At). Watchdog-escalation resets are the surprise
	// downtime; the shards spool those into the down mailbox and the
	// coordinator records them at the cycle barrier in link order (see
	// Network.drainDownNotes).
	for _, w := range n.cfg.Fault.LinkFailures {
		link := w.Link
		reg.ScheduleMarker(w.At, func(at sim.Cycle) {
			reg.Record(telemetry.Event{At: at, Kind: telemetry.EventLinkDown, Link: link, Router: -1})
		})
		reg.ScheduleMarker(w.RepairAt, func(at sim.Cycle) {
			reg.Record(telemetry.Event{At: at, Kind: telemetry.EventLinkUp, Link: link, Router: -1})
		})
	}

	reg.Start(n.st.Now)
}

// addMeshLinkProbes registers the per-link instrument set for mesh link li.
func (n *Network) addMeshLinkProbes(li int) {
	reg := n.telem
	ref := n.meshRef[li]
	ch := n.channels[li]
	pl := ch.PLink()
	pre := fmt.Sprintf("link%d", li)

	reg.Gauge(pre+".level", func(now sim.Cycle) float64 { return float64(pl.Level(now)) })
	reg.Gauge(pre+".vdd_v", pl.VddV)
	reg.Gauge(pre+".elec_w", pl.PowerW)
	reg.Gauge(pre+".opt_w", pl.OpticalPowerW)

	// Occupancy of the link's downstream input buffers, summed over VCs.
	dst, rev, _ := n.cfg.neighbor(ref.r, ref.dir)
	bufs := make([]*router.Buffer, n.cfg.VCs)
	for v := 0; v < n.cfg.VCs; v++ {
		bufs[v] = n.routers[dst].InputBuffer(n.cfg.meshPort(rev), v)
	}
	reg.Gauge(pre+".occupancy", func(sim.Cycle) float64 {
		occ := 0
		for _, b := range bufs {
			occ += b.Len()
		}
		return float64(occ)
	})

	out := n.routers[ref.r].Output(n.cfg.meshPort(ref.dir))
	reg.Counter(pre+".credit_stalls", out.CreditStalls)
	reg.Counter(pre+".retx", func() int64 { return ch.RelStats().Retransmits })

	// Level transitions and relock failures feed the flight recorder with
	// the transition's logical cycle (the hook can fire later — lazy state
	// machines — so the recorder sorts by cycle on dump). The hooks can
	// fire inside the owning shard's window, so they spool into its flight
	// mailbox; the coordinator records the spools at the cycle barrier.
	owner := n.chanOwner[li]
	pl.OnLevelChange(func(at sim.Cycle, from, to int) {
		kind := telemetry.EventLevelUp
		if to < from {
			kind = telemetry.EventLevelDown
		}
		owner.flightMailbox = append(owner.flightMailbox,
			telemetry.Event{At: at, Kind: kind, Link: li, Router: ref.r, A: int64(from), B: int64(to)})
	})
	pl.OnRelockFail(func(at sim.Cycle, retries int) {
		owner.flightMailbox = append(owner.flightMailbox,
			telemetry.Event{At: at, Kind: telemetry.EventRelockFail, Link: li, Router: ref.r, A: int64(retries)})
	})
}
