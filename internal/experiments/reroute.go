package experiments

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// RerouteLinkRow compares one mesh link's policy activity between a
// fault-free run and a run with a hard failure on a central link: links on
// the detour paths absorb the diverted traffic and climb the bit-rate
// ladder (more up-switches, fewer idle windows).
type RerouteLinkRow struct {
	Link             string
	UpsBase, UpsFail int
	DownsBase        int
	DownsFail        int
	HoldsBase        int
	HoldsFail        int
}

// RerouteResult is the full reroute load-shift study.
type RerouteResult struct {
	FailedLink  string
	Rows        []RerouteLinkRow
	LatencyBase float64
	LatencyFail float64
	Recovery    stats.Recovery

	// Summary is the failed run's machine-readable form, experiment
	// "reroute".
	Summary report.Summary
}

// RerouteInstrumented runs the power-aware system with fault-aware routing
// enabled, fails the central router's eastbound link for the whole
// measurement window, and reports how the policy controllers on the
// neighbouring mesh links respond. The interaction under study: rerouting
// concentrates the diverted load onto the detour links, whose controllers
// answer by climbing the bit-rate ladder — the power knock-on cost of
// self-healing. Telemetry is wired into the failed run: the returned
// registry (nil when tc is disabled) carries its time series and flight
// recorder for trace export. The fault-free baseline stays uninstrumented —
// it exists only for the controller-stat comparison.
func RerouteInstrumented(s Scale, tc telemetry.Config) (RerouteResult, *telemetry.Registry, error) {
	const rate = 3.3 // the paper's medium load: enough to make detours visible

	cfg := s.baseConfig()
	// One escape VC plus two adaptive VCs — the recovery design point.
	cfg.VCs = 3
	cfg.Recovery = network.RecoveryConfig{Enabled: true}
	center := cfg.RouterAt(cfg.MeshW/2, cfg.MeshH/2)

	run := func(fc fault.Config, tc telemetry.Config) (*network.Network, error) {
		c := cfg
		c.Fault = fc
		c.Telemetry = tc
		n, err := network.New(c, traffic.NewUniform(c.Nodes(), rate, s.PacketFlits))
		if err != nil {
			return nil, err
		}
		defer n.Close()
		n.RunTo(s.Warmup)
		n.SetMeasureFrom(s.Warmup)
		n.RunTo(s.Warmup + s.Measure)
		return n, nil
	}

	base, err := run(fault.Config{}, telemetry.Config{})
	if err != nil {
		return RerouteResult{}, nil, err
	}
	failLink := base.MeshLinkIndex(center, network.DirE)
	if failLink < 0 {
		return RerouteResult{}, nil, fmt.Errorf("experiments: center router has no east link")
	}
	failed, err := run(fault.Config{LinkFailures: []fault.LinkFailure{
		{Link: failLink, At: s.Warmup, RepairAt: s.Warmup + s.Measure + 1},
	}}, tc)
	if err != nil {
		return RerouteResult{}, nil, err
	}
	if failed.DeliveredPackets() == 0 {
		return RerouteResult{}, nil, fmt.Errorf("experiments: reroute run delivered nothing")
	}

	// Mesh links are wired before node links and, under a power-aware
	// config, get their controllers in the same order — so for mesh link i,
	// Controllers()[i] is its controller.
	statsFor := func(n *network.Network, link int) policy.Stats {
		return n.Controllers()[link].Stats()
	}
	x, y := center%cfg.MeshW, center/cfg.MeshW
	probes := []struct {
		label  string
		router int
		dir    int
	}{
		{"failed r→E", center, network.DirE},
		{"detour r→N", center, network.DirN},
		{"detour r→S", center, network.DirS},
		{"detour N-nbr→E", cfg.RouterAt(x, y-1), network.DirE},
		{"detour S-nbr→E", cfg.RouterAt(x, y+1), network.DirE},
	}
	res := RerouteResult{
		FailedLink:  fmt.Sprintf("router %d east (link %d)", center, failLink),
		LatencyBase: base.MeanLatency(),
		LatencyFail: failed.MeanLatency(),
		Recovery:    failed.RecoveryStats(),
		Summary:     failed.Summary("reroute"),
	}
	for _, pr := range probes {
		li := base.MeshLinkIndex(pr.router, pr.dir)
		if li < 0 {
			continue
		}
		sb, sf := statsFor(base, li), statsFor(failed, li)
		res.Rows = append(res.Rows, RerouteLinkRow{
			Link:      pr.label,
			UpsBase:   sb.Ups,
			UpsFail:   sf.Ups,
			DownsBase: sb.Downs,
			DownsFail: sf.Downs,
			HoldsBase: sb.Holds,
			HoldsFail: sf.Holds,
		})
	}
	return res, failed.Telemetry(), nil
}

// RerouteReport renders the reroute load-shift study.
func RerouteReport(r RerouteResult) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Extension: power response to fault-aware rerouting — %s failed; latency %s → %s; reroutes %d, misroutes %d, watchdog reroutes %d",
			r.FailedLink, report.FormatFloat(r.LatencyBase), report.FormatFloat(r.LatencyFail),
			r.Recovery.Reroutes, r.Recovery.Misroutes, r.Recovery.WatchdogReroutes),
		"link", "ups (fault-free)", "ups (failed)", "downs (fault-free)", "downs (failed)", "holds (fault-free)", "holds (failed)")
	for _, row := range r.Rows {
		t.AddRowf(row.Link, row.UpsBase, row.UpsFail, row.DownsBase, row.DownsFail, row.HoldsBase, row.HoldsFail)
	}
	return t
}
