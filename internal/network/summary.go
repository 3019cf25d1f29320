package network

import (
	"repro/internal/policy"
	"repro/internal/report"
)

// Summary renders the run so far as a report.Summary: every headline
// number the network itself knows (mean measured latency, delivered and
// dropped packets, delivered flits, the level and time-at-level
// histograms) plus the reliability, recovery, policy and telemetry blocks,
// each present exactly when the configuration enabled its layer. The
// policy block carries the regret oracle when the run recorded a trace.
//
// It is the one place a run's summary is assembled: the harnesses, the
// workers and the invariance matrix call it, so the same run renders the
// same bytes wherever it is summarised. Measured-window energy and
// normalised power need the warm-up bracket core.System keeps;
// scenario.Summarize adds them.
func (n *Network) Summary(experiment string) report.Summary {
	lv, off := n.LevelHistogram()
	hist := make([]int64, len(lv))
	for i, v := range lv {
		hist[i] = int64(v)
	}
	sum := report.Summary{
		Experiment:     experiment,
		Seed:           n.cfg.Seed,
		MeanLatency:    n.MeanLatency(),
		Delivered:      n.DeliveredPackets(),
		Dropped:        n.DroppedPackets(),
		DeliveredFlits: n.DeliveredFlits(),
		LevelHistogram: hist,
		OffLinks:       off,
		TimeAtLevel:    n.TimeAtLevelHistogram(),
	}
	if n.cfg.Fault.Enabled() {
		rel := n.FaultStats()
		sum.Reliability = &rel
	}
	if n.cfg.Recovery.Enabled {
		rec := n.RecoveryStats()
		sum.Recovery = &rec
	}
	if ps := n.PolicyStats(); ps.Windows > 0 {
		if tr := n.PolicyTrace(); tr != nil {
			if o, err := policy.ComputeOracle(*tr, n.ControlledLinkModels()); err == nil {
				ps.SetOracle(o.EnergyJ)
			}
		}
		sum.Policy = &ps
	}
	if n.cfg.Telemetry.Enabled {
		d := n.telem.Digest()
		sum.Telemetry = &d
	}
	return sum
}
