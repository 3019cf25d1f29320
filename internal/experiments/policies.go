package experiments

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The policy study: every adaptive link policy (the paper's history-window
// DVS, the loss-aware rule engine, the PID tracker, and the offline-oracle
// replay) head-to-head across a matrix of fault scenarios. Each run records
// its own demand/margin trace and reports regret against the offline
// optimum ComputeOracle derives from it; the oracle-replay column replays
// the schedule computed from the DVS run's trace, making the lower bound
// executable.

// PolicyScenario is one stress case of the study.
type PolicyScenario struct {
	Name string
	// ExtraPathLossDB erodes every link's optical margin so the
	// margin-derived BER becomes rate-dependent (higher levels visibly
	// lossier) instead of vanishing at ~23 dB of slack.
	ExtraPathLossDB float64
	Fault           fault.Config
	Recovery        bool
	// Rate is the network-wide injection rate in packets/cycle.
	Rate float64
}

// PolicyScenarios returns the study's fault matrix. The sustained-ber case
// is the headline: corruption scales with the margin-projected BER at the
// *current* level, so a policy that senses measured loss and derates
// genuinely reduces drops — which the utilisation-only DVS policy cannot
// see (its guard projects the unscaled physical BER).
func PolicyScenarios() []PolicyScenario {
	return []PolicyScenario{
		{Name: "clean", Rate: 3.0},
		{
			Name:            "sustained-ber",
			ExtraPathLossDB: 23,
			Fault:           fault.Config{BERScale: 1e9},
			Rate:            3.0,
		},
		{
			Name:  "relock-storm",
			Fault: fault.Config{RelockFailProb: 0.5},
			Rate:  3.0,
		},
		{
			Name: "outage",
			Fault: fault.Config{
				BERFloor: 1e-4,
				LinkFailures: []fault.LinkFailure{
					{Link: 0, At: 5_000, RepairAt: 15_000},
					{Link: 7, At: 10_000, RepairAt: 20_000},
				},
			},
			Recovery: true,
			Rate:     2.0,
		},
	}
}

// PolicyRow is one (scenario, policy) cell.
type PolicyRow struct {
	Scenario    string
	Policy      string
	MeanLatency float64
	Delivered   int64
	Dropped     int64
	Stats       stats.Policy
	Rel         stats.Reliability

	// Summary is the cell's machine-readable form, experiment
	// "policies/<scenario>/<policy>".
	Summary report.Summary
}

// PolicyStudy runs the full matrix, or only the policy columns given. An
// oracle-replay column brings along the DVS column whose trace it replays.
// Scenarios run in parallel; the cells of one scenario run in order, since
// oracle replay needs the DVS cell's oracle.
func PolicyStudy(s Scale, only ...policy.Kind) ([]PolicyRow, error) {
	kinds := []policy.Kind{policy.KindDVS, policy.KindRules, policy.KindPID, policy.KindOracleReplay}
	if len(only) > 0 {
		kinds = only
		if slices.Contains(only, policy.KindOracleReplay) && !slices.Contains(only, policy.KindDVS) {
			kinds = append([]policy.Kind{policy.KindDVS}, only...)
		}
	}
	scenarios := PolicyScenarios()
	perScenario, err := sweep(len(scenarios), func(i int) ([]PolicyRow, error) {
		var rows []PolicyRow
		var dvsOracle *policy.Oracle
		for _, k := range kinds {
			row, orc, err := runPolicyCell(s, scenarios[i], k, dvsOracle)
			if err != nil {
				return nil, err
			}
			if k == policy.KindDVS {
				dvsOracle = orc
			}
			rows = append(rows, row)
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perScenario...), nil
}

// runPolicyCell runs one (scenario, kind) cell: the run records its trace,
// the trace yields the offline optimum, and the row's regret is the cell's
// controlled-link energy over that bound. For KindOracleReplay the replayed
// schedule is dvsOracle (computed from the DVS cell's trace).
func runPolicyCell(s Scale, sc PolicyScenario, kind policy.Kind, dvsOracle *policy.Oracle) (PolicyRow, *policy.Oracle, error) {
	cfg := s.baseConfig()
	cfg.Link.PathLossDB += sc.ExtraPathLossDB
	cfg.Fault = sc.Fault
	if sc.Recovery {
		cfg.VCs = 3
		cfg.Recovery = network.RecoveryConfig{Enabled: true}
	}
	cfg.Policy.Kind = kind
	cfg.Policy.RecordTrace = true
	if kind == policy.KindOracleReplay {
		if dvsOracle == nil {
			return PolicyRow{}, nil, fmt.Errorf("experiments: oracle replay for %q needs the DVS cell's trace", sc.Name)
		}
		cfg.Policy.Oracle = dvsOracle
	}

	sys, err := core.NewSystem(cfg, traffic.NewUniform(cfg.Nodes(), sc.Rate, s.PacketFlits))
	if err != nil {
		return PolicyRow{}, nil, err
	}
	sys.Warmup(s.Warmup)
	r := sys.Measure(s.Measure)
	if r.Packets == 0 {
		return PolicyRow{}, nil, fmt.Errorf("experiments: policy cell %s/%s delivered nothing", sc.Name, kind)
	}

	ps := sys.Net.PolicyStats()
	var orc *policy.Oracle
	if tr := sys.Net.PolicyTrace(); tr != nil {
		o, err := policy.ComputeOracle(*tr, sys.Net.ControlledLinkModels())
		if err != nil {
			return PolicyRow{}, nil, err
		}
		orc = &o
		ps.SetOracle(o.EnergyJ)
	}
	row := PolicyRow{
		Scenario:    sc.Name,
		Policy:      kind.String(),
		MeanLatency: r.MeanLatencyCycles,
		Delivered:   r.DeliveredPackets,
		Dropped:     sys.Net.DroppedPackets(),
		Stats:       ps,
		Rel:         sys.Net.FaultStats(),
		Summary:     scenario.Summarize("policies/"+sc.Name+"/"+kind.String(), sys, r),
	}
	return row, orc, nil
}

// PolicyStudyReport renders the head-to-head matrix.
func PolicyStudyReport(rows []PolicyRow) *report.Table {
	t := report.NewTable("Extension: adaptive policies head-to-head with per-run regret vs the offline oracle",
		"scenario", "policy", "mean latency", "delivered", "dropped",
		"crc drop", "retx", "escalate", "guarded", "derates", "backoffs",
		"energy (J)", "oracle (J)", "regret")
	for _, r := range rows {
		t.AddRowf(r.Scenario, r.Policy, r.MeanLatency, r.Delivered, r.Dropped,
			r.Rel.CrcDrops, r.Rel.Retransmits, r.Rel.Escalations,
			r.Stats.Guarded, r.Stats.LossDerates, r.Stats.StormBackoffs,
			r.Stats.EnergyJ, r.Stats.OracleEnergyJ, r.Stats.RegretFrac)
	}
	return t
}
