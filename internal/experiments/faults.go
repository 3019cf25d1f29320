package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// FaultRow is one run of the degraded-mode study: the power-aware network
// at a fixed load with a given fault configuration, reporting performance
// next to the reliability layer's recovery counters.
type FaultRow struct {
	Label       string
	MeanLatency float64
	NormPower   float64
	Delivered   int64
	Rel         stats.Reliability

	// Summary is the run's machine-readable form, experiment
	// "faults/<label>".
	Summary report.Summary
}

// FaultsInstrumented extends the paper's evaluation with a degraded-mode
// study: the same power-aware system is run fault-free and under the given
// fault configuration (margin-derived flit corruption, CDR relock failures,
// scheduled hard link failures). Link-level go-back-N retransmission
// recovers every fault, so the interesting output is the price paid — the
// latency and power deltas alongside the raw recovery counters. Telemetry
// is wired into the injected run: the returned registry (nil when tc is
// disabled) carries its time series and flight recorder. The fault-free
// baseline stays uninstrumented.
func FaultsInstrumented(s Scale, fc fault.Config, tc telemetry.Config) ([]FaultRow, *telemetry.Registry, error) {
	const rate = 1.5 // light-moderate: leaves headroom for replay traffic

	run := func(label string, f fault.Config, tc telemetry.Config) (FaultRow, *telemetry.Registry, error) {
		cfg := s.baseConfig()
		cfg.Fault = f
		cfg.Telemetry = tc
		sys, err := core.NewSystem(cfg, traffic.NewUniform(cfg.Nodes(), rate, s.PacketFlits))
		if err != nil {
			return FaultRow{}, nil, err
		}
		sys.Warmup(s.Warmup)
		r := sys.Measure(s.Measure)
		if r.Packets == 0 {
			return FaultRow{}, nil, fmt.Errorf("experiments: faults run %q delivered nothing", label)
		}
		row := FaultRow{
			Label:       label,
			MeanLatency: r.MeanLatencyCycles,
			NormPower:   r.NormPower,
			Delivered:   r.DeliveredPackets,
			Rel:         sys.Net.FaultStats(),
			Summary:     scenario.Summarize("faults/"+label, sys, r),
		}
		return row, sys.Net.Telemetry(), nil
	}

	base, _, err := run("fault-free", fault.Config{}, telemetry.Config{})
	if err != nil {
		return nil, nil, err
	}
	faulty, reg, err := run("injected", fc, tc)
	if err != nil {
		return nil, nil, err
	}
	return []FaultRow{base, faulty}, reg, nil
}

// FaultsReport renders the degraded-mode comparison.
func FaultsReport(rows []FaultRow) *report.Table {
	t := report.NewTable("Extension: degraded-mode operation under fault injection (1.5 pkt/cycle)",
		"run", "mean latency", "norm power", "delivered",
		"corrupt", "crc drop", "retx", "nack", "timeout", "escalate", "relock fail", "lost down")
	for _, r := range rows {
		t.AddRowf(r.Label, r.MeanLatency, r.NormPower, r.Delivered,
			r.Rel.CorruptedFlits, r.Rel.CrcDrops, r.Rel.Retransmits, r.Rel.Nacks,
			r.Rel.Timeouts, r.Rel.Escalations, r.Rel.RelockFailures, r.Rel.LostToDown)
	}
	return t
}
