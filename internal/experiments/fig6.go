package experiments

import (
	"repro/internal/core"
	"repro/internal/linkmodel"
	"repro/internal/network"
	"repro/internal/powerlink"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// HotspotSchedule is the time-varying injection schedule of Fig. 6(a),
// scaled to `length` cycles: long moderate phases, a large jump at the
// two-thirds mark (big enough to force a modulator optical-level increase),
// followed by small increases that stay within the optical band, then a
// drop — reproducing the paper's narrative for Fig. 6(c).
func HotspotSchedule(length sim.Cycle) traffic.Schedule {
	f := func(frac float64) sim.Cycle { return sim.Cycle(frac * float64(length)) }
	return traffic.Schedule{
		{Until: f(0.13), NetworkRate: 1.0},
		{Until: f(0.27), NetworkRate: 2.0},
		{Until: f(0.33), NetworkRate: 1.2},
		{Until: f(0.47), NetworkRate: 3.0},
		{Until: f(0.60), NetworkRate: 1.0},
		{Until: f(0.67), NetworkRate: 1.5},
		{Until: f(0.73), NetworkRate: 3.8}, // large jump: optical Pinc
		{Until: f(0.80), NetworkRate: 4.0}, // small increases: same band
		{Until: f(0.87), NetworkRate: 4.2},
		{Until: f(1.00), NetworkRate: 1.6},
	}
}

// hotspotGen builds the Section 4.2 hot-spot workload: the schedule above
// plus spatial skew — node 4 of rack (3,5) accepts 4× the traffic of any
// other node.
func (s Scale) hotspotGen(cfg network.Config, length sim.Cycle) traffic.Generator {
	hot := 0
	if cfg.MeshW > 3 && cfg.MeshH > 5 {
		hot = cfg.NodeID(3, 5, 4)
	}
	return &traffic.Hotspot{
		Nodes:     cfg.Nodes(),
		Phases:    HotspotSchedule(length),
		HotNode:   hot,
		HotWeight: 4,
		Size:      s.PacketFlits,
	}
}

// Fig6Series is one labelled time-series curve.
type Fig6Series struct {
	Name   string
	Series stats.Series
}

// Fig6Result bundles the four panels of Fig. 6.
type Fig6Result struct {
	// Injection is panel (a): offered packets/cycle over time.
	Injection stats.Series
	// LatencyDelays is panel (b): latency over time for the non-power-
	// aware network, the power-aware network, and power-aware variants
	// with transition delays zeroed.
	LatencyDelays []Fig6Series
	// LatencyOptical is panel (c): latency over time for modulator-based
	// systems with a single versus multiple optical power levels, plus the
	// non-power-aware reference.
	LatencyOptical []Fig6Series
	// Power is panel (d): normalised power over time for VCSEL- versus
	// modulator-based power-aware systems.
	Power []Fig6Series
}

// Fig6 reproduces Fig. 6 under the time-varying hot-spot trace.
func Fig6(s Scale) (*Fig6Result, error) {
	if err := s.checkPolicy(); err != nil {
		return nil, err
	}
	type job struct {
		name string
		cfg  network.Config
	}
	mkPA := func(scheme linkmodel.Scheme, tbr, tv sim.Cycle, multiOptical bool) network.Config {
		cfg := s.baseConfig()
		cfg.Link.Scheme = scheme
		cfg.Link.Tbr = tbr
		cfg.Link.Tv = tv
		if scheme == linkmodel.SchemeModulator && multiOptical {
			opt := powerlink.PaperOpticalLevels(cfg.Link.Params.ModInputOpticalW)
			cfg.Link.Optical = &opt
			cfg.Policy.LaserEpoch = sim.CyclesFromMicros(200)
		}
		return cfg
	}
	nonPA := s.baseConfig()
	nonPA.PowerAware = false

	jobs := []job{
		{"non-power-aware", nonPA}, // 0: panels b, c reference
		{"PA (Tbr=20, Tv=100)", mkPA(linkmodel.SchemeModulator, 20, 100, false)},             // 1: panel b
		{"PA (Tbr=0, Tv=100)", mkPA(linkmodel.SchemeModulator, 0, 100, false)},               // 2: panel b
		{"PA (Tbr=0, Tv=0)", mkPA(linkmodel.SchemeModulator, 0, 0, false)},                   // 3: panel b
		{"modulator, single optical level", mkPA(linkmodel.SchemeModulator, 20, 100, false)}, // 4: panel c (same sim as 1, kept for labelling)
		{"modulator, 3 optical levels", mkPA(linkmodel.SchemeModulator, 20, 100, true)},      // 5: panel c
		{"VCSEL-based PA", mkPA(linkmodel.SchemeVCSEL, 20, 100, false)},                      // 6: panel d
	}

	results := make([]core.Result, len(jobs))
	seriesBundle := make([]core.TimeSeries, len(jobs))
	errs := make([]error, len(jobs))
	forEach(len(jobs), func(i int) {
		gen := s.hotspotGen(jobs[i].cfg, s.SeriesLength)
		r, ts, err := core.RunSeries(jobs[i].cfg, gen, s.SeriesLength, s.Bucket)
		results[i], seriesBundle[i], errs[i] = r, ts, err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &Fig6Result{Injection: seriesBundle[0].InjectionRate}
	for _, i := range []int{0, 1, 2, 3} {
		out.LatencyDelays = append(out.LatencyDelays, Fig6Series{jobs[i].name, seriesBundle[i].MeanLatency})
	}
	for _, i := range []int{0, 4, 5} {
		out.LatencyOptical = append(out.LatencyOptical, Fig6Series{jobs[i].name, seriesBundle[i].MeanLatency})
	}
	for _, i := range []int{6, 1} {
		name := "modulator-based PA"
		if i == 6 {
			name = "VCSEL-based PA"
		}
		out.Power = append(out.Power, Fig6Series{name, seriesBundle[i].NormPower})
	}
	return out, nil
}

// Fig6Report renders the four panels as tables with sparkline summaries.
func Fig6Report(r *Fig6Result) []*report.Table {
	var tables []*report.Table

	ta := report.NewTable("Fig 6(a): hot-spot injection rate over time", "t (cycles)", "packets/cycle")
	for _, p := range r.Injection {
		ta.AddRowf(float64(p.T), p.V)
	}
	tables = append(tables, ta)

	mkPanel := func(title string, curves []Fig6Series) *report.Table {
		headers := []string{"t (cycles)"}
		for _, c := range curves {
			headers = append(headers, c.Name)
		}
		t := report.NewTable(title, headers...)
		if len(curves) == 0 {
			return t
		}
		for i := range curves[0].Series {
			cells := []interface{}{float64(curves[0].Series[i].T)}
			for _, c := range curves {
				cells = append(cells, c.Series[i].V)
			}
			t.AddRowf(cells...)
		}
		return t
	}
	tables = append(tables,
		mkPanel("Fig 6(b): latency over time, transition-delay ablation (cycles)", r.LatencyDelays),
		mkPanel("Fig 6(c): latency over time, single vs multiple optical levels (cycles)", r.LatencyOptical),
		mkPanel("Fig 6(d): normalised power over time, VCSEL vs modulator", r.Power),
	)
	return tables
}
