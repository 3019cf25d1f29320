package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linkmodel"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// SplashConfig returns the system the paper ran SPLASH-2 traces on: 64
// nodes housed in 8 racks (a 4×2 mesh of 8-node clusters), modulator-based
// power-aware links.
func SplashConfig(s Scale) network.Config {
	cfg := s.baseConfig()
	cfg.MeshW, cfg.MeshH = 4, 2
	cfg.Link.Scheme = linkmodel.SchemeModulator
	return cfg
}

// Fig7Result holds one benchmark's panels: injection rate over time and
// normalised power over time, plus the aggregates feeding Table 3.
type Fig7Result struct {
	Benchmark trace.Benchmark
	// Injection is the left panel (Fig. 7 a/c/e).
	Injection stats.Series
	// NormPower is the right panel (Fig. 7 b/d/f).
	NormPower stats.Series
	// Aggregates versus the non-power-aware network (Table 3).
	NormLatency     float64
	AvgNormPower    float64
	PowerLatencyPrd float64
}

// splashLength returns the trace snapshot length for this scale: the full
// scale uses the trace package's default (~1.2M cycles, matching Fig. 7's
// windows); smaller scales shrink proportionally.
func (s Scale) splashLength() sim.Cycle {
	if s.SeriesLength >= trace.DefaultLength {
		return trace.DefaultLength
	}
	return s.SeriesLength
}

// Fig7 reproduces Fig. 7 and the Table 3 aggregates for one benchmark,
// with every link power-aware (the paper's design).
func Fig7(s Scale, b trace.Benchmark) (*Fig7Result, error) {
	return fig7Run(s, b, SplashConfig(s), false)
}

// Fig7NodeLinksFixed is the Table 3 sensitivity variant discussed in
// EXPERIMENTS.md: injection/ejection links pinned at the full bit rate
// (removing the per-packet serialisation floor that single-node links at
// the 5 Gb/s idle level impose), with power normalised over the
// router-to-router fabric that remains power-aware.
func Fig7NodeLinksFixed(s Scale, b trace.Benchmark) (*Fig7Result, error) {
	cfg := SplashConfig(s)
	cfg.NodeLinksPowerAware = false
	return fig7Run(s, b, cfg, true)
}

func fig7Run(s Scale, b trace.Benchmark, cfgPA network.Config, fabricPower bool) (*Fig7Result, error) {
	if err := s.checkPolicy(); err != nil {
		return nil, err
	}
	length := s.splashLength()
	cfgNon := cfgPA
	cfgNon.PowerAware = false

	var rPA, rNon core.Result
	var tsPA core.TimeSeries
	errs := make([]error, 2)
	forEach(2, func(i int) {
		if i == 0 {
			gen := trace.Generator(b, cfgPA.Nodes(), length)
			rPA, tsPA, errs[0] = core.RunSeries(cfgPA, gen, length, s.Bucket)
		} else {
			gen := trace.Generator(b, cfgNon.Nodes(), length)
			rNon, _, errs[1] = core.RunSeries(cfgNon, gen, length, s.Bucket)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if rNon.Packets == 0 || rPA.Packets == 0 {
		return nil, fmt.Errorf("experiments: %v trace delivered no packets", b)
	}
	normLat := rPA.MeanLatencyCycles / rNon.MeanLatencyCycles
	power := rPA.NormPower
	if fabricPower {
		power = rPA.FabricNormPower
	}
	return &Fig7Result{
		Benchmark:       b,
		Injection:       tsPA.InjectionRate,
		NormPower:       tsPA.NormPower,
		NormLatency:     normLat,
		AvgNormPower:    power,
		PowerLatencyPrd: stats.PowerLatencyProduct(power, normLat),
	}, nil
}

// Fig7AllNodeLinksFixed runs the sensitivity variant for all benchmarks.
func Fig7AllNodeLinksFixed(s Scale) ([]*Fig7Result, error) {
	bs := trace.Benchmarks()
	out := make([]*Fig7Result, len(bs))
	for i, b := range bs {
		var err error
		out[i], err = Fig7NodeLinksFixed(s, b)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Fig7All runs all three benchmarks.
func Fig7All(s Scale) ([]*Fig7Result, error) {
	bs := trace.Benchmarks()
	out := make([]*Fig7Result, len(bs))
	errs := make([]error, len(bs))
	// Each Fig7 call parallelises internally (PA vs non-PA); run the
	// benchmarks sequentially to bound memory.
	for i, b := range bs {
		out[i], errs[i] = Fig7(s, b)
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	return out, nil
}

// Table3 reproduces Table 3 from Fig7All results.
func Table3(results []*Fig7Result) *report.Table {
	t := report.NewTable("Table 3: power-aware vs non-power-aware, SPLASH-2-like traces",
		"metric", "FFT", "LU", "Radix")
	get := func(b trace.Benchmark) *Fig7Result {
		for _, r := range results {
			if r.Benchmark == b {
				return r
			}
		}
		return &Fig7Result{}
	}
	f, l, r := get(trace.FFT), get(trace.LU), get(trace.Radix)
	t.AddRowf("Average latency", f.NormLatency, l.NormLatency, r.NormLatency)
	t.AddRowf("Average power consumption", f.AvgNormPower, l.AvgNormPower, r.AvgNormPower)
	t.AddRowf("Average power latency product", f.PowerLatencyPrd, l.PowerLatencyPrd, r.PowerLatencyPrd)
	return t
}

// Fig7Report renders one benchmark's two panels.
func Fig7Report(r *Fig7Result) *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig 7 (%v): injection rate and normalised power over time", r.Benchmark),
		"t (cycles)", "injection (pkt/cyc)", "norm power")
	for i := range r.Injection {
		t.AddRowf(float64(r.Injection[i].T), r.Injection[i].V, r.NormPower[i].V)
	}
	return t
}
