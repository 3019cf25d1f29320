package experiments

import (
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/report"
	"repro/internal/stats"
)

// AblationRow is one variant's result at one injection rate.
type AblationRow struct {
	Variant     string
	Rate        float64
	NormLatency float64
	NormPower   float64
	PLP         float64
	Throughput  float64
}

// runAblation measures every variant at the scale's three rates against
// the non-power-aware baseline: the one normalised sweep behind Fig. 5(a-f)
// and every ablation.
func (s Scale) runAblation(variants []Fig5GConfig) ([]AblationRow, error) {
	base, err := s.baselineLatencies(s.Rates3)
	if err != nil {
		return nil, err
	}
	n := len(s.Rates3)
	return sweep(len(variants)*n, func(k int) (AblationRow, error) {
		v, ri := variants[k/n], k%n
		cfg := v.Make(s)
		r, err := core.Run(cfg, s.uniformAt(cfg, s.Rates3[ri]), s.Warmup, s.Measure)
		if err != nil {
			return AblationRow{}, err
		}
		nl := r.MeanLatencyCycles / base[ri]
		return AblationRow{
			Variant:     v.Name,
			Rate:        s.Rates3[ri],
			NormLatency: nl,
			NormPower:   r.NormPower,
			PLP:         stats.PowerLatencyProduct(r.NormPower, nl),
			Throughput:  r.AvgThroughputPktsPerCycle,
		}, nil
	})
}

// AblationLuDef compares the busy-fraction Lu definition (our default,
// see DESIGN.md) against the paper's Eq. 10 read literally (flits per
// router cycle), which undervalues demand at reduced bit rates.
func AblationLuDef(s Scale) ([]AblationRow, error) {
	mk := func(mode policy.LuMode, name string) Fig5GConfig {
		return Fig5GConfig{name, func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.Policy.Lu = mode
			return cfg
		}}
	}
	return s.runAblation([]Fig5GConfig{
		mk(policy.LuBusyFraction, "Lu = busy fraction"),
		mk(policy.LuFlitFraction, "Lu = flit fraction (literal Eq.10)"),
	})
}

// AblationSlidingN sweeps the sliding-average depth N of Eq. 11.
func AblationSlidingN(s Scale) ([]AblationRow, error) {
	mk := func(n int, name string) Fig5GConfig {
		return Fig5GConfig{name, func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.Policy.SlidingN = n
			return cfg
		}}
	}
	return s.runAblation([]Fig5GConfig{
		mk(1, "N=1 (no smoothing)"),
		mk(4, "N=4"),
		mk(16, "N=16"),
	})
}

// AblationBu compares the Bu-conditioned threshold selection of Table 1
// against a single flat threshold set.
func AblationBu(s Scale) ([]AblationRow, error) {
	flat := Fig5GConfig{"flat thresholds (0.4/0.6)", func(s Scale) network.Config {
		cfg := s.baseConfig()
		cfg.Policy.Thresholds.LowCongested = cfg.Policy.Thresholds.LowUncongested
		cfg.Policy.Thresholds.HighCongested = cfg.Policy.Thresholds.HighUncongested
		return cfg
	}}
	table1 := Fig5GConfig{"Bu-conditioned (Table 1)", func(s Scale) network.Config {
		return s.baseConfig()
	}}
	return s.runAblation([]Fig5GConfig{table1, flat})
}

// AblationLevels sweeps the number of bit-rate levels over the 5-10 Gb/s
// range.
func AblationLevels(s Scale) ([]AblationRow, error) {
	mk := func(n int, name string) Fig5GConfig {
		return Fig5GConfig{name, func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.Link.LevelRates = powerlink.Levels(5, 10, n)
			return cfg
		}}
	}
	return s.runAblation([]Fig5GConfig{
		mk(2, "2 levels"),
		mk(6, "6 levels (paper)"),
		mk(11, "11 levels"),
	})
}

// AblationOnOff compares DVS bit-rate levels against on/off links in the
// style of Soteriou & Peh [26]: two states (10 Gb/s or off), waking on
// demand with a 1 µs resynchronisation.
func AblationOnOff(s Scale) ([]AblationRow, error) {
	onoff := Fig5GConfig{"on/off links", func(s Scale) network.Config {
		cfg := s.baseConfig()
		cfg.Link.LevelRates = []float64{10}
		cfg.Link.OffEnabled = true
		cfg.Link.OffPowerW = 0.005 // 5 mW standby
		cfg.Link.OffWakeCycles = 625
		return cfg
	}}
	dvs := Fig5GConfig{"DVS 5-10 Gb/s (paper)", func(s Scale) network.Config {
		return s.baseConfig()
	}}
	return s.runAblation([]Fig5GConfig{dvs, onoff})
}

// AblationPredictor compares the paper's sliding-window-mean predictor
// (Eq. 11) against an EWMA history predictor (explored for electrical DVS
// links in [24]).
func AblationPredictor(s Scale) ([]AblationRow, error) {
	mk := func(p policy.Predictor, alpha float64, name string) Fig5GConfig {
		return Fig5GConfig{name, func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.Policy.Predictor = p
			cfg.Policy.EWMAAlpha = alpha
			return cfg
		}}
	}
	return s.runAblation([]Fig5GConfig{
		mk(policy.PredictSlidingAvg, 0, "sliding mean (paper)"),
		mk(policy.PredictEWMA, 0.3, "EWMA alpha=0.3"),
		mk(policy.PredictEWMA, 0.7, "EWMA alpha=0.7"),
	})
}

// AblationRouting compares X-first against Y-first dimension-order routing
// under the power-aware policy (hot links move, the policy must follow).
func AblationRouting(s Scale) ([]AblationRow, error) {
	mk := func(r network.Routing, name string) Fig5GConfig {
		return Fig5GConfig{name, func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.Routing = r
			return cfg
		}}
	}
	return s.runAblation([]Fig5GConfig{
		mk(network.RoutingXY, "XY routing (paper)"),
		mk(network.RoutingYX, "YX routing"),
		mk(network.RoutingWestFirst, "adaptive west-first"),
	})
}

// AblationReport renders ablation rows.
func AblationReport(title string, rows []AblationRow) *report.Table {
	t := report.NewTable(title, "variant", "inj rate", "norm latency", "norm power", "PLP", "throughput")
	for _, r := range rows {
		t.AddRowf(r.Variant, r.Rate, r.NormLatency, r.NormPower, r.PLP, r.Throughput)
	}
	return t
}
