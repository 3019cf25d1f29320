package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linkmodel"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/report"
	"repro/internal/traffic"
)

// Fig5Point is one point of the Fig. 5(a-f) sweeps: a power-aware run
// normalised against the non-power-aware network at the same injection
// rate.
type Fig5Point struct {
	X           float64 // swept parameter (Tw in cycles, or avg threshold)
	Rate        float64 // injection rate, packets/cycle network-wide
	NormLatency float64
	NormPower   float64
	PLP         float64 // NormLatency × NormPower
}

// uniformAt builds the scale's uniform workload at the given rate.
func (s Scale) uniformAt(cfg network.Config, rate float64) traffic.Generator {
	return traffic.NewUniform(cfg.Nodes(), rate, s.PacketFlits)
}

// baselineLatencies runs the non-power-aware network at each rate and
// returns its mean latencies, the denominators for every normalised
// metric in Fig. 5.
func (s Scale) baselineLatencies(rates []float64) ([]float64, error) {
	return sweep(len(rates), func(i int) (float64, error) {
		cfg := s.baseConfig()
		cfg.PowerAware = false
		r, err := core.Run(cfg, s.uniformAt(cfg, rates[i]), s.Warmup, s.Measure)
		if err != nil {
			return 0, err
		}
		if r.Packets == 0 {
			return 0, fmt.Errorf("experiments: baseline at rate %g delivered nothing", rates[i])
		}
		return r.MeanLatencyCycles, nil
	})
}

// Fig5WindowSweep reproduces Fig. 5(a,b,c): normalised latency, power and
// power-latency product versus the policy window size Tw, at light, medium
// and heavy uniform injection.
func Fig5WindowSweep(s Scale) ([]Fig5Point, error) {
	xs := make([]float64, len(s.Windows))
	for i, w := range s.Windows {
		xs[i] = float64(w)
	}
	return s.fig5Sweep(xs, func(cfg *network.Config, i int) { cfg.Policy.Window = s.Windows[i] })
}

// Fig5ThresholdSweep reproduces Fig. 5(d,e,f): normalised latency, power
// and power-latency product versus the average link-utilisation threshold
// (TH − TL fixed at 0.1).
func Fig5ThresholdSweep(s Scale) ([]Fig5Point, error) {
	return s.fig5Sweep(s.Thresholds, func(cfg *network.Config, i int) {
		cfg.Policy.Thresholds = policy.ThresholdsAround(s.Thresholds[i])
	})
}

// fig5Sweep runs the paper's system, with set applied for each swept value
// xs[i], through the normalised sweep at the scale's three rates.
func (s Scale) fig5Sweep(xs []float64, set func(cfg *network.Config, i int)) ([]Fig5Point, error) {
	variants := make([]Fig5GConfig, len(xs))
	for i := range xs {
		variants[i].Make = func(s Scale) network.Config {
			cfg := s.baseConfig()
			set(&cfg, i)
			return cfg
		}
	}
	rows, err := s.runAblation(variants)
	if err != nil {
		return nil, err
	}
	points := make([]Fig5Point, len(rows))
	for k, r := range rows {
		points[k] = Fig5Point{
			X:           xs[k/len(s.Rates3)],
			Rate:        r.Rate,
			NormLatency: r.NormLatency,
			NormPower:   r.NormPower,
			PLP:         r.PLP,
		}
	}
	return points, nil
}

// Fig5GConfig names one curve of Fig. 5(g).
type Fig5GConfig struct {
	Name string
	Make func(s Scale) network.Config
}

// Fig5GConfigs returns the paper's four comparison systems: non-power-
// aware, power-aware 5-10 Gb/s, power-aware 3.3-10 Gb/s, and links
// statically set to 3.3 Gb/s.
func Fig5GConfigs() []Fig5GConfig {
	return []Fig5GConfig{
		{"non-power-aware", func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.PowerAware = false
			return cfg
		}},
		{"PA 5-10 Gb/s", func(s Scale) network.Config {
			return s.baseConfig()
		}},
		{"PA 3.3-10 Gb/s", func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.Link.LevelRates = powerlink.Levels(3.3, 10, 6)
			return cfg
		}},
		{"static 3.3 Gb/s", func(s Scale) network.Config {
			return s.baseConfig().StaticRate(3.3)
		}},
	}
}

// Fig5GPoint is one point of the latency- or power-versus-injection
// curves.
type Fig5GPoint struct {
	Config     string
	Rate       float64
	LatencyCyc float64
	Throughput float64 // delivered packets/cycle over the measured window
	NormPower  float64
}

// Fig5G reproduces Fig. 5(g): average latency versus injection rate for
// the four systems, exposing the saturation points.
func Fig5G(s Scale) ([]Fig5GPoint, error) {
	return s.rateSweep(Fig5GConfigs())
}

// rateSweep runs every config at each of the scale's injection rates.
func (s Scale) rateSweep(configs []Fig5GConfig) ([]Fig5GPoint, error) {
	n := len(s.InjectionRates)
	return sweep(len(configs)*n, func(k int) (Fig5GPoint, error) {
		c, rate := configs[k/n], s.InjectionRates[k%n]
		cfg := c.Make(s)
		r, err := core.Run(cfg, s.uniformAt(cfg, rate), s.Warmup, s.Measure)
		if err != nil {
			return Fig5GPoint{}, err
		}
		return Fig5GPoint{
			Config:     c.Name,
			Rate:       rate,
			LatencyCyc: r.MeanLatencyCycles,
			Throughput: r.AvgThroughputPktsPerCycle,
			NormPower:  r.NormPower,
		}, nil
	})
}

// Fig5HConfigs returns the four power curves of Fig. 5(h): both
// transmitter schemes at both bit-rate ranges.
func Fig5HConfigs() []Fig5GConfig {
	mk := func(scheme linkmodel.Scheme, min float64) func(Scale) network.Config {
		return func(s Scale) network.Config {
			cfg := s.baseConfig()
			cfg.Link.Scheme = scheme
			cfg.Link.LevelRates = powerlink.Levels(min, 10, 6)
			return cfg
		}
	}
	return []Fig5GConfig{
		{"VCSEL 5-10 Gb/s", mk(linkmodel.SchemeVCSEL, 5)},
		{"VCSEL 3.3-10 Gb/s", mk(linkmodel.SchemeVCSEL, 3.3)},
		{"Modulator 5-10 Gb/s", mk(linkmodel.SchemeModulator, 5)},
		{"Modulator 3.3-10 Gb/s", mk(linkmodel.SchemeModulator, 3.3)},
	}
}

// Fig5H reproduces Fig. 5(h): power consumption relative to the
// non-power-aware network versus injection rate, for VCSEL- and
// modulator-based links over both ranges.
func Fig5H(s Scale) ([]Fig5GPoint, error) {
	return s.rateSweep(Fig5HConfigs())
}

// Fig5PointsReport renders Fig5Point sweeps as a table.
func Fig5PointsReport(title, xName string, pts []Fig5Point) *report.Table {
	t := report.NewTable(title, xName, "inj rate (pkt/cyc)", "norm latency", "norm power", "power-latency product")
	for _, p := range pts {
		t.AddRowf(p.X, p.Rate, p.NormLatency, p.NormPower, p.PLP)
	}
	return t
}

// Fig5GReport renders Fig5G/Fig5H points as a table.
func Fig5GReport(title string, pts []Fig5GPoint) *report.Table {
	t := report.NewTable(title, "config", "inj rate", "latency (cyc)", "throughput (pkt/cyc)", "norm power")
	for _, p := range pts {
		t.AddRowf(p.Config, p.Rate, p.LatencyCyc, p.Throughput, p.NormPower)
	}
	return t
}
