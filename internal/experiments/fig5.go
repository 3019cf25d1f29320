package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linkmodel"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/report"
	"repro/internal/stats"
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
	if err := s.checkPolicy(); err != nil {
		return nil, err
	}
	lats := make([]float64, len(rates))
	errs := make([]error, len(rates))
	forEach(len(rates), func(i int) {
		cfg := s.baseConfig()
		cfg.PowerAware = false
		r, err := core.Run(cfg, s.uniformAt(cfg, rates[i]), s.Warmup, s.Measure)
		if err != nil {
			errs[i] = err
			return
		}
		if r.Packets == 0 {
			errs[i] = fmt.Errorf("experiments: baseline at rate %g delivered nothing", rates[i])
			return
		}
		lats[i] = r.MeanLatencyCycles
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return lats, nil
}

// Fig5WindowSweep reproduces Fig. 5(a,b,c): normalised latency, power and
// power-latency product versus the policy window size Tw, at light, medium
// and heavy uniform injection.
func Fig5WindowSweep(s Scale) ([]Fig5Point, error) {
	base, err := s.baselineLatencies(s.Rates3)
	if err != nil {
		return nil, err
	}
	points := make([]Fig5Point, len(s.Windows)*len(s.Rates3))
	errs := make([]error, len(points))
	forEach(len(points), func(k int) {
		wi, ri := k/len(s.Rates3), k%len(s.Rates3)
		cfg := s.baseConfig()
		cfg.Policy.Window = s.Windows[wi]
		r, err := core.Run(cfg, s.uniformAt(cfg, s.Rates3[ri]), s.Warmup, s.Measure)
		if err != nil {
			errs[k] = err
			return
		}
		nl := r.MeanLatencyCycles / base[ri]
		points[k] = Fig5Point{
			X:           float64(s.Windows[wi]),
			Rate:        s.Rates3[ri],
			NormLatency: nl,
			NormPower:   r.NormPower,
			PLP:         stats.PowerLatencyProduct(r.NormPower, nl),
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
}

// Fig5ThresholdSweep reproduces Fig. 5(d,e,f): normalised latency, power
// and power-latency product versus the average link-utilisation threshold
// (TH − TL fixed at 0.1).
func Fig5ThresholdSweep(s Scale) ([]Fig5Point, error) {
	base, err := s.baselineLatencies(s.Rates3)
	if err != nil {
		return nil, err
	}
	points := make([]Fig5Point, len(s.Thresholds)*len(s.Rates3))
	errs := make([]error, len(points))
	forEach(len(points), func(k int) {
		ti, ri := k/len(s.Rates3), k%len(s.Rates3)
		cfg := s.baseConfig()
		cfg.Policy.Thresholds = policy.ThresholdsAround(s.Thresholds[ti])
		r, err := core.Run(cfg, s.uniformAt(cfg, s.Rates3[ri]), s.Warmup, s.Measure)
		if err != nil {
			errs[k] = err
			return
		}
		nl := r.MeanLatencyCycles / base[ri]
		points[k] = Fig5Point{
			X:           s.Thresholds[ti],
			Rate:        s.Rates3[ri],
			NormLatency: nl,
			NormPower:   r.NormPower,
			PLP:         stats.PowerLatencyProduct(r.NormPower, nl),
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
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
	if err := s.checkPolicy(); err != nil {
		return nil, err
	}
	configs := Fig5GConfigs()
	points := make([]Fig5GPoint, len(configs)*len(s.InjectionRates))
	errs := make([]error, len(points))
	forEach(len(points), func(k int) {
		ci, ri := k/len(s.InjectionRates), k%len(s.InjectionRates)
		cfg := configs[ci].Make(s)
		rate := s.InjectionRates[ri]
		r, err := core.Run(cfg, s.uniformAt(cfg, rate), s.Warmup, s.Measure)
		if err != nil {
			errs[k] = err
			return
		}
		points[k] = Fig5GPoint{
			Config:     configs[ci].Name,
			Rate:       rate,
			LatencyCyc: r.MeanLatencyCycles,
			Throughput: r.AvgThroughputPktsPerCycle,
			NormPower:  r.NormPower,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
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
	if err := s.checkPolicy(); err != nil {
		return nil, err
	}
	configs := Fig5HConfigs()
	points := make([]Fig5GPoint, len(configs)*len(s.InjectionRates))
	errs := make([]error, len(points))
	forEach(len(points), func(k int) {
		ci, ri := k/len(s.InjectionRates), k%len(s.InjectionRates)
		cfg := configs[ci].Make(s)
		rate := s.InjectionRates[ri]
		r, err := core.Run(cfg, s.uniformAt(cfg, rate), s.Warmup, s.Measure)
		if err != nil {
			errs[k] = err
			return
		}
		points[k] = Fig5GPoint{
			Config:     configs[ci].Name,
			Rate:       rate,
			LatencyCyc: r.MeanLatencyCycles,
			Throughput: r.AvgThroughputPktsPerCycle,
			NormPower:  r.NormPower,
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return points, nil
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
