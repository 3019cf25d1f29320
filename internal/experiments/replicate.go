package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/report"
	"repro/internal/traffic"
)

// Replicated holds a metric's mean and sample standard deviation over
// multiple seeds.
type Replicated struct {
	Mean   float64
	StdDev float64
	N      int
}

func (r Replicated) String() string {
	return fmt.Sprintf("%.4g ± %.2g", r.Mean, r.StdDev)
}

func replicate(samples []float64) Replicated {
	n := len(samples)
	if n == 0 {
		return Replicated{}
	}
	var sum float64
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range samples {
		ss += (v - mean) * (v - mean)
	}
	sd := 0.0
	if n > 1 {
		sd = math.Sqrt(ss / float64(n-1))
	}
	return Replicated{Mean: mean, StdDev: sd, N: n}
}

// ReplicatedResult is one configuration's multi-seed summary.
type ReplicatedResult struct {
	Name        string
	NormLatency Replicated
	NormPower   Replicated
	PLP         Replicated
}

// Replicate runs the paper's headline comparison (power-aware vs
// non-power-aware under uniform traffic at the given rate) across `seeds`
// different seeds, reporting mean ± stddev. The simulator is deterministic
// per seed, so this measures workload-sampling variance — the error bars
// the paper does not print.
func Replicate(s Scale, rate float64, seeds int) (ReplicatedResult, error) {
	if seeds <= 0 {
		return ReplicatedResult{}, fmt.Errorf("experiments: seeds must be positive, got %d", seeds)
	}
	if err := s.checkPolicy(); err != nil {
		return ReplicatedResult{}, err
	}
	type run struct {
		nl, np float64
		err    error
	}
	runs := make([]run, seeds)
	forEach(seeds, func(i int) {
		seed := s.Seed + uint64(i)
		cfgPA := s.baseConfig()
		cfgPA.Seed = seed
		cfgNon := cfgPA
		cfgNon.PowerAware = false
		mk := func(cfg network.Config) traffic.Generator {
			return traffic.NewUniform(cfg.Nodes(), rate, s.PacketFlits)
		}
		pa, err := core.Run(cfgPA, mk(cfgPA), s.Warmup, s.Measure)
		if err != nil {
			runs[i].err = err
			return
		}
		non, err := core.Run(cfgNon, mk(cfgNon), s.Warmup, s.Measure)
		if err != nil {
			runs[i].err = err
			return
		}
		if non.Packets == 0 {
			runs[i].err = fmt.Errorf("experiments: seed %d delivered nothing", seed)
			return
		}
		runs[i].nl = pa.MeanLatencyCycles / non.MeanLatencyCycles
		runs[i].np = pa.NormPower
	})
	var nls, nps, plps []float64
	for _, r := range runs {
		if r.err != nil {
			return ReplicatedResult{}, r.err
		}
		nls = append(nls, r.nl)
		nps = append(nps, r.np)
		plps = append(plps, r.nl*r.np)
	}
	return ReplicatedResult{
		Name:        fmt.Sprintf("uniform %.2f pkt/cycle, %d seeds", rate, seeds),
		NormLatency: replicate(nls),
		NormPower:   replicate(nps),
		PLP:         replicate(plps),
	}, nil
}

// ReplicateReport renders multi-seed results.
func ReplicateReport(rs []ReplicatedResult) *report.Table {
	t := report.NewTable("Seed sensitivity: mean ± stddev across seeds",
		"configuration", "norm latency", "norm power", "PLP")
	for _, r := range rs {
		t.AddRow(r.Name, r.NormLatency.String(), r.NormPower.String(), r.PLP.String())
	}
	return t
}
