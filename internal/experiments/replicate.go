package experiments

import (
	"fmt"
	"math"

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
	type run struct{ nl, np float64 }
	runs, err := sweep(seeds, func(i int) (run, error) {
		seed := s.Seed + uint64(i)
		cfg := s.baseConfig()
		cfg.Seed = seed
		nl, np, err := s.normalisedPair(cfg, func(nodes int) (traffic.Generator, error) {
			return traffic.NewUniform(nodes, rate, s.PacketFlits), nil
		}, fmt.Sprintf("seed %d", seed))
		return run{nl, np}, err
	})
	if err != nil {
		return ReplicatedResult{}, err
	}
	var nls, nps, plps []float64
	for _, r := range runs {
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
