package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// PatternRow is one traffic pattern's power/latency outcome on the
// power-aware network.
type PatternRow struct {
	Pattern     string
	Rate        float64
	NormLatency float64
	NormPower   float64
	PLP         float64
}

// Patterns extends the paper's evaluation with the standard permutation
// workloads (transpose, bit-complement, bit-reverse, neighbor) alongside
// uniform random. Permutations leave entire regions of the mesh idle, so
// a power-aware network saves more on them than on uniform traffic at the
// same offered load — spatial variance is the second of the paper's two
// motivating observations.
func Patterns(s Scale) ([]PatternRow, error) {
	if err := s.checkPolicy(); err != nil {
		return nil, err
	}
	type pat struct {
		name string
		mk   func(nodes int, rate float64, size int) (traffic.Generator, error)
	}
	pats := []pat{
		{"uniform", func(n int, r float64, sz int) (traffic.Generator, error) {
			return traffic.NewUniform(n, r, sz), nil
		}},
		{"transpose", func(n int, r float64, sz int) (traffic.Generator, error) {
			return traffic.NewPermutation(n, r, sz, traffic.Transpose)
		}},
		{"bit-complement", func(n int, r float64, sz int) (traffic.Generator, error) {
			return traffic.NewPermutation(n, r, sz, traffic.BitComplement)
		}},
		{"bit-reverse", func(n int, r float64, sz int) (traffic.Generator, error) {
			return traffic.NewPermutation(n, r, sz, traffic.BitReverse)
		}},
		{"neighbor", func(n int, r float64, sz int) (traffic.Generator, error) {
			return traffic.NewPermutation(n, r, sz, traffic.Neighbor)
		}},
	}
	const rate = 1.5 // light-moderate, below every pattern's saturation

	rows := make([]PatternRow, len(pats))
	errs := make([]error, len(pats))
	forEach(len(pats), func(i int) {
		cfgPA := s.baseConfig()
		cfgNon := s.baseConfig()
		cfgNon.PowerAware = false
		genPA, err := pats[i].mk(cfgPA.Nodes(), rate, s.PacketFlits)
		if err != nil {
			errs[i] = err
			return
		}
		genNon, err := pats[i].mk(cfgNon.Nodes(), rate, s.PacketFlits)
		if err != nil {
			errs[i] = err
			return
		}
		pa, err := core.Run(cfgPA, genPA, s.Warmup, s.Measure)
		if err != nil {
			errs[i] = err
			return
		}
		non, err := core.Run(cfgNon, genNon, s.Warmup, s.Measure)
		if err != nil {
			errs[i] = err
			return
		}
		if non.Packets == 0 || pa.Packets == 0 {
			errs[i] = fmt.Errorf("experiments: pattern %s delivered nothing", pats[i].name)
			return
		}
		nl := pa.MeanLatencyCycles / non.MeanLatencyCycles
		rows[i] = PatternRow{
			Pattern:     pats[i].name,
			Rate:        rate,
			NormLatency: nl,
			NormPower:   pa.NormPower,
			PLP:         stats.PowerLatencyProduct(pa.NormPower, nl),
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// PatternsReport renders the pattern comparison.
func PatternsReport(rows []PatternRow) *report.Table {
	t := report.NewTable("Extension: power-aware savings by traffic pattern (1.5 pkt/cycle)",
		"pattern", "norm latency", "norm power", "PLP")
	for _, r := range rows {
		t.AddRowf(r.Pattern, r.NormLatency, r.NormPower, r.PLP)
	}
	return t
}
