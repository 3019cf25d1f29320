package experiments

import (
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

	return sweep(len(pats), func(i int) (PatternRow, error) {
		nl, np, err := s.normalisedPair(s.baseConfig(), func(nodes int) (traffic.Generator, error) {
			return pats[i].mk(nodes, rate, s.PacketFlits)
		}, "pattern "+pats[i].name)
		if err != nil {
			return PatternRow{}, err
		}
		return PatternRow{
			Pattern:     pats[i].name,
			Rate:        rate,
			NormLatency: nl,
			NormPower:   np,
			PLP:         stats.PowerLatencyProduct(np, nl),
		}, nil
	})
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
