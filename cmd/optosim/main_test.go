package main

import (
	"sort"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// TestRegistryRunsEveryExperiment runs each optosim experiment end to end
// at a micro scale, with the command's default flags: every entry must
// succeed and render at least one table.
func TestRegistryRunsEveryExperiment(t *testing.T) {
	s := experiments.QuickScale()
	s.Warmup, s.Measure = 200, 2_000
	s.SeriesLength, s.Bucket = 10_000, 2_500
	s.Windows = []sim.Cycle{1000}
	s.Thresholds = []float64{0.5}
	s.Rates3 = []float64{1.25}
	s.InjectionRates = []float64{1.25}

	reg := registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			out, err := reg[name](s)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.tables) == 0 {
				t.Error("no tables")
			}
		})
	}
}
