package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// tinyScale is even smaller than QuickScale: enough to exercise every code
// path and check coarse shapes without long test times.
func tinyScale() Scale {
	return Scale{
		Warmup:         2_000,
		Measure:        15_000,
		SeriesLength:   60_000,
		Bucket:         5_000,
		Windows:        []sim.Cycle{100, 1000},
		Thresholds:     []float64{0.35, 0.65},
		Rates3:         []float64{1.25, 5.05},
		InjectionRates: []float64{1, 5},
		PacketFlits:    5,
		Seed:           1,
	}
}

// errOf drops a harness's result and keeps its error.
func errOf[T any](_ T, err error) error { return err }

// TestMisspelledPolicyRejected: a Policy spelling policy.ParseKind rejects
// fails every harness with an error naming it, instead of silently
// running the paper's DVS controller.
func TestMisspelledPolicyRejected(t *testing.T) {
	s := Scale{Warmup: 10, Measure: 100, SeriesLength: 1_000, Bucket: 500,
		Windows: []sim.Cycle{100}, Thresholds: []float64{0.5}, Rates3: []float64{0.1},
		InjectionRates: []float64{0.1}, PacketFlits: 5, Seed: 1, Policy: "rulez"}
	harnesses := []struct {
		name string
		run  func() error
	}{
		{"Fig5WindowSweep", func() error { return errOf(Fig5WindowSweep(s)) }},
		{"Fig5ThresholdSweep", func() error { return errOf(Fig5ThresholdSweep(s)) }},
		{"Fig5G", func() error { return errOf(Fig5G(s)) }},
		{"Fig5H", func() error { return errOf(Fig5H(s)) }},
		{"Fig6", func() error { return errOf(Fig6(s)) }},
		{"Fig7", func() error { return errOf(Fig7(s, trace.FFT)) }},
		{"Fig7NodeLinksFixed", func() error { return errOf(Fig7NodeLinksFixed(s, trace.FFT)) }},
		{"Fig7All", func() error { return errOf(Fig7All(s)) }},
		{"Fig7AllNodeLinksFixed", func() error { return errOf(Fig7AllNodeLinksFixed(s)) }},
		{"AblationLuDef", func() error { return errOf(AblationLuDef(s)) }},
		{"AblationSlidingN", func() error { return errOf(AblationSlidingN(s)) }},
		{"AblationBu", func() error { return errOf(AblationBu(s)) }},
		{"AblationLevels", func() error { return errOf(AblationLevels(s)) }},
		{"AblationOnOff", func() error { return errOf(AblationOnOff(s)) }},
		{"AblationPredictor", func() error { return errOf(AblationPredictor(s)) }},
		{"AblationRouting", func() error { return errOf(AblationRouting(s)) }},
		{"Throughput", func() error { return errOf(Throughput(s)) }},
		{"Patterns", func() error { return errOf(Patterns(s)) }},
		{"Replicate", func() error { return errOf(Replicate(s, 0.1, 2)) }},
		{"Reroute", func() error { return errOf(Reroute(s)) }},
		{"Faults", func() error { return errOf(Faults(s, fault.Config{BERFloor: 1e-4})) }},
		{"PolicyStudy", func() error { return errOf(PolicyStudy(s)) }},
	}
	for _, h := range harnesses {
		if err := h.run(); err == nil || !strings.Contains(err.Error(), `"rulez"`) {
			t.Errorf("%s: error %v, want one naming \"rulez\"", h.name, err)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	rows := Table2()
	want := map[string]float64{
		"VCSEL": 30, "VCSEL driver": 10, "Modulator driver": 40, "TIA": 100, "CDR": 150,
	}
	for _, r := range rows {
		w, ok := want[r.Component.String()]
		if !ok {
			t.Errorf("unexpected component %v", r.Component)
			continue
		}
		if math.Abs(r.PowerMW-w) > 0.01 {
			t.Errorf("%v = %.2f mW, want %g", r.Component, r.PowerMW, w)
		}
	}
	rep := Table2Report().String()
	if !strings.Contains(rep, "61.") {
		t.Error("report missing the 5 Gb/s link total")
	}
}

func TestFig5WindowSweepShapes(t *testing.T) {
	pts, err := Fig5WindowSweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("got %d points, want 4", len(pts))
	}
	for _, p := range pts {
		if p.NormLatency < 0.9 {
			t.Errorf("Tw=%g rate=%g: PA latency below non-PA (%g)", p.X, p.Rate, p.NormLatency)
		}
		if p.NormPower <= 0.15 || p.NormPower >= 1 {
			t.Errorf("Tw=%g rate=%g: norm power %g out of range", p.X, p.Rate, p.NormPower)
		}
		if math.Abs(p.PLP-p.NormLatency*p.NormPower) > 1e-9 {
			t.Error("PLP inconsistent")
		}
	}
}

func TestFig5ThresholdSweepShapes(t *testing.T) {
	pts, err := Fig5ThresholdSweep(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Higher thresholds must not increase power at the light rate
	// (more aggressive downscaling).
	var lowT, highT float64
	for _, p := range pts {
		if p.Rate != 1.25 {
			continue
		}
		if p.X == 0.35 {
			lowT = p.NormPower
		}
		if p.X == 0.65 {
			highT = p.NormPower
		}
	}
	if highT > lowT+0.02 {
		t.Errorf("power at threshold 0.65 (%g) exceeds 0.35 (%g)", highT, lowT)
	}
}

func TestFig5GShapes(t *testing.T) {
	pts, err := Fig5G(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	at := func(cfg string, rate float64) Fig5GPoint {
		for _, p := range pts {
			if p.Config == cfg && p.Rate == rate {
				return p
			}
		}
		t.Fatalf("missing point %s@%g", cfg, rate)
		return Fig5GPoint{}
	}
	// At light load every system delivers the offered rate.
	for _, cfg := range []string{"non-power-aware", "PA 5-10 Gb/s", "PA 3.3-10 Gb/s"} {
		if p := at(cfg, 1); math.Abs(p.Throughput-1) > 0.1 {
			t.Errorf("%s at rate 1: throughput %g", cfg, p.Throughput)
		}
	}
	// At heavy load the static 3.3 network must deliver far less than the
	// non-power-aware one (Fig. 5g's headline).
	heavyNon := at("non-power-aware", 5).Throughput
	heavyStatic := at("static 3.3 Gb/s", 5).Throughput
	if heavyStatic > 0.6*heavyNon {
		t.Errorf("static 3.3 throughput %g not far below non-PA %g", heavyStatic, heavyNon)
	}
	// PA 5-10 keeps most of the non-PA throughput.
	heavyPA := at("PA 5-10 Gb/s", 5).Throughput
	if heavyPA < 0.85*heavyNon {
		t.Errorf("PA 5-10 throughput %g lost too much vs non-PA %g", heavyPA, heavyNon)
	}
}

func TestFig5HShapes(t *testing.T) {
	pts, err := Fig5H(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.NormPower <= 0 || p.NormPower >= 1 {
			t.Errorf("%s@%g: norm power %g", p.Config, p.Rate, p.NormPower)
		}
	}
	// VCSEL must beat (or match) the modulator scheme at the same range
	// and rate — the paper's consistent finding.
	byKey := map[string]float64{}
	for _, p := range pts {
		byKey[p.Config+"@"+report_f(p.Rate)] = p.NormPower
	}
	for _, rate := range []float64{1, 5} {
		v := byKey["VCSEL 5-10 Gb/s@"+report_f(rate)]
		m := byKey["Modulator 5-10 Gb/s@"+report_f(rate)]
		if v > m+0.01 {
			t.Errorf("at rate %g VCSEL power %g exceeds modulator %g", rate, v, m)
		}
	}
	// The 3.3 floor must save more at light load than the 5 floor.
	if byKey["VCSEL 3.3-10 Gb/s@"+report_f(1.0)] >= byKey["VCSEL 5-10 Gb/s@"+report_f(1.0)] {
		t.Error("3.3 Gb/s floor does not save more at light load")
	}
}

func report_f(v float64) string { return fmt.Sprintf("%g", v) }

func TestFig6Shapes(t *testing.T) {
	r, err := Fig6(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Injection) != 12 {
		t.Fatalf("injection series has %d buckets, want 12", len(r.Injection))
	}
	if len(r.LatencyDelays) != 4 || len(r.LatencyOptical) != 3 || len(r.Power) != 2 {
		t.Fatalf("panel sizes %d/%d/%d", len(r.LatencyDelays), len(r.LatencyOptical), len(r.Power))
	}
	// The injection series must follow the schedule: the 0.73-0.87 stretch
	// is the heaviest.
	peak := 0.0
	peakT := sim.Cycle(0)
	for _, p := range r.Injection {
		if p.V > peak {
			peak, peakT = p.V, p.T
		}
	}
	frac := float64(peakT) / 60_000
	if frac < 0.6 || frac > 0.9 {
		t.Errorf("injection peak at fraction %.2f of the run, want ≈0.7-0.87", frac)
	}
	// Power panels stay in (0,1] and the VCSEL curve averages at or below
	// the modulator curve.
	v := r.Power[0].Series.MeanV()
	m := r.Power[1].Series.MeanV()
	if v > m+0.02 {
		t.Errorf("VCSEL mean power %g above modulator %g", v, m)
	}
	for _, tables := range [][]Fig6Series{r.LatencyDelays, r.LatencyOptical} {
		for _, s := range tables {
			if len(s.Series) == 0 {
				t.Errorf("empty series %q", s.Name)
			}
		}
	}
	// Rendering works.
	if got := Fig6Report(r); len(got) != 4 {
		t.Errorf("Fig6Report produced %d tables, want 4", len(got))
	}
}

func TestFig7AndTable3Shapes(t *testing.T) {
	s := tinyScale()
	s.SeriesLength = 100_000
	results, err := Fig7All(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		if r.NormLatency <= 1 {
			t.Errorf("%v: PA latency (%g) below non-PA — impossible", r.Benchmark, r.NormLatency)
		}
		// The paper's headline: >75%% power savings on every trace.
		if r.AvgNormPower >= 0.3 {
			t.Errorf("%v: norm power %g, want < 0.3 (>70%% saving)", r.Benchmark, r.AvgNormPower)
		}
		if len(r.Injection) == 0 || len(r.NormPower) == 0 {
			t.Errorf("%v: empty series", r.Benchmark)
		}
	}
	tb := Table3(results)
	if !strings.Contains(tb.String(), "FFT") {
		t.Error("Table 3 rendering broken")
	}
	for _, r := range results {
		if got := Fig7Report(r); len(got.Rows) == 0 {
			t.Errorf("%v: empty Fig7 report", r.Benchmark)
		}
	}
}

func TestSplashConfigGeometry(t *testing.T) {
	cfg := SplashConfig(tinyScale())
	if cfg.Nodes() != 64 {
		t.Errorf("SPLASH system has %d nodes, want 64", cfg.Nodes())
	}
	if cfg.Routers() != 8 {
		t.Errorf("SPLASH system has %d racks, want 8", cfg.Routers())
	}
}

func TestHotspotScheduleValid(t *testing.T) {
	s := HotspotSchedule(1_500_000)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.End() != 1_500_000 {
		t.Errorf("schedule ends at %d", s.End())
	}
	// The large jump must exist: the 0.67-0.73 phase carries ≥ 2.5× the
	// rate of the 0.60-0.67 phase (it is what forces the optical Pinc).
	if s.RateAt(1_050_000) < 2.5*s.RateAt(960_000) {
		t.Error("schedule lacks the large jump that triggers optical transitions")
	}
}

func TestAblationsRun(t *testing.T) {
	s := tinyScale()
	s.Rates3 = []float64{1.25} // one rate keeps it fast
	for name, f := range map[string]func(Scale) ([]AblationRow, error){
		"lu":     AblationLuDef,
		"n":      AblationSlidingN,
		"bu":     AblationBu,
		"levels": AblationLevels,
		"onoff":  AblationOnOff,
	} {
		rows, err := f(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: %d rows", name, len(rows))
		}
		for _, r := range rows {
			if r.NormPower <= 0 || r.NormLatency <= 0 {
				t.Errorf("%s: degenerate row %+v", name, r)
			}
		}
		if AblationReport(name, rows).String() == "" {
			t.Errorf("%s: empty report", name)
		}
	}
}

// TestAblationOnOffLosesUnderPoisson: under continuous (Poisson) traffic,
// even light, on/off links thrash — every wake runs the link at full power
// for a policy window or more before it can sleep again — so DVS wins.
// On/off only pays off when idle gaps are much longer than the policy
// window, which uniform random traffic never produces. This is the
// quantitative version of the trade-off the paper cites from Soteriou &
// Peh [26].
func TestAblationOnOffLosesUnderPoisson(t *testing.T) {
	s := tinyScale()
	s.Rates3 = []float64{0.2}
	rows, err := AblationOnOff(s)
	if err != nil {
		t.Fatal(err)
	}
	var dvs, onoff AblationRow
	for _, r := range rows {
		if strings.Contains(r.Variant, "on/off") {
			onoff = r
		} else {
			dvs = r
		}
	}
	if dvs.NormPower >= onoff.NormPower {
		t.Errorf("DVS power %g not below on/off %g under light Poisson traffic", dvs.NormPower, onoff.NormPower)
	}
}

func TestFig7NodeLinksFixedVariant(t *testing.T) {
	s := tinyScale()
	s.SeriesLength = 100_000
	r, err := Fig7NodeLinksFixed(s, trace.LU)
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgNormPower <= 0 || r.AvgNormPower >= 1 {
		t.Errorf("fabric norm power %g out of range", r.AvgNormPower)
	}
}

// TestPatternsSpatialVariance: permutation traffic leaves regions idle, so
// the power-aware network must save at least as much on neighbor traffic
// (minimal fabric use) as on uniform traffic at the same rate.
func TestPatternsSpatialVariance(t *testing.T) {
	rows, err := Patterns(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]PatternRow{}
	for _, r := range rows {
		byName[r.Pattern] = r
	}
	if len(byName) != 5 {
		t.Fatalf("got %d patterns", len(byName))
	}
	for name, r := range byName {
		if r.NormPower <= 0.15 || r.NormPower >= 1 {
			t.Errorf("%s: norm power %g out of range", name, r.NormPower)
		}
		if r.NormLatency <= 0 {
			t.Errorf("%s: norm latency %g", name, r.NormLatency)
		}
	}
	if byName["neighbor"].NormPower > byName["uniform"].NormPower+0.02 {
		t.Errorf("neighbor traffic power %g above uniform %g — spatial variance not exploited",
			byName["neighbor"].NormPower, byName["uniform"].NormPower)
	}
}

func TestReplicate(t *testing.T) {
	s := tinyScale()
	r, err := Replicate(s, 1.25, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.NormPower.N != 3 {
		t.Fatalf("N = %d, want 3", r.NormPower.N)
	}
	if r.NormPower.Mean <= 0.15 || r.NormPower.Mean >= 1 {
		t.Errorf("mean norm power %g out of range", r.NormPower.Mean)
	}
	// Light uniform traffic is near the floor on every seed: the standard
	// deviation must be tiny relative to the mean.
	if r.NormPower.StdDev > 0.05*r.NormPower.Mean {
		t.Errorf("norm power stddev %g too large vs mean %g", r.NormPower.StdDev, r.NormPower.Mean)
	}
	if ReplicateReport([]ReplicatedResult{r}).String() == "" {
		t.Error("empty report")
	}
	if _, err := Replicate(s, 1, 0); err == nil {
		t.Error("0 seeds accepted")
	}
}

func TestReplicatedStats(t *testing.T) {
	r := replicate([]float64{1, 2, 3})
	if r.Mean != 2 || r.N != 3 {
		t.Errorf("mean/N = %g/%d", r.Mean, r.N)
	}
	if math.Abs(r.StdDev-1) > 1e-12 {
		t.Errorf("stddev = %g, want 1", r.StdDev)
	}
	if replicate(nil).N != 0 {
		t.Error("empty replicate not zero")
	}
	one := replicate([]float64{5})
	if one.StdDev != 0 || one.Mean != 5 {
		t.Errorf("single-sample replicate %+v", one)
	}
}
