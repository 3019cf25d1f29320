package network

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// The invariance matrix. Spatial shards, event-driven fast-forward and
// checkpoint/resume are run modes, not model changes: every combination of
// them must reproduce the same bytes. TestInvariance generates the matrix
// as a cross product of axis lists instead of enumerating it test by test.
// Each case runs one reference (K = 1, fast-forward off, no checkpoint);
// every variant (straight and resumed, each K in invarianceShards that
// divides MeshW, fast-forward on) must match it byte for byte. A resumed
// variant saves at its K and restores at the next count on the axis that
// divides MeshW (1→2→4→8→1 on an 8-wide mesh), so every resume the mesh
// allows also changes the shard count.

// invarianceShards is the shard-count axis; a case runs the counts that
// divide its MeshW.
var invarianceShards = []int{1, 2, 4, 8}

// nextShards returns the count after k on invarianceShards that divides
// meshW, wrapping around to the first (1, which divides every width).
func nextShards(k, meshW int) int {
	i := slices.Index(invarianceShards, k)
	for {
		i = (i + 1) % len(invarianceShards)
		if meshW%invarianceShards[i] == 0 {
			return invarianceShards[i]
		}
	}
}

// invCase is one configuration of the matrix.
type invCase struct {
	// family, when set, names the subtest that groups the case with its
	// kin: "policy" holds the policy kinds at the drain load, "light" the
	// light-load cases of equivConfig, "small" the 2×2-mesh cases.
	family string
	name   string
	cfg    Config
	// rate is the uniform offered load in packets per cycle.
	rate float64
	// stopAt is the cycle traffic stops; the run then drains to quiescence.
	stopAt sim.Cycle
	// resumeAt is the resumed variants' checkpoint cycle, inside the
	// case's link-failure window when it has one.
	resumeAt sim.Cycle
	// light marks a load where fast-forward must engage.
	light bool
}

// invarianceCases builds the matrix: at the drain load, the routing ×
// power-aware × faults + recovery cross of equivConfig; at the drain and
// the light load, its hardest configuration (XY, power-aware, faults +
// recovery) with the rules, PID and oracle-replay policies and trace
// recording on, plus the default DVS policy at the light load; the 2×2
// mesh at light load (every routing × power-aware) and under sustained
// faults; and the 3×3 recovery mesh with two long link failures, with and
// without telemetry. Every case takes its seed from -faultseed.
func invarianceCases(t *testing.T) []invCase {
	routings := []struct {
		name string
		r    Routing
	}{{"xy", RoutingXY}, {"yx", RoutingYX}, {"westfirst", RoutingWestFirst}}
	drain := invCase{rate: 0.3, stopAt: 10_000, resumeAt: 5_000}
	light := invCase{family: "light", rate: 0.05, stopAt: 6_000, resumeAt: 5_000, light: true}
	withPolicy := func(kind policy.Kind) Config {
		cfg := equivConfig(RoutingXY, true, true)
		cfg.Policy.Kind = kind
		cfg.Policy.RecordTrace = true
		return cfg
	}

	// The oracle-replay cases execute the offline-optimal schedule of one
	// DVS recording run at the drain load.
	rec := drain
	rec.cfg = withPolicy(policy.KindDVS)
	rec.cfg.Seed = *faultSeed
	_, n := rec.run(t, 1, false, straight)
	o, err := policy.ComputeOracle(*n.PolicyTrace(), n.ControlledLinkModels())
	if err != nil {
		t.Fatal(err)
	}

	var cases []invCase
	add := func(base invCase, name string, cfg Config) {
		base.name = name
		base.cfg = cfg
		cases = append(cases, base)
	}
	for _, rt := range routings {
		for _, pa := range []bool{true, false} {
			for _, faults := range []bool{false, true} {
				add(drain, fmt.Sprintf("%s/pa=%v/faults=%v", rt.name, pa, faults), equivConfig(rt.r, pa, faults))
			}
		}
	}
	add(light, "xy/pa=true/faults=true", equivConfig(RoutingXY, true, true))
	policies := drain
	policies.family = "policy"
	for _, ld := range []invCase{policies, light} {
		for _, kind := range []policy.Kind{policy.KindRules, policy.KindPID, policy.KindOracleReplay} {
			cfg := withPolicy(kind)
			if kind == policy.KindOracleReplay {
				cfg.Policy.Oracle = &o
			}
			add(ld, kind.String(), cfg)
		}
	}

	small := invCase{family: "small", rate: 0.02, stopAt: 60_000, resumeAt: 30_000, light: true}
	for _, rt := range routings {
		for _, pa := range []bool{true, false} {
			cfg := smallConfig()
			cfg.Routing = rt.r
			cfg.PowerAware = pa
			add(small, fmt.Sprintf("%s/pa=%v", rt.name, pa), cfg)
		}
	}
	add(invCase{family: "small", rate: 0.25, stopAt: 20_000, resumeAt: 8_000}, "faults", faultyConfig())

	recovery := invCase{rate: 0.02, stopAt: 60_000, resumeAt: 20_000, light: true}
	cfg := telemetryConfig(t)
	add(recovery, "recovery/telemetry", cfg)
	cfg.Telemetry = telemetry.Config{}
	add(recovery, "recovery", cfg)

	for i := range cases {
		cases[i].cfg.Seed = *faultSeed
	}
	return cases
}

// TestInvariance runs the invariance matrix. A failing subtest is named
// [<family>/]<case>/straight/K=<k> or [<family>/]<case>/resume=<cycle>/K=<k>,
// where a resumed variant's K is the count it saved at.
func TestInvariance(t *testing.T) {
	t.Parallel()
	var families []string
	byFamily := map[string][]invCase{}
	for _, c := range invarianceCases(t) {
		if _, ok := byFamily[c.family]; !ok {
			families = append(families, c.family)
		}
		byFamily[c.family] = append(byFamily[c.family], c)
	}
	for _, f := range families {
		if f == "" {
			runInvCases(t, byFamily[f])
			continue
		}
		t.Run(f, func(t *testing.T) {
			t.Parallel()
			runInvCases(t, byFamily[f])
		})
	}
}

// runInvCases runs each case as a parallel subtest: its reference, then
// every variant against it.
func runInvCases(t *testing.T, cases []invCase) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			ref, n := c.run(t, 1, false, straight)
			if skips, _ := n.FastForwardStats(); skips != 0 {
				t.Errorf("fast-forward off still skipped %d times", skips)
			}
			if n.DeliveredPackets() == 0 {
				t.Error("reference delivered nothing — vacuous comparison")
			}
			if reg := n.Telemetry(); reg != nil && len(c.cfg.Fault.LinkFailures) > 0 && len(reg.Flight().Events()) == 0 {
				t.Error("no flight events recorded across a link failure — vacuous comparison")
			}
			for _, at := range []sim.Cycle{straight, c.resumeAt} {
				mode := "straight"
				if at != straight {
					mode = fmt.Sprintf("resume=%d", at)
				}
				t.Run(mode, func(t *testing.T) {
					t.Parallel()
					for _, k := range invarianceShards {
						if c.cfg.MeshW%k != 0 {
							continue
						}
						t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
							t.Parallel()
							got, n := c.run(t, k, true, at)
							if skips, _ := n.FastForwardStats(); c.light && skips == 0 {
								t.Error("fast-forward never engaged at light load")
							}
							if got != ref {
								line, want, have := firstDiff(ref, got)
								t.Errorf("diverges from the K=1 fast-forward-off reference at fingerprint line %d:\n  want %s\n  got  %s", line, want, have)
							}
						})
					}
				})
			}
		})
	}
}

// straight is the resume cycle of a run that is never checkpointed.
const straight = sim.Cycle(-1)

// run drives c at k shards with fast-forward on or off to the traffic stop
// and then to exact quiescence, and returns the run's fingerprint and the
// final network. Unless resumeAt is straight, the run is checkpointed at
// that cycle through checkpoint.Save and Load and finished in a freshly
// built network at nextShards(k) shards; the flight-recorder dump is then
// the two networks' output concatenated.
func (c invCase) run(t *testing.T, k int, ff bool, resumeAt sim.Cycle) (string, *Network) {
	t.Helper()
	cfg := c.cfg
	cfg.Shards = k
	var dump bytes.Buffer
	build := func() (*Network, *traffic.Stoppable) {
		gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), c.rate, 5))
		n, err := New(cfg, gen)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		n.SetFastForward(ff)
		if reg := n.Telemetry(); reg != nil {
			reg.SetDumpWriter(&dump)
		}
		return n, gen
	}
	n, gen := build()
	if resumeAt != straight {
		n.RunTo(resumeAt)
		st, err := n.ExportState()
		if err != nil {
			t.Fatalf("export: %v", err)
		}
		path := filepath.Join(t.TempDir(), "state.ckpt")
		if err := checkpoint.Save(path, int64(n.Now()), st); err != nil {
			t.Fatalf("save: %v", err)
		}
		var restored State
		if info, err := checkpoint.Load(path, &restored); err != nil || info.Cycle != int64(resumeAt) {
			t.Fatalf("load: cycle %d, %v; want cycle %d", info.Cycle, err, resumeAt)
		}
		cfg.Shards = nextShards(k, cfg.MeshW)
		n, gen = build()
		if err := n.RestoreState(&restored); err != nil {
			t.Fatalf("restore: %v", err)
		}
	}
	n.RunTo(c.stopAt)
	gen.Stop()
	if !n.RunUntilQuiescent(c.stopAt + 400_000) {
		t.Fatalf("not quiescent by cycle %d", n.Now())
	}
	if inj, del, drop := n.InjectedPackets(), n.DeliveredPackets(), n.DroppedPackets(); inj != del+drop {
		t.Fatalf("inexact drain: injected %d != delivered %d + dropped %d", inj, del, drop)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}

	sum := n.Summary("invariance")
	if cfg.Policy.RecordTrace && (sum.Policy == nil || sum.Policy.OracleEnergyJ <= 0) {
		t.Fatalf("policy block %+v carries no oracle", sum.Policy)
	}
	sum.EnergyJ = n.LinkEnergyJ()
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var fp strings.Builder
	fp.Write(js)
	fmt.Fprintf(&fp, "\nnow=%d head=%v min=%d max=%d p50=%v p95=%v p99=%v\n",
		n.Now(), n.MeanHeadLatency(), n.MinLatency(), n.MaxLatency(),
		n.LatencyQuantile(0.50), n.LatencyQuantile(0.95), n.LatencyQuantile(0.99))
	if reg := n.Telemetry(); reg != nil {
		reg.TriggerDump(n.Now(), "invariance")
		fp.Write(dump.Bytes())
		for _, e := range reg.Flight().Events() {
			fmt.Fprintf(&fp, "%+v\n", e)
		}
		if err := telemetry.WriteCSV(&fp, reg); err != nil {
			t.Fatal(err)
		}
	}
	return fp.String(), n
}

// firstDiff returns the 1-based number and both versions of the first line
// where two fingerprints differ.
func firstDiff(want, got string) (int, string, string) {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; ; i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g || i >= len(wl) || i >= len(gl) {
			return i + 1, w, g
		}
	}
}
