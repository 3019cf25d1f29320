package scenario_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/report"
	"repro/internal/scenario"
)

// faultyScenario is the optorun crash harness's run: a 4x4 mesh with
// constant corruption, relock failures, a hard link-failure window and
// recovery, so the checkpoints hold live replay buffers and a degraded
// topology.
const faultyScenario = `{
  "system": {"meshW": 4, "meshH": 4, "nodesPerRack": 2, "seed": 3},
  "workload": {"type": "uniform", "rate": 0.3, "packetFlits": 5},
  "fault": {"berFloor": 2e-4, "relockFailProb": 0.3,
            "linkFailures": [{"link": 3, "at": 3000, "repairAt": 8000}],
            "recovery": true},
  "run": {"warmup": 2000, "measure": 20000}
}`

func load(t *testing.T, js string) *scenario.Scenario {
	t.Helper()
	sc, err := scenario.Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// runJSON runs sc through RunSummary and renders the summary's JSON.
func runJSON(t *testing.T, sc *scenario.Scenario, name string, ck scenario.Checkpoints) []byte {
	t.Helper()
	sum, err := sc.RunSummary(name, ck)
	if err != nil {
		t.Fatal(err)
	}
	return mustJSON(t, sum)
}

func mustJSON(t *testing.T, sum report.Summary) []byte {
	t.Helper()
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// runThreeWays runs sc straight through, with a checkpoint every `every`
// cycles, and resumed in a fresh system from the checkpoint directory as
// it stood right after the second save. It returns the three summaries
// and the cycle the resumed run started from, having checked that the
// resumed run saved only the checkpoints after it.
func runThreeWays(t *testing.T, sc *scenario.Scenario, name string, every int64) (plain, ckpt, resumed []byte, resumedAt int64) {
	t.Helper()
	plain = runJSON(t, sc, name, scenario.Checkpoints{})

	dir := t.TempDir()
	ckptDir, frozen := filepath.Join(dir, "live"), filepath.Join(dir, "second")
	saves := 0
	ckpt = runJSON(t, sc, name, scenario.Checkpoints{
		Dir:   ckptDir,
		Every: every,
		AfterSave: func(saved int) {
			saves = saved
			if saved == 2 {
				copyDir(t, ckptDir, frozen)
			}
		},
	})
	if saves < 3 {
		t.Fatalf("checkpointed run saved %d checkpoints, want at least 3", saves)
	}

	var st core.State
	info, err := checkpoint.LoadLatest(frozen, &st)
	if err != nil {
		t.Fatalf("second checkpoint: %v", err)
	}
	resumedSaves := 0
	resumed = runJSON(t, sc, name, scenario.Checkpoints{Dir: frozen, Every: every,
		AfterSave: func(saved int) { resumedSaves = saved }})
	if resumedSaves != saves-2 {
		t.Errorf("resumed run saved %d checkpoints, want the %d after the second", resumedSaves, saves-2)
	}
	return plain, ckpt, resumed, info.Cycle
}

func copyDir(t *testing.T, from, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRunSummaryResumeByteIdentical: the one run loop renders the same
// bytes straight through, checkpointing every 5000 cycles, and resumed
// into a fresh system from its second checkpoint; and the DSE trial
// evaluator, which runs the same loop, agrees apart from its params echo.
func TestRunSummaryResumeByteIdentical(t *testing.T) {
	sc := load(t, faultyScenario)
	name := dse.TrialName(7)
	plain, ckpt, resumed, at := runThreeWays(t, sc, name, 5000)
	// Saves land at the warm-up end (2000) and then every 5000 cycles.
	if at != 5000 {
		t.Errorf("second checkpoint at cycle %d, want 5000", at)
	}
	if !bytes.Equal(ckpt, plain) {
		t.Errorf("checkpointed run diverges from the straight run:\n--- straight\n%s\n--- checkpointed\n%s", plain, ckpt)
	}
	if !bytes.Equal(resumed, plain) {
		t.Errorf("resumed run diverges from the straight run:\n--- straight\n%s\n--- resumed\n%s", plain, resumed)
	}
	sum, err := report.ParseSummary(plain)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reliability == nil || sum.Recovery == nil || sum.Reliability.CrcDrops == 0 || sum.EnergyJ <= 0 {
		t.Errorf("faulty run's summary lacks its fault blocks or energy: %s", plain)
	}

	trial, err := dse.ExecuteTrial(&dse.Pending{ID: 7, Scenario: sc,
		Params: report.Params{Values: map[string]float64{"window": 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	if trial.Params == nil || trial.Params.Values["window"] != 1000 {
		t.Errorf("trial summary lost its params echo: %+v", trial.Params)
	}
	trial.Params = nil
	if got := mustJSON(t, trial); !bytes.Equal(got, plain) {
		t.Errorf("ExecuteTrial diverges from RunSummary:\n--- RunSummary\n%s\n--- ExecuteTrial\n%s", plain, got)
	}
}

// TestRunSummarySeries: a series scenario runs through the same loop,
// measured from cycle 0 over Execute's bucket-rounded window, so its
// summary agrees with Execute's result and it resumes byte-identically.
func TestRunSummarySeries(t *testing.T) {
	sc := load(t, `{
		"system": {"meshW": 4, "meshH": 2, "nodesPerRack": 2, "seed": 5},
		"workload": {"type": "hotspot",
			"phases": [{"until": 6000, "rate": 0.3}, {"until": 20000, "rate": 0.05}],
			"hotNode": 3, "hotWeight": 4},
		"run": {"warmup": 700, "measure": 12000, "series": true, "bucket": 3000}
	}`)
	res, ts, err := sc.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.InjectionRate) != 4 || res.Duration != 12000 {
		t.Fatalf("Execute ran %d buckets over %d cycles, want 4 over 12000", len(ts.InjectionRate), res.Duration)
	}
	plain, ckpt, resumed, _ := runThreeWays(t, sc, "series", 2000)
	if !bytes.Equal(ckpt, plain) || !bytes.Equal(resumed, plain) {
		t.Errorf("series run is not resumable byte for byte:\n--- straight\n%s\n--- checkpointed\n%s\n--- resumed\n%s", plain, ckpt, resumed)
	}
	sum, err := report.ParseSummary(plain)
	if err != nil {
		t.Fatal(err)
	}
	if sum.MeanLatency != res.MeanLatencyCycles || sum.NormPower != res.NormPower || sum.Delivered != res.DeliveredPackets {
		t.Errorf("series summary (latency %v, power %v, delivered %d) diverges from Execute (%v, %v, %d)",
			sum.MeanLatency, sum.NormPower, sum.Delivered, res.MeanLatencyCycles, res.NormPower, res.DeliveredPackets)
	}
}

// TestSummaryBlocks: Network.Summary names the experiment, echoes the seed,
// attaches the policy block on every power-aware run, and attaches the
// reliability block only when a fault layer ran.
func TestSummaryBlocks(t *testing.T) {
	const system = `"system": {"meshW": 4, "meshH": 2, "nodesPerRack": 2, "seed": 99}`
	cells := []struct {
		name, js, kind string
		faulty         bool
	}{
		{"policies/clean/dvs", `{` + system + `, "run": {"warmup": 1000, "measure": 5000}}`, "dvs", false},
		{"policies/outage/rules", `{` + system + `, "policy": {"kind": "rules"},
			"fault": {"berFloor": 1e-4, "linkFailures": [{"link": 0, "at": 2000, "repairAt": 4000}]},
			"run": {"warmup": 1000, "measure": 5000}}`, "rules", true},
	}
	for _, c := range cells {
		sum, err := load(t, c.js).RunSummary(c.name, scenario.Checkpoints{})
		if err != nil {
			t.Fatal(err)
		}
		if sum.Experiment != c.name || sum.Seed != 99 {
			t.Errorf("%s: experiment %q seed %d, want %q seed 99", c.name, sum.Experiment, sum.Seed, c.name)
		}
		if sum.Policy == nil || sum.Policy.Kind != c.kind || sum.Policy.Windows == 0 {
			t.Errorf("%s: policy block %+v, want kind %q with windows", c.name, sum.Policy, c.kind)
		}
		if got := sum.Reliability != nil; got != c.faulty {
			t.Errorf("%s: reliability block present = %v, want %v", c.name, got, c.faulty)
		}
		if sum.Recovery != nil || sum.Telemetry != nil {
			t.Errorf("%s: recovery or telemetry block on a run without those layers", c.name)
		}
	}
}
