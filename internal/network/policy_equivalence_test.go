package network

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/policy"
	"repro/internal/traffic"
)

// The adaptive-policy equivalence suite: the DVS baseline is pinned
// byte-for-byte against pre-refactor goldens (the pluggable engine must be
// a pure refactor for the default kind), and every new policy kind must
// satisfy the same parallel and fast-forward equivalence invariants as the
// rest of the simulator.

// TestDVSBaselineGolden pins the refactored default policy against output
// captured before the pluggable engine existed. Any drift in these bytes
// means the DVS path is no longer the paper's controller.
func TestDVSBaselineGolden(t *testing.T) {
	readGolden := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	t.Run("faults", func(t *testing.T) {
		js, dump := runEquiv(t, equivConfig(RoutingXY, true, true), 1)
		if want := readGolden("golden_dvs_faults_summary.json"); !bytes.Equal(js, want) {
			t.Errorf("summary diverges from pre-refactor golden:\n--- golden\n%s\n--- got\n%s", want, js)
		}
		if want := string(readGolden("golden_dvs_faults_flight.txt")); dump != want {
			t.Error("flight-recorder dump diverges from pre-refactor golden")
		}
	})
	t.Run("clean", func(t *testing.T) {
		js, _ := runEquiv(t, equivConfig(RoutingWestFirst, true, false), 1)
		if want := readGolden("golden_dvs_clean_summary.json"); !bytes.Equal(js, want) {
			t.Errorf("summary diverges from pre-refactor golden:\n--- golden\n%s\n--- got\n%s", want, js)
		}
	})
}

// runPolicyEquiv is runEquiv rendered by Network.Summary, whose policy
// block carries the per-run regret when the run recorded a trace, so
// policy counters and the oracle are part of the bytes being compared
// across shard counts. Whole-run link energy rides in EnergyJ.
func runPolicyEquiv(t *testing.T, cfg Config, shards int) ([]byte, string) {
	t.Helper()
	cfg.Shards = shards
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n, err := New(cfg, gen)
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	defer n.Close()
	var dump bytes.Buffer
	n.Telemetry().SetDumpWriter(&dump)
	n.RunTo(10_000)
	gen.Stop()
	if !n.RunUntilQuiescent(400_000) {
		t.Fatalf("shards=%d: network did not drain", shards)
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("shards=%d: audit: %v", shards, err)
	}
	sum := n.Summary("policy-equivalence")
	if sum.Policy == nil || sum.Policy.OracleEnergyJ <= 0 {
		t.Fatalf("shards=%d: policy block %+v carries no oracle", shards, sum.Policy)
	}
	sum.EnergyJ = n.LinkEnergyJ()
	js, err := sum.JSON()
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	n.Telemetry().TriggerDump(n.Now(), "equivalence")
	return js, dump.String()
}

// policyEquivConfig is the hardest equivalence configuration (faults +
// recovery) with the given policy kind selected and trace recording on.
func policyEquivConfig(kind policy.Kind) Config {
	cfg := equivConfig(RoutingXY, true, true)
	cfg.Policy.Kind = kind
	cfg.Policy.RecordTrace = true
	return cfg
}

// dvsOracle records a sequential DVS run of the same configuration and
// returns the offline-optimal schedule the replay policy executes.
func dvsOracle(t *testing.T) *policy.Oracle {
	t.Helper()
	cfg := policyEquivConfig(policy.KindDVS)
	cfg.Shards = 1
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n := MustNew(cfg, gen)
	defer n.Close()
	n.RunTo(10_000)
	gen.Stop()
	if !n.RunUntilQuiescent(400_000) {
		t.Fatal("oracle recording run did not drain")
	}
	tr := n.PolicyTrace()
	if tr == nil {
		t.Fatal("recording run produced no trace")
	}
	o, err := policy.ComputeOracle(*tr, n.ControlledLinkModels())
	if err != nil {
		t.Fatal(err)
	}
	return &o
}

// TestPolicyParallelEquivalence extends the tentpole sharding invariant to
// every new policy kind: byte-identical summary (including policy counters
// and per-run regret) and telemetry at every shard count, under the full
// faults + recovery matrix.
func TestPolicyParallelEquivalence(t *testing.T) {
	var oracle *policy.Oracle
	for _, kind := range []policy.Kind{policy.KindRules, policy.KindPID, policy.KindOracleReplay} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := policyEquivConfig(kind)
			if kind == policy.KindOracleReplay {
				if oracle == nil {
					oracle = dvsOracle(t)
				}
				cfg.Policy.Oracle = oracle
			}
			baseJS, baseDump := runPolicyEquiv(t, cfg, 1)
			for _, k := range equivShardCounts() {
				js, dump := runPolicyEquiv(t, cfg, k)
				if !bytes.Equal(js, baseJS) {
					t.Errorf("shards=%d summary diverges from sequential:\n--- shards=1\n%s\n--- shards=%d\n%s", k, baseJS, k, js)
				}
				if dump != baseDump {
					t.Errorf("shards=%d flight-recorder dump diverges from sequential", k)
				}
			}
		})
	}
}

// TestPolicyFastForwardEquivalence checks that idle-gap skipping commutes
// with sharding for every new policy kind — in particular that the rule
// engine's hold deadlines are real wheel timers fast-forward cannot hop
// over.
func TestPolicyFastForwardEquivalence(t *testing.T) {
	var oracle *policy.Oracle
	for _, kind := range []policy.Kind{policy.KindRules, policy.KindPID, policy.KindOracleReplay} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := policyEquivConfig(kind)
			if kind == policy.KindOracleReplay {
				if oracle == nil {
					oracle = dvsOracle(t)
				}
				cfg.Policy.Oracle = oracle
			}
			run := func(shards int, ff bool) []byte {
				cfg := cfg
				cfg.Shards = shards
				gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.05, 5))
				n := MustNew(cfg, gen)
				defer n.Close()
				n.SetFastForward(ff)
				n.RunTo(6_000)
				gen.Stop()
				if !n.RunUntilQuiescent(400_000) {
					t.Fatalf("shards=%d ff=%v: did not drain", shards, ff)
				}
				ps := n.PolicyStats()
				out := fmt.Sprintf("now=%d inj=%d del=%d drop=%d flits=%d mean=%v energy=%v policy=%+v",
					n.Now(), n.InjectedPackets(), n.DeliveredPackets(), n.DroppedPackets(), n.DeliveredFlits(),
					n.MeanLatency(), n.LinkEnergyJ(), ps)
				return []byte(out)
			}
			base := run(1, false)
			for _, k := range equivShardCounts() {
				if got := run(k, true); !bytes.Equal(got, base) {
					t.Errorf("shards=%d fast-forward diverges:\n  base %s\n  got  %s", k, base, got)
				}
			}
		})
	}
}
