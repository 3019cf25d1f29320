package experiments

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/policy"
)

func sustainedBERScenario(t *testing.T) PolicyScenario {
	t.Helper()
	for _, sc := range PolicyScenarios() {
		if sc.Name == "sustained-ber" {
			return sc
		}
	}
	t.Fatal("sustained-ber scenario missing from the study matrix")
	return PolicyScenario{}
}

// TestRulesReduceLossUnderSustainedBER is the headline robustness claim:
// under margin-scaled corruption the loss-aware rule engine derates to a
// more robust operating point and suffers a fraction of the CRC drops and
// replays the utilisation-only DVS controller accumulates — and both cells
// report a non-trivial regret against their offline oracle.
func TestRulesReduceLossUnderSustainedBER(t *testing.T) {
	s := tinyScale()
	sc := sustainedBERScenario(t)

	dvs, _, err := runPolicyCell(s, sc, policy.KindDVS, nil)
	if err != nil {
		t.Fatal(err)
	}
	rules, _, err := runPolicyCell(s, sc, policy.KindRules, nil)
	if err != nil {
		t.Fatal(err)
	}

	if rules.Stats.LossDerates == 0 {
		t.Error("rule engine recorded no loss derates under sustained BER")
	}
	if 2*rules.Rel.CrcDrops >= dvs.Rel.CrcDrops {
		t.Errorf("rules crc drops = %d, want < half of dvs's %d", rules.Rel.CrcDrops, dvs.Rel.CrcDrops)
	}
	if rules.Rel.Retransmits >= dvs.Rel.Retransmits {
		t.Errorf("rules retransmits = %d, want < dvs's %d", rules.Rel.Retransmits, dvs.Rel.Retransmits)
	}
	rows := []PolicyRow{dvs, rules}
	for _, r := range rows {
		if r.Stats.OracleEnergyJ <= 0 {
			t.Errorf("%s: oracle energy %g, want > 0", r.Policy, r.Stats.OracleEnergyJ)
		}
		if r.Stats.RegretJ < 0 {
			t.Errorf("%s: regret %g < 0 — the oracle is not a lower bound", r.Policy, r.Stats.RegretJ)
		}
	}
	// Each cell's machine-readable form comes from Network.Summary: its
	// policy block is the row's, oracle included, and the faulty cell
	// carries its reliability counters.
	for _, r := range rows {
		sum := r.Summary
		if want := "policies/sustained-ber/" + r.Policy; sum.Experiment != want || sum.Seed != s.Seed {
			t.Errorf("%s: experiment %q seed %d, want %q seed %d", r.Policy, sum.Experiment, sum.Seed, want, s.Seed)
		}
		if sum.Policy == nil || *sum.Policy != r.Stats {
			t.Errorf("%s: summary policy block %+v, want the row's %+v", r.Policy, sum.Policy, r.Stats)
		}
		if sum.Reliability == nil || *sum.Reliability != r.Rel {
			t.Errorf("%s: summary reliability block %+v, want the row's %+v", r.Policy, sum.Reliability, r.Rel)
		}
	}
	if out := PolicyStudyReport(rows).String(); !strings.Contains(out, "regret") || !strings.Contains(out, "rules") {
		t.Errorf("report table missing expected columns:\n%s", out)
	}
	// Derating pays off in energy too: the rule engine ends closer to the
	// oracle than the controller it degrades more gracefully than.
	if rules.Stats.RegretFrac >= dvs.Stats.RegretFrac {
		t.Logf("note: rules regret %.3f not below dvs regret %.3f (allowed; the claim is about loss)",
			rules.Stats.RegretFrac, dvs.Stats.RegretFrac)
	}
}

// TestOracleReplayNeedsDVSTrace: the replay cell without a recorded
// schedule is a loud error, and the single-kind filter auto-runs the DVS
// cell first to provide one.
func TestOracleReplayNeedsDVSTrace(t *testing.T) {
	s := tinyScale()
	sc := sustainedBERScenario(t)
	if _, _, err := runPolicyCell(s, sc, policy.KindOracleReplay, nil); err == nil {
		t.Error("oracle-replay cell without a DVS trace: want error")
	}
}

// TestPolicyStudyReplayBringsDVS: a study filtered to oracle replay runs the
// DVS column before it in every scenario, since replay needs that cell's
// oracle, and the rows come out in scenario order.
func TestPolicyStudyReplayBringsDVS(t *testing.T) {
	s := tinyScale()
	s.Warmup, s.Measure = 200, 2_000
	rows, err := PolicyStudy(s, policy.KindOracleReplay)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, r := range rows {
		got = append(got, r.Scenario+"/"+r.Policy)
	}
	for _, sc := range PolicyScenarios() {
		want = append(want, sc.Name+"/dvs", sc.Name+"/oracle-replay")
	}
	if !slices.Equal(got, want) {
		t.Errorf("cells %v, want %v", got, want)
	}
}
