package report

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

func sampleSummary() Summary {
	return Summary{
		Experiment:  "faults",
		Seed:        42,
		MeanLatency: 123.456,
		NormPower:   0.61,
		EnergyJ:     0.00042,
		Delivered:   10_000,
		Dropped:     7,

		Params: &Params{
			Values: map[string]float64{"window": 1000, "avg_threshold": 0.5, "kp": 1.5},
			Labels: map[string]string{"policy_kind": "rules"},
		},

		LevelHistogram: []int64{10, 0, 2, 5, 30, 177},
		OffLinks:       4,
		TimeAtLevel:    []float64{0.4, 0.1, 0.05, 0.05, 0.1, 0.3},
		Reliability: &stats.Reliability{
			CorruptedFlits: 120,
			CrcDrops:       118,
			LostToDown:     40,
			Retransmits:    300,
			Nacks:          118,
			Timeouts:       12,
			Escalations:    1,
			Duplicates:     9,
			RelockFailures: 3,
			DownLinks:      1,
		},
		Recovery: &stats.Recovery{
			Reroutes:         250,
			Misroutes:        12,
			EscapeGrants:     480,
			WatchdogReroutes: 30,
			WatchdogDrops:    5,
			UnreachableDrops: 2,
			DiscardedFlits:   25,
			DroppedPackets:   7,
			DownMeshLinks:    1,
			ReachRecomputes:  4,
		},
		Policy: &stats.Policy{
			Kind: "rules",
			PolicyCounts: stats.PolicyCounts{
				Windows:       950,
				Ups:           12,
				Downs:         48,
				Holds:         890,
				Rejected:      3,
				Guarded:       2,
				PdecCount:     1,
				LossDerates:   31,
				StormBackoffs: 4,
				GradualUps:    12,
			},
			EnergyJ:       0.0051,
			OracleEnergyJ: 0.0036,
			RegretJ:       0.0015,
			RegretFrac:    0.4166,
		},
		Telemetry: &telemetry.Digest{
			Samples:       120,
			SeriesCount:   1574,
			SampleEvery:   1024,
			Events:        48,
			DroppedEvents: 3,
			Dumps:         1,
			LatencyP50:    110,
			LatencyP95:    480,
			LatencyP99:    900,
		},
	}
}

// TestSummaryRoundTrip: every counter — including the full Reliability and
// Recovery blocks — survives JSON marshal → parse unchanged.
func TestSummaryRoundTrip(t *testing.T) {
	in := sampleSummary()
	b, err := in.JSON()
	if err != nil {
		t.Fatal(err)
	}
	out, err := ParseSummary(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the summary:\nin:  %+v\nout: %+v", in, out)
	}
	for _, want := range []string{"reliability", "recovery", "watchdog_drops", "unreachable_drops", "crc_drops",
		"level_histogram", "off_links", "time_at_level", "telemetry", "sample_every", "latency_p99",
		"policy", "loss_derates", "storm_backoffs", "gradual_ups", "oracle_energy_j", "regret_j", "regret_frac",
		"energy_j", "params", "values", "labels", "avg_threshold", "policy_kind"} {
		if !strings.Contains(string(b), `"`+want+`"`) {
			t.Errorf("JSON missing %q field:\n%s", want, b)
		}
	}
}

// TestSummariesRoundTrip covers the array form optosim -json emits,
// including a minimal summary whose nil blocks must stay omitted.
func TestSummariesRoundTrip(t *testing.T) {
	in := []Summary{sampleSummary(), {Experiment: "table2", Seed: 1}}
	var buf bytes.Buffer
	if err := WriteSummaries(&buf, in); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"experiment": "table2"`) &&
		strings.Count(buf.String(), `"reliability"`) != 1 {
		t.Errorf("nil reliability block not omitted:\n%s", buf.String())
	}
	out, err := ParseSummaries(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip changed the summaries:\nin:  %+v\nout: %+v", in, out)
	}
}

// TestParseSummaryRejectsUnknownFields: schema drift fails loudly — at the
// top level and inside nested blocks like policy.
func TestParseSummaryRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSummary([]byte(`{"experiment":"x","seed":1,"bogus":3}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
	if _, err := ParseSummary([]byte(`{"experiment":"x","seed":1,"policy":{"kind":"dvs","regret_pct":3}}`)); err == nil {
		t.Error("unknown policy field accepted")
	}
	if _, err := ParseSummary([]byte(`{"experiment":"x","seed":1,"params":{"values":{"window":500},"bogus":{}}}`)); err == nil {
		t.Error("unknown params field accepted")
	}
	// Knob names are open by design — maps, not struct fields — so a new
	// knob is not schema drift.
	if _, err := ParseSummary([]byte(`{"experiment":"x","seed":1,"params":{"values":{"brand_new_knob":1}}}`)); err != nil {
		t.Errorf("new knob name rejected: %v", err)
	}
}

// TestParamsDeterministicJSON: the params echo must marshal byte-stably —
// map keys are sorted by encoding/json — because study logs and frontier
// files are diffed byte-for-byte across runs.
func TestParamsDeterministicJSON(t *testing.T) {
	s := Summary{Experiment: "t", Seed: 1, Params: &Params{
		Values: map[string]float64{"b": 2, "a": 1, "c": 3},
		Labels: map[string]string{"z": "x", "y": "w"},
	}}
	first, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		again, err := s.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("params JSON unstable:\n%s\nvs\n%s", first, again)
		}
	}
	if !strings.Contains(string(first), `"a": 1`) {
		t.Fatalf("values not rendered: %s", first)
	}
}
