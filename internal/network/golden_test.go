package network

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// The DVS baseline golden: the default policy's output is pinned byte for
// byte against goldens captured before the pluggable policy engine existed.
// runEquiv's exact output is what the golden_dvs_* files hold; the
// invariance matrix (invariance_test.go) reuses equivConfig for its cases.

// equivConfig is an 8-column mesh (so shard counts up to 8 divide it) with
// telemetry always on — the flight recorder and sampler are part of the
// output being compared.
func equivConfig(routing Routing, pa, faults bool) Config {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshH = 8, 4
	cfg.NodesPerRack = 2
	cfg.Routing = routing
	cfg.PowerAware = pa
	cfg.Seed = 11
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 512, RingCap: 512}
	if faults {
		cfg.Fault = fault.Config{
			BERFloor:       2e-4, // ~0.3%/flit: replay machinery constantly busy
			RelockFailProb: 0.3,
			LinkFailures:   []fault.LinkFailure{{Link: 3, At: 3_000, RepairAt: 8_000}},
		}
		cfg.Recovery = RecoveryConfig{Enabled: true, ScanEvery: 128, StallHorizon: 512, DropHorizon: 2_048}
	}
	return cfg
}

// runEquiv runs one configuration to quiescence and returns the complete
// observable output: the report.Summary JSON (latency, power, drops, level
// and time-at-level histograms, reliability, recovery, telemetry digest)
// plus the flight-recorder dump text.
func runEquiv(t *testing.T, cfg Config, shards int) ([]byte, string) {
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
	lv, off := n.LevelHistogram()
	hist := make([]int64, len(lv))
	for i, v := range lv {
		hist[i] = int64(v)
	}
	rel := n.FaultStats()
	rec := n.RecoveryStats()
	d := n.Telemetry().Digest()
	sum := report.Summary{
		Experiment:     "parallel-equivalence",
		Seed:           cfg.Seed,
		MeanLatency:    n.MeanLatency(),
		NormPower:      n.LinkEnergyJ() / cfg.BaselinePowerW(),
		Delivered:      n.DeliveredPackets(),
		Dropped:        n.DroppedPackets(),
		LevelHistogram: hist,
		OffLinks:       off,
		TimeAtLevel:    n.TimeAtLevelHistogram(),
		Reliability:    &rel,
		Recovery:       &rec,
		Telemetry:      &d,
	}
	js, err := sum.JSON()
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	n.Telemetry().TriggerDump(n.Now(), "equivalence")
	return js, dump.String()
}

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
