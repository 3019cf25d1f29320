package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/linkmodel"
	"repro/internal/network"
	"repro/internal/policy"
)

func mustLoad(t *testing.T, js string) *Scenario {
	t.Helper()
	s, err := Load(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestEmptyScenarioDefaults(t *testing.T) {
	s := mustLoad(t, `{}`)
	cfg, err := s.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	def := network.DefaultConfig()
	if cfg.MeshW != def.MeshW || cfg.NodesPerRack != def.NodesPerRack {
		t.Errorf("empty scenario diverged from paper defaults: %+v", cfg)
	}
	if !cfg.PowerAware {
		t.Error("default must be power-aware")
	}
	if len(cfg.Link.LevelRates) != 6 || cfg.Link.LevelRates[0] != 5 {
		t.Errorf("level ladder %v", cfg.Link.LevelRates)
	}
}

func TestUnknownFieldRejected(t *testing.T) {
	if _, err := Load(strings.NewReader(`{"sytem": {}}`)); err == nil {
		t.Error("typo'd field accepted")
	}
}

func TestSystemOverrides(t *testing.T) {
	s := mustLoad(t, `{"system": {
		"meshW": 4, "meshH": 2, "nodesPerRack": 8,
		"scheme": "modulator", "opticalLevels": true,
		"routing": "yx",
		"minRateGbps": 3.3, "maxRateGbps": 10, "levels": 6,
		"window": 500, "avgThreshold": 0.6,
		"predictor": "ewma", "ewmaAlpha": 0.4,
		"powerAware": true
	}}`)
	cfg, err := s.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes() != 64 {
		t.Errorf("nodes = %d", cfg.Nodes())
	}
	if cfg.Link.Scheme != linkmodel.SchemeModulator || cfg.Link.Optical == nil {
		t.Error("modulator+optical not configured")
	}
	if cfg.Routing != network.RoutingYX {
		t.Error("routing override lost")
	}
	if cfg.Policy.Window != 500 || cfg.Policy.Predictor != policy.PredictEWMA || cfg.Policy.EWMAAlpha != 0.4 {
		t.Errorf("policy overrides lost: %+v", cfg.Policy)
	}
	if cfg.Policy.Thresholds.HighUncongested != 0.65 {
		t.Errorf("threshold override: %+v", cfg.Policy.Thresholds)
	}
	if cfg.Link.LevelRates[0] != 3.3 {
		t.Errorf("ladder %v", cfg.Link.LevelRates)
	}
}

func TestPowerAwareFalse(t *testing.T) {
	s := mustLoad(t, `{"system": {"powerAware": false}}`)
	cfg, err := s.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.PowerAware {
		t.Error("powerAware:false ignored")
	}
}

func TestBadScenarios(t *testing.T) {
	bad := []string{
		`{"system": {"scheme": "laser-pointer"}}`,
		`{"system": {"routing": "zigzag"}}`,
		`{"system": {"minRateGbps": 10, "maxRateGbps": 5}}`,
		`{"system": {"opticalLevels": true}}`, // vcsel + optical levels
		`{"system": {"predictor": "crystal-ball"}}`,
	}
	for _, js := range bad {
		s := mustLoad(t, js)
		if _, err := s.NetworkConfig(); err == nil {
			t.Errorf("accepted bad scenario %s", js)
		}
	}
	badW := []string{
		`{"workload": {"type": "chaos-monkey"}}`,
		`{"workload": {"type": "hotspot"}}`, // no phases
		`{"workload": {"type": "splash", "bench": "barnes"}}`,
		`{"workload": {"type": "trace", "traceFile": "/nonexistent.trc"}}`,
	}
	for _, js := range badW {
		s := mustLoad(t, js)
		cfg, err := s.NetworkConfig()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Generator(cfg); err == nil {
			t.Errorf("accepted bad workload %s", js)
		}
	}
}

func TestExecuteUniform(t *testing.T) {
	s := mustLoad(t, `{
		"system": {"meshW": 2, "meshH": 2, "nodesPerRack": 2},
		"workload": {"type": "uniform", "rate": 0.2},
		"run": {"warmup": 2000, "measure": 20000}
	}`)
	r, ts, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ts != nil {
		t.Error("non-series run returned a series")
	}
	if r.Packets == 0 || r.NormPower <= 0 {
		t.Errorf("degenerate result %+v", r)
	}
}

func TestExecuteSeriesHotspot(t *testing.T) {
	s := mustLoad(t, `{
		"system": {"meshW": 2, "meshH": 2, "nodesPerRack": 2},
		"workload": {"type": "hotspot",
			"phases": [{"until": 10000, "rate": 0.3}, {"until": 30000, "rate": 0.05}],
			"hotNode": 3, "hotWeight": 4},
		"run": {"warmup": 0, "measure": 30000, "series": true, "bucket": 5000}
	}`)
	r, ts, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if ts == nil || len(ts.InjectionRate) != 6 {
		t.Fatalf("series missing or wrong length")
	}
	if r.Packets == 0 {
		t.Error("no packets")
	}
	// First bucket carries the heavy phase.
	if ts.InjectionRate[0].V < ts.InjectionRate[5].V {
		t.Error("schedule not reflected in series")
	}
}

func TestExecuteSplash(t *testing.T) {
	s := mustLoad(t, `{
		"system": {"meshW": 4, "meshH": 2, "scheme": "modulator"},
		"workload": {"type": "splash", "bench": "radix", "packetFlits": 48},
		"run": {"warmup": 0, "measure": 60000}
	}`)
	r, _, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if r.Packets == 0 {
		t.Error("splash scenario delivered nothing")
	}
}

// TestOmittedMeasureUsesDefault: a run section that omits "measure" runs
// the default window everywhere, the splash trace's length included, so
// it gives the same result as one that writes the default out.
func TestOmittedMeasureUsesDefault(t *testing.T) {
	run := func(runJSON string) core.Result {
		t.Helper()
		s := mustLoad(t, `{
			"system": {"meshW": 2, "meshH": 2, "nodesPerRack": 2},
			"workload": {"type": "splash", "bench": "radix"},
			"run": `+runJSON+`
		}`)
		r, _, err := s.Execute()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	omitted := run(`{"warmup": 12000}`)
	explicit := run(`{"warmup": 12000, "measure": 100000}`)
	if omitted.Packets == 0 {
		t.Fatal("omitted measure window measured no packets")
	}
	if !reflect.DeepEqual(omitted, explicit) {
		t.Errorf("omitted measure gives %+v,\nexplicit default gives %+v", omitted, explicit)
	}
}

func TestWestFirstScenario(t *testing.T) {
	s := mustLoad(t, `{"system": {"routing": "westfirst", "meshW": 2, "meshH": 2, "nodesPerRack": 2},
		"run": {"warmup": 1000, "measure": 10000}}`)
	cfg, err := s.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Routing != network.RoutingWestFirst {
		t.Error("westfirst routing not configured")
	}
	r, _, err := s.Execute()
	if err != nil {
		t.Fatal(err)
	}
	if r.Packets == 0 {
		t.Error("no packets under west-first scenario")
	}
}
