package network

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/linkmodel"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// smallConfig is a 2x2-rack, 2-nodes-per-rack system for fast tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MeshW, cfg.MeshH = 2, 2
	cfg.NodesPerRack = 2
	return cfg
}

// singlePacket injects one packet via a one-shot generator.
type singlePacket struct {
	src, dst, size int
	at             sim.Cycle
	done           bool
}

func (s *singlePacket) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	if node != s.src || s.done {
		return 0, 0, 0, false
	}
	s.done = true
	return s.at, s.dst, s.size, true
}

func TestConfigCounts(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Nodes() != 512 {
		t.Errorf("nodes = %d, want 512", cfg.Nodes())
	}
	if cfg.Routers() != 64 {
		t.Errorf("routers = %d, want 64", cfg.Routers())
	}
	if cfg.InterRouterLinks() != 224 {
		t.Errorf("inter-router links = %d, want 224", cfg.InterRouterLinks())
	}
	if cfg.TotalLinks() != 1248 {
		t.Errorf("total links = %d, want 1248", cfg.TotalLinks())
	}
	if cfg.PortsPerRouter() != 12 {
		t.Errorf("ports per router = %d, want 12", cfg.PortsPerRouter())
	}
}

// TestHandlerTableSized: New sizes the wheel's handler table once, from
// the Config, for exactly the handlers it registers — so no build regrows
// the table or leaves unused capacity.
func TestHandlerTableSized(t *testing.T) {
	rules := equivConfig(RoutingXY, true, true)
	rules.Policy.Kind = policy.KindRules
	fixedNodes := smallConfig()
	fixedNodes.NodeLinksPowerAware = false
	fixedNodes.Policy.Kind = policy.KindRules
	failures := telemetryConfig(t)
	failures.Fault.LinkFailures = append(failures.Fault.LinkFailures, fault.LinkFailure{Link: 0, At: 7_000, RepairAt: 9_000})
	baseline := DefaultConfig()
	baseline.PowerAware = false
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"paper", DefaultConfig()},
		{"baseline", baseline},
		{"faults+recovery+telemetry", equivConfig(RoutingXY, true, true)},
		{"rules", rules},
		{"rules/node-links-fixed", fixedNodes},
		{"recovery+telemetry/three-failures", failures},
	} {
		got := MustNew(tc.cfg, nil).wheel.ExportState().Handlers
		if want := tc.cfg.handlers(); got != want {
			t.Errorf("%s: registered %d handlers, Config.handlers sized the table for %d", tc.name, got, want)
		}
	}
}

func TestBaselinePower(t *testing.T) {
	cfg := DefaultConfig()
	// 1248 links × ~290 mW ≈ 362 W.
	got := cfg.BaselinePowerW()
	if got < 360 || got > 366 {
		t.Errorf("baseline power = %.1f W, want ≈362", got)
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	gen := &singlePacket{src: 0, dst: 7, size: 5, at: 10}
	n := MustNew(cfg, gen)
	n.RunTo(500)
	if n.DeliveredPackets() != 1 {
		t.Fatalf("delivered %d packets, want 1", n.DeliveredPackets())
	}
	if n.DeliveredFlits() != 5 {
		t.Errorf("delivered %d flits, want 5", n.DeliveredFlits())
	}
	if n.InjectedPackets() != 1 {
		t.Errorf("injected %d, want 1", n.InjectedPackets())
	}
	// Node 0 is rack (0,0) local 0; node 7 is rack (1,1) local 1: route is
	// NIC->R0, R0->R1 (E), R1->R3 (S), eject. Zero-load latency should be
	// a few tens of cycles, not hundreds.
	lat := n.MeanLatency()
	if lat < 10 || lat > 60 {
		t.Errorf("zero-load latency = %.1f cycles, implausible", lat)
	}
}

func TestSinglePacketSameRouterDelivery(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	gen := &singlePacket{src: 0, dst: 1, size: 5, at: 0}
	n := MustNew(cfg, gen)
	n.RunTo(300)
	if n.DeliveredPackets() != 1 {
		t.Fatalf("delivered %d, want 1 (intra-rack)", n.DeliveredPackets())
	}
	// Intra-rack: NIC -> router -> eject. Lower latency than cross-mesh.
	if lat := n.MeanLatency(); lat < 5 || lat > 40 {
		t.Errorf("intra-rack latency = %.1f, implausible", lat)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	// Every node sends one packet to every other node; everything must
	// arrive (routing + credits are exhaustively exercised).
	cfg := smallConfig()
	cfg.PowerAware = false
	nodes := cfg.Nodes()
	var script []pair
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s != d {
				script = append(script, pair{s, d})
			}
		}
	}
	gen := &scriptGen{script: script, gap: 7, size: 3}
	n := MustNew(cfg, gen)
	n.RunTo(5000)
	want := int64(len(script))
	if n.DeliveredPackets() != want {
		t.Fatalf("delivered %d packets, want %d", n.DeliveredPackets(), want)
	}
}

type pair struct{ s, d int }

// scriptGen plays a fixed (src,dst) script, one packet per source per gap.
type scriptGen struct {
	script []pair
	gap    sim.Cycle
	size   int
	idx    map[int]int
}

func (g *scriptGen) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	if g.idx == nil {
		g.idx = map[int]int{}
	}
	// Find the next script entry for this node at or after position idx.
	for i := g.idx[node]; i < len(g.script); i++ {
		if g.script[i].s == node {
			g.idx[node] = i + 1
			return after + g.gap, g.script[i].d, g.size, true
		}
	}
	return 0, 0, 0, false
}

func TestConservationUnderLoad(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	// 8 nodes; moderate load.
	gen := traffic.NewUniform(cfg.Nodes(), 0.4, 5)
	n := MustNew(cfg, gen)
	n.RunTo(20_000)
	// Let in-flight packets drain: switch off sources by running a copy...
	// simplest: run longer and require delivered ≈ injected minus a small
	// in-flight tail.
	inj, del := n.InjectedPackets(), n.DeliveredPackets()
	if inj == 0 {
		t.Fatal("no packets injected")
	}
	inFlight := inj - del
	if inFlight < 0 {
		t.Fatalf("delivered %d > injected %d", del, inj)
	}
	if float64(inFlight) > 0.05*float64(inj)+50 {
		t.Errorf("too many packets stuck in flight: %d of %d", inFlight, inj)
	}
}

func TestPowerAwareConservation(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = true
	gen := traffic.NewUniform(cfg.Nodes(), 0.2, 5)
	n := MustNew(cfg, gen)
	n.RunTo(50_000)
	inj, del := n.InjectedPackets(), n.DeliveredPackets()
	if del == 0 {
		t.Fatal("power-aware network delivered nothing")
	}
	if inj-del > inj/10+50 {
		t.Errorf("power-aware network losing packets: injected %d delivered %d", inj, del)
	}
}

// TestNonPASteadyPower: a non-power-aware network's instantaneous power
// must equal the analytic baseline at all times.
func TestNonPASteadyPower(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	gen := traffic.NewUniform(cfg.Nodes(), 0.3, 5)
	n := MustNew(cfg, gen)
	n.RunTo(5000)
	got := n.LinkPowerW()
	want := cfg.BaselinePowerW()
	if math.Abs(got-want) > want*1e-9 {
		t.Errorf("non-PA power = %g W, want baseline %g W", got, want)
	}
}

// TestPowerAwareSavesEnergyAtLightLoad: the headline mechanism — under
// light traffic a power-aware network must consume well below baseline.
func TestPowerAwareSavesEnergyAtLightLoad(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = true
	gen := traffic.NewUniform(cfg.Nodes(), 0.05, 5)
	n := MustNew(cfg, gen)
	n.RunTo(100_000)
	energy := n.LinkEnergyJ()
	baseline := cfg.BaselinePowerW() * n.Now().Seconds()
	ratio := energy / baseline
	// 5-10 Gb/s VCSEL levels: the floor is ~21% of full power.
	if ratio > 0.5 {
		t.Errorf("power-aware energy ratio %.2f at light load, want well under 0.5", ratio)
	}
	if ratio < 0.15 {
		t.Errorf("energy ratio %.2f below the physical floor — accounting bug?", ratio)
	}
}

// TestLatencyIncludesSourceQueueing: two packets created simultaneously at
// one node must have different latencies (the second waits).
func TestLatencyIncludesSourceQueueing(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	gen := &burstGen{node: 0, dst: 3, count: 5, size: 10}
	n := MustNew(cfg, gen)
	var lats []sim.Cycle
	n.OnDeliver = func(now sim.Cycle, p *router.Packet, lat sim.Cycle) {
		lats = append(lats, lat)
	}
	n.RunTo(2000)
	if len(lats) != 5 {
		t.Fatalf("delivered %d, want 5", len(lats))
	}
	for i := 1; i < len(lats); i++ {
		if lats[i] <= lats[i-1] {
			t.Errorf("packet %d latency %d not greater than predecessor %d — source queueing not counted", i, lats[i], lats[i-1])
		}
	}
}

// burstGen creates `count` packets at cycle 1 from one node.
type burstGen struct {
	node, dst, count, size int
	emitted                int
}

func (g *burstGen) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	if node != g.node || g.emitted >= g.count {
		return 0, 0, 0, false
	}
	g.emitted++
	return 1, g.dst, g.size, true
}

func TestMeasureFromExcludesWarmup(t *testing.T) {
	cfg := smallConfig()
	cfg.PowerAware = false
	gen := traffic.NewUniform(cfg.Nodes(), 0.3, 5)
	n := MustNew(cfg, gen)
	n.RunTo(5000)
	before := n.MeasuredPackets()
	if before == 0 {
		t.Fatal("no packets measured before reset")
	}
	n.SetMeasureFrom(5000)
	if n.MeasuredPackets() != 0 {
		t.Error("SetMeasureFrom did not reset counters")
	}
	n.RunTo(10_000)
	if n.MeasuredPackets() == 0 {
		t.Error("no packets measured after warm-up window")
	}
	if n.MinLatency() < 0 {
		t.Error("min latency unset after measurement")
	}
}

func TestStaticRateConfig(t *testing.T) {
	cfg := DefaultConfig().StaticRate(3.3)
	if cfg.PowerAware {
		t.Error("StaticRate must disable power-awareness")
	}
	if len(cfg.Link.LevelRates) != 1 || cfg.Link.LevelRates[0] != 3.3 {
		t.Errorf("StaticRate levels = %v", cfg.Link.LevelRates)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("StaticRate config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	muts := []func(*Config){
		func(c *Config) { c.MeshW = 0 },
		func(c *Config) { c.NodesPerRack = 0 },
		func(c *Config) { c.VCs = 0 },
		func(c *Config) { c.BufDepth = -1 },
		func(c *Config) { c.Link.LevelRates = nil },
		func(c *Config) { c.Policy.Window = 0 },
	}
	for i, mut := range muts {
		cfg := DefaultConfig()
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNodeGeometry(t *testing.T) {
	cfg := DefaultConfig()
	// Paper's hot spot: node 4 in rack (3,5).
	id := cfg.NodeID(3, 5, 4)
	if cfg.nodeRouter(id) != cfg.RouterAt(3, 5) {
		t.Error("NodeID/nodeRouter mismatch")
	}
	if cfg.nodeLocal(id) != 4 {
		t.Error("NodeID/nodeLocal mismatch")
	}
	x, y := cfg.routerXY(cfg.RouterAt(3, 5))
	if x != 3 || y != 5 {
		t.Errorf("routerXY = (%d,%d), want (3,5)", x, y)
	}
}

func TestMultiVCDelivery(t *testing.T) {
	cfg := smallConfig()
	cfg.VCs = 2
	cfg.BufDepth = 8
	cfg.PowerAware = false
	gen := traffic.NewUniform(cfg.Nodes(), 0.4, 5)
	n := MustNew(cfg, gen)
	n.RunTo(20_000)
	if n.DeliveredPackets() < n.InjectedPackets()*9/10 {
		t.Errorf("2-VC network: delivered %d of %d", n.DeliveredPackets(), n.InjectedPackets())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, float64, float64) {
		cfg := smallConfig()
		gen := traffic.NewUniform(cfg.Nodes(), 0.3, 5)
		n := MustNew(cfg, gen)
		n.RunTo(20_000)
		return n.DeliveredPackets(), n.MeanLatency(), n.LinkEnergyJ()
	}
	d1, l1, e1 := run()
	d2, l2, e2 := run()
	if d1 != d2 || l1 != l2 || e1 != e2 {
		t.Errorf("identical seeds diverged: (%d,%g,%g) vs (%d,%g,%g)", d1, l1, e1, d2, l2, e2)
	}
}

// TestModulatorWithOpticalLevels wires the full modulator system with the
// paper's three optical levels and a laser-controller epoch, and checks it
// still delivers traffic and saves energy.
func TestModulatorWithOpticalLevels(t *testing.T) {
	cfg := smallConfig()
	cfg.Link.Scheme = linkmodel.SchemeModulator
	opt := powerlink.PaperOpticalLevels(cfg.Link.Params.ModInputOpticalW)
	cfg.Link.Optical = &opt
	cfg.Policy.LaserEpoch = sim.CyclesFromMicros(200)
	gen := traffic.NewUniform(cfg.Nodes(), 0.05, 5)
	n := MustNew(cfg, gen)
	n.RunTo(300_000)
	if n.DeliveredPackets() < n.InjectedPackets()*9/10 {
		t.Fatalf("modulator system: delivered %d of %d", n.DeliveredPackets(), n.InjectedPackets())
	}
	ratio := n.LinkEnergyJ() / (cfg.BaselinePowerW() * n.Now().Seconds())
	if ratio > 0.6 {
		t.Errorf("modulator energy ratio %.2f at light load", ratio)
	}
	// At least one Pdec must have been issued at light load.
	var pdecs int
	for _, c := range n.Controllers() {
		pdecs += c.Stats().PdecCount
	}
	if pdecs == 0 {
		t.Error("laser controller never issued Pdec at light load")
	}
}

// TestCountersAddCoversEveryField: merging one shard's record into an
// empty total reproduces it field for field, so a counter added to
// Counters without its line in add fails here instead of reporting
// shard-0-only numbers.
func TestCountersAddCoversEveryField(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Struct:
			if h, ok := f.Addr().Interface().(interface{ Record(sim.Cycle) }); ok {
				h.Record(sim.Cycle(i + 1))
			}
		default:
			t.Fatalf("Counters.%s has kind %s, which this test cannot fill", v.Type().Field(i).Name, f.Kind())
		}
	}
	total := Counters{LatMin: -1}
	total.add(&c)
	if !reflect.DeepEqual(total, c) {
		t.Errorf("merged total\n%+v\nwant\n%+v", total, c)
	}
}
