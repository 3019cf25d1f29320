package network

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// telemetryConfig is the recovery chaos scenario with telemetry enabled: a
// 3×3 mesh, two overlapping failure windows, and a fast sampler so rings
// actually fill during short test runs.
func telemetryConfig(t *testing.T) Config {
	cfg := recoveryConfig()
	center := cfg.RouterAt(1, 1)
	cfg.Fault = fault.Config{
		LinkFailures: []fault.LinkFailure{
			{Link: meshLinkIndex(t, cfg, center, DirE), At: 3_000, RepairAt: 40_000},
			{Link: meshLinkIndex(t, cfg, center, DirN), At: 5_000, RepairAt: 45_000},
		},
	}
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 512, RingCap: 256}
	return cfg
}

// TestTelemetryNoPerturbation: enabling telemetry must not change any
// simulation result — the directly testable form of "telemetry disabled is
// byte-identical to the pre-PR baseline" (probes only read state).
func TestTelemetryNoPerturbation(t *testing.T) {
	run := func(enabled bool) *Network {
		cfg := telemetryConfig(t)
		cfg.Telemetry = telemetry.Config{Enabled: enabled, SampleEvery: 512}
		n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.25, 5))
		n.RunTo(60_000)
		return n
	}
	off := run(false)
	on := run(true)
	if off.Telemetry() != nil || on.Telemetry() == nil {
		t.Fatal("telemetry wiring did not follow the config")
	}
	if a, b := off.InjectedPackets(), on.InjectedPackets(); a != b {
		t.Errorf("InjectedPackets: disabled %d, enabled %d", a, b)
	}
	if a, b := off.DeliveredPackets(), on.DeliveredPackets(); a != b {
		t.Errorf("DeliveredPackets: disabled %d, enabled %d", a, b)
	}
	if a, b := off.DroppedPackets(), on.DroppedPackets(); a != b {
		t.Errorf("DroppedPackets: disabled %d, enabled %d", a, b)
	}
	if a, b := off.MeanLatency(), on.MeanLatency(); a != b {
		t.Errorf("MeanLatency: disabled %v, enabled %v", a, b)
	}
	// Energy alone gets a (tiny) tolerance: probes observing a link split
	// its piecewise energy integral at the sample points, and float addition
	// is not associative. The power trajectory itself is identical — only
	// the summation order differs — so the bound is a few ulps.
	if a, b := off.LinkEnergyJ(), on.LinkEnergyJ(); math.Abs(a-b) > 1e-12*math.Abs(a) {
		t.Errorf("LinkEnergyJ: disabled %v, enabled %v (beyond summation-order tolerance)", a, b)
	}
	if a, b := off.RecoveryStats(), on.RecoveryStats(); a != b {
		t.Errorf("RecoveryStats: disabled %+v, enabled %+v", a, b)
	}
	if on.DeliveredPackets() == 0 {
		t.Error("comparison run delivered nothing — vacuous")
	}
}

// TestTelemetryDumpOnWatchdog: a permanent failure under load must escalate
// the stall watchdog, and the first escalation must auto-dump the flight
// recorder as parseable JSON containing the link-down marker.
func TestTelemetryDumpOnWatchdog(t *testing.T) {
	cfg := recoveryConfig()
	// Tight horizons and two concurrent permanent failures at the center
	// router, so escalations happen well within the test run.
	cfg.Recovery = RecoveryConfig{Enabled: true, ScanEvery: 64, StallHorizon: 256, DropHorizon: 2_048}
	center := cfg.RouterAt(1, 1)
	li := meshLinkIndex(t, cfg, center, DirE)
	cfg.Fault = fault.Config{
		LinkFailures: []fault.LinkFailure{
			{Link: li, At: 2_000, RepairAt: 1 << 40},
			{Link: meshLinkIndex(t, cfg, center, DirN), At: 2_000, RepairAt: 1 << 40},
		},
	}
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 512}
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.1, 5))
	var dump bytes.Buffer
	n.Telemetry().SetDumpWriter(&dump)
	n.RunTo(100_000)

	if n.RecoveryStats().WatchdogReroutes == 0 {
		t.Fatal("scenario produced no watchdog escalations — test is vacuous")
	}
	written, _ := n.Telemetry().Dumps()
	if written != 1 {
		t.Fatalf("dumps written = %d, want exactly 1 (first trigger only)", written)
	}
	reason, at, events, err := telemetry.ParseFlightDump(dump.Bytes())
	if err != nil {
		t.Fatalf("auto-dump is not valid JSON: %v", err)
	}
	if reason != "watchdog_reroute" && reason != "watchdog_kill" {
		t.Errorf("dump reason %q, want a watchdog trigger", reason)
	}
	if at == 0 || len(events) == 0 {
		t.Fatalf("empty dump: at=%d events=%d", at, len(events))
	}
	var sawDown, sawWd bool
	for _, e := range events {
		if e.Kind == telemetry.EventLinkDown && e.Link == li && e.At == 2_000 {
			sawDown = true
		}
		if e.Kind == telemetry.EventWatchdogReroute || e.Kind == telemetry.EventWatchdogKill {
			sawWd = true
		}
	}
	if !sawDown {
		t.Error("dump missing the scheduled link-down marker at cycle 2000")
	}
	if !sawWd {
		t.Error("dump missing the watchdog event that triggered it")
	}
}

// TestTelemetryQuiescentDrain: the recurring sampler is a perpetual wheel
// event; the quiescence check must subtract it, or a drained network would
// look busy forever.
func TestTelemetryQuiescentDrain(t *testing.T) {
	cfg := smallConfig()
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 512}
	gen := &burstGen{node: 0, dst: 7, count: 20, size: 8}
	n := MustNew(cfg, gen)
	if !n.RunUntilQuiescent(100_000) {
		t.Fatalf("telemetry-enabled burst did not quiesce by cycle %d (wheel pending %d, telemetry pending %d)",
			n.Now(), n.wheel.Pending(), n.telemPending())
	}
	if n.DeliveredPackets() != 20 {
		t.Errorf("delivered %d of 20 at quiescence", n.DeliveredPackets())
	}
	if err := n.Audit(); err != nil {
		t.Errorf("audit at quiescence: %v", err)
	}
	if n.Telemetry().Samples() == 0 {
		t.Error("sampler never ran")
	}
	// Only telemetry-owned events may remain scheduled.
	if n.wheel.Pending() != n.telemPending() {
		t.Errorf("wheel pending %d != telemetry pending %d at quiescence",
			n.wheel.Pending(), n.telemPending())
	}
}

// TestTelemetryProbesTrackSimulator: spot-check that registered series
// reflect the simulation — the delivered-packet counter series ends at the
// network's delivered count, and a failed link's down window shows up in
// the net.down_links gauge.
func TestTelemetryProbesTrackSimulator(t *testing.T) {
	cfg := telemetryConfig(t)
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 0.1, 5))
	n.RunTo(60_000)

	del, ok := n.Telemetry().Lookup("net.delivered")
	if !ok || len(del.Points) == 0 {
		t.Fatal("net.delivered series missing or empty")
	}
	last := del.Points[len(del.Points)-1]
	if int64(last.V) > n.DeliveredPackets() {
		t.Errorf("delivered series ends at %v > live counter %d", last.V, n.DeliveredPackets())
	}
	if last.V == 0 {
		t.Error("delivered series never moved")
	}

	down, ok := n.Telemetry().Lookup("net.down_links")
	if !ok {
		t.Fatal("net.down_links series missing")
	}
	var sawDown bool
	for _, p := range down.Points {
		if p.T >= 5_000 && p.T < 40_000 && p.V >= 1 {
			sawDown = true
		}
	}
	if !sawDown {
		t.Error("down-links gauge never saw the scheduled failure windows")
	}

	lat := n.Telemetry().Digest()
	if lat.LatencyP50 <= 0 || lat.LatencyP99 < lat.LatencyP50 {
		t.Errorf("bad latency digest: %+v", lat)
	}
	if _, ok := n.Telemetry().Lookup("link0.level"); !ok {
		t.Error("per-link level series missing")
	}
}

// TestRestoreRefusesOtherHandlerTable: a checkpoint names its wheel events
// by registered handler, so it restores only into a network that built the
// same handler table. One more scheduled link failure registers two more
// telemetry marker handlers (its down and up markers); restoring into that
// network must fail with an error naming both table sizes, while a network
// built from the checkpoint's own configuration accepts it.
func TestRestoreRefusesOtherHandlerTable(t *testing.T) {
	cfg := telemetryConfig(t)
	gen := func() traffic.Generator { return traffic.NewUniform(cfg.Nodes(), 0.02, 5) }
	n := MustNew(cfg, gen())
	n.RunTo(4_000)
	st, err := n.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	if err := MustNew(cfg, gen()).RestoreState(st); err != nil {
		t.Fatalf("restore into the same configuration: %v", err)
	}

	// A failure long after the checkpoint, so only the table differs.
	more := cfg
	more.Fault.LinkFailures = append(slices.Clone(cfg.Fault.LinkFailures),
		fault.LinkFailure{Link: 0, At: 1_000_000, RepairAt: 1_000_100})
	err = MustNew(more, gen()).RestoreState(st)
	if err == nil {
		t.Fatal("restore into a network with two more marker handlers succeeded")
	}
	for _, count := range []int{st.Wheel.Handlers, st.Wheel.Handlers + 2} {
		if !regexp.MustCompile(fmt.Sprintf(`\b%d\b`, count)).MatchString(err.Error()) {
			t.Errorf("error %q does not name the handler count %d", err, count)
		}
	}
}
