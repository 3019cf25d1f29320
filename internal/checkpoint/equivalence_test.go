package checkpoint_test

import (
	"bytes"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// ckptShards pins one shard count for CI matrix legs (0 = the full
// {1, 2, 4, 8} sweep); ckptFull widens the sweep to every routing scheme ×
// power-awareness × faults combination instead of the default hardest one.
var (
	ckptShards = flag.Int("ckptshards", 0, "when > 0, run the resume-equivalence test only at this shard count")
	ckptFull   = flag.Bool("ckptfull", false, "sweep all routing × power-aware × faults combinations")
)

func ckptShardCounts() []int {
	if *ckptShards > 0 {
		return []int{*ckptShards}
	}
	return []int{1, 2, 4, 8}
}

// ckptConfig mirrors the parallel-equivalence harness: an 8-column mesh so
// every shard count divides it, telemetry on (the flight recorder is part
// of the compared output), and — in the faulty variant — constant
// corruption, relock failures, a hard link-failure window, and the
// recovery subsystem, so the checkpoint lands while replay buffers are
// full and routing is steering around a dead link.
func ckptConfig(routing network.Routing, pa, faults bool) network.Config {
	cfg := network.DefaultConfig()
	cfg.MeshW, cfg.MeshH = 8, 4
	cfg.NodesPerRack = 2
	cfg.Routing = routing
	cfg.PowerAware = pa
	cfg.Seed = 11
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 512, RingCap: 512}
	if faults {
		cfg.Fault = fault.Config{
			BERFloor:       2e-4,
			RelockFailProb: 0.3,
			LinkFailures:   []fault.LinkFailure{{Link: 3, At: 3_000, RepairAt: 8_000}},
		}
		cfg.Recovery = network.RecoveryConfig{Enabled: true, ScanEvery: 128, StallHorizon: 512, DropHorizon: 2_048}
	}
	return cfg
}

const (
	ckptRunTo = 10_000 // traffic stops here; then drain to quiescence
	ckptAt    = 5_000  // snapshot cycle: inside the link-failure window
)

// finish drives a (possibly restored) network from its current cycle to
// quiescence and renders the complete observable output: Network.Summary
// (whose policy block carries the oracle energy and regret, so the resumed
// run must reconstruct the same recorded trace) plus the whole-run link
// energy.
func finish(t *testing.T, n *network.Network, gen *traffic.Stoppable) []byte {
	t.Helper()
	n.RunTo(ckptRunTo)
	gen.Stop()
	if !n.RunUntilQuiescent(400_000) {
		t.Fatal("network did not drain")
	}
	if err := n.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	sum := n.Summary("checkpoint-resume-equivalence")
	if n.Config().Policy.RecordTrace && (sum.Policy == nil || sum.Policy.OracleEnergyJ <= 0) {
		t.Fatalf("policy block %+v carries no oracle", sum.Policy)
	}
	sum.EnergyJ = n.LinkEnergyJ()
	js, err := sum.JSON()
	if err != nil {
		t.Fatal(err)
	}
	n.Telemetry().TriggerDump(n.Now(), "equivalence")
	return js
}

// runUninterrupted is the reference: one process, no checkpoint.
func runUninterrupted(t *testing.T, cfg network.Config, shards int) ([]byte, string) {
	t.Helper()
	cfg.Shards = shards
	gen := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	n, err := network.New(cfg, gen)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var dump bytes.Buffer
	n.Telemetry().SetDumpWriter(&dump)
	js := finish(t, n, gen)
	return js, dump.String()
}

// runResumed runs to the snapshot cycle, saves a checkpoint through the
// full on-disk format, abandons the first network, restores the snapshot
// into a freshly constructed one, and finishes the run there. Flight-dump
// output is the concatenation of what each network emitted while it was
// the live one.
func runResumed(t *testing.T, cfg network.Config, shards int) ([]byte, string) {
	t.Helper()
	cfg.Shards = shards
	path := filepath.Join(t.TempDir(), "state.ckpt")

	genA := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	a, err := network.New(cfg, genA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var dumpA bytes.Buffer
	a.Telemetry().SetDumpWriter(&dumpA)
	a.RunTo(ckptAt)
	st, err := a.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if err := checkpoint.Save(path, int64(a.Now()), st); err != nil {
		t.Fatalf("save: %v", err)
	}

	var restored network.State
	info, err := checkpoint.Load(path, &restored)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if info.Cycle != ckptAt {
		t.Fatalf("checkpoint cycle = %d, want %d", info.Cycle, ckptAt)
	}
	genB := traffic.NewStoppable(traffic.NewUniform(cfg.Nodes(), 0.3, 5))
	b, err := network.New(cfg, genB)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var dumpB bytes.Buffer
	b.Telemetry().SetDumpWriter(&dumpB)
	if err := b.RestoreState(&restored); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if b.Now() != ckptAt {
		t.Fatalf("restored network at cycle %d, want %d", b.Now(), ckptAt)
	}
	js := finish(t, b, genB)
	return js, dumpA.String() + dumpB.String()
}

// TestCheckpointResumeEquivalence is the tentpole invariant of the
// checkpoint layer: snapshotting at cycle C, serializing through the
// on-disk format, restoring into a fresh network, and running to the end
// produces byte-identical report.Summary JSON and flight-recorder output
// to the uninterrupted run — at every shard count, with fault injection
// and recovery active, and with the snapshot taken inside a hard
// link-failure window while go-back-N replay buffers are in flight.
func TestCheckpointResumeEquivalence(t *testing.T) {
	type combo struct {
		name    string
		routing network.Routing
		pa      bool
		faults  bool
	}
	combos := []combo{{"xy/pa=true/faults=true", network.RoutingXY, true, true}}
	if *ckptFull {
		combos = nil
		routings := []struct {
			name string
			r    network.Routing
		}{{"xy", network.RoutingXY}, {"yx", network.RoutingYX}, {"westfirst", network.RoutingWestFirst}}
		for _, rt := range routings {
			for _, pa := range []bool{true, false} {
				for _, faults := range []bool{false, true} {
					combos = append(combos, combo{
						name:    fmt.Sprintf("%s/pa=%v/faults=%v", rt.name, pa, faults),
						routing: rt.r, pa: pa, faults: faults,
					})
				}
			}
		}
	}
	for _, c := range combos {
		t.Run(c.name, func(t *testing.T) {
			cfg := ckptConfig(c.routing, c.pa, c.faults)
			for _, k := range ckptShardCounts() {
				t.Run(fmt.Sprintf("shards=%d", k), func(t *testing.T) {
					baseJS, baseDump := runUninterrupted(t, cfg, k)
					js, dump := runResumed(t, cfg, k)
					if !bytes.Equal(js, baseJS) {
						t.Errorf("resumed summary diverges from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", baseJS, js)
					}
					if dump != baseDump {
						t.Errorf("resumed flight-recorder output diverges from uninterrupted run:\n--- uninterrupted\n%s\n--- resumed\n%s", baseDump, dump)
					}
				})
			}
		})
	}
}
