package network

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// restoreConfig is a 4×2 mesh split into two shards with every optional
// subsystem that carries checkpoint state: sustained corruption, relock
// failures and a link failure, recovery, telemetry, and the rules policy.
func restoreConfig(t *testing.T) Config {
	cfg := recoveryConfig()
	cfg.MeshW, cfg.MeshH = 4, 2
	cfg.Shards = 2
	cfg.Policy.Kind = policy.KindRules
	cfg.Fault = fault.Config{
		BERFloor:       2e-4,
		RelockFailProb: 0.3,
		LinkFailures:   []fault.LinkFailure{{Link: meshLinkIndex(t, cfg, cfg.RouterAt(1, 0), DirE), At: 1_000, RepairAt: 9_000}},
	}
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 512, RingCap: 64}
	return cfg
}

// restoreTarget builds a fresh network for restoreConfig, closed when the
// test ends.
func restoreTarget(t *testing.T, cfg Config) *Network {
	t.Helper()
	n, err := New(cfg, traffic.NewUniform(cfg.Nodes(), 0.2, 5))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// copyState deep-copies st through gob, the encoding checkpoints use.
func copyState(t *testing.T, st *State) *State {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	out := new(State)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRestoreRefusals pins RestoreState's consistency checks: a snapshot
// with any one field out of shape or out of range is refused, never
// half-applied into a silently wrong run.
func TestRestoreRefusals(t *testing.T) {
	cfg := restoreConfig(t)
	src := restoreTarget(t, cfg)
	src.RunTo(4_000)
	base, err := src.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// Fixtures the rows corrupt: an input VC and a request list to bend,
	// a reliable channel, and one output of each shard.
	var otherShardRouter int
	inactive := OutputRef{Router: -1}
	for r, rs := range base.Routers {
		if src.shardOfRouter(r) == 1 {
			otherShardRouter = r
			continue
		}
		for p, os := range rs.Outs {
			if !os.Active && inactive.Router < 0 {
				inactive = OutputRef{Router: r, Port: p}
			}
		}
	}
	if inactive.Router < 0 {
		t.Fatal("fixture: every shard-0 output is active")
	}
	if len(base.Telemetry.Series) == 0 || base.Recovery == nil || base.Channels[0].Rel == nil {
		t.Fatal("fixture: snapshot lacks telemetry series, recovery or reliability state")
	}

	rows := []struct {
		name    string
		corrupt func(st *State)
		want    string
	}{
		{"router shape", func(st *State) { st.Routers[1].Outs = st.Routers[1].Outs[1:] }, "shape"},
		{"route out of range", func(st *State) { st.Routers[0].Ins[0].Route = cfg.PortsPerRouter() }, "out of range"},
		{"out-VC out of range", func(st *State) { st.Routers[0].Ins[0].OutVC = cfg.VCs }, "out of range"},
		{"output credits above depth", func(st *State) { st.Routers[0].Outs[0].OVC[0].Credits = cfg.BufDepth + 1 }, "credits"},
		{"request index out of range", func(st *State) {
			st.Routers[0].Outs[0].Req = append(st.Routers[0].Outs[0].Req, len(st.Routers[0].Ins))
		}, "request"},
		{"link level", func(st *State) { st.Links[0].Level = len(cfg.Link.LevelRates) }, "out of range"},
		{"link target", func(st *State) { st.Links[0].Target = -2 }, "out of range"},
		{"link phase", func(st *State) { st.Links[0].Phase = 99 }, "phase"},
		{"link time-at-level length", func(st *State) { st.Links[0].TimeAtLevel = st.Links[0].TimeAtLevel[1:] }, "levels"},
		{"NIC credits length", func(st *State) { st.NICs[0].Credits = st.NICs[0].Credits[1:] }, "VCs"},
		{"active output on another shard's router", func(st *State) {
			st.Shards[0].ActiveOuts = append(st.Shards[0].ActiveOuts, OutputRef{Router: otherShardRouter})
		}, "another shard"},
		{"inactive output on a work list", func(st *State) {
			st.Shards[0].ActiveOuts = append(st.Shards[0].ActiveOuts, inactive)
		}, "inactive output"},
		{"liveness table length", func(st *State) { st.Recovery.Live = st.Recovery.Live[1:] }, "liveness"},
		{"telemetry stride 0", func(st *State) { st.Telemetry.Series[0].Stride = 0 }, "stride"},
		{"telemetry series not registered", func(st *State) { st.Telemetry.Series[0].Name = "no_such_series" }, "not registered"},
		{"retransmit window wider than configured", func(st *State) {
			rel := st.Channels[0].Rel
			rel.SendSeq = rel.AckSeq + fault.WindowSize + 1
		}, "window"},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st := copyState(t, base)
			row.corrupt(st)
			err := restoreTarget(t, cfg).RestoreState(st)
			if err == nil {
				t.Fatal("RestoreState accepted the corrupt snapshot")
			}
			if !strings.Contains(err.Error(), row.want) {
				t.Errorf("RestoreState refused with %q, want a message mentioning %q", err, row.want)
			}
		})
	}

	// One snapshot restored twice: both resumed runs agree, and neither
	// restore nor run writes through to the snapshot.
	t.Run("restore twice", func(t *testing.T) {
		before := copyState(t, base)
		var sums [2]string
		for i := range sums {
			n := restoreTarget(t, cfg)
			if err := n.RestoreState(base); err != nil {
				t.Fatal(err)
			}
			n.RunTo(8_000)
			js, err := n.Summary("restore").JSON()
			if err != nil {
				t.Fatal(err)
			}
			sums[i] = string(js)
		}
		if sums[0] != sums[1] {
			t.Errorf("two restores of one snapshot diverged:\n%s\n%s", sums[0], sums[1])
		}
		if !reflect.DeepEqual(copyState(t, base), before) {
			t.Error("restoring and running wrote through to the snapshot")
		}
	})
}
