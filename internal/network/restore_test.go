package network

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/checkpoint/wire"
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

// payloadBytes encodes st as a checkpoint payload is encoded.
func payloadBytes(st *State) []byte {
	b := make([]byte, wire.Size(st))
	wire.Put(b, st)
	return b
}

// copyState deep-copies st through the checkpoint codec.
func copyState(t *testing.T, st *State) *State {
	t.Helper()
	out := new(State)
	if err := wire.Decode(payloadBytes(st), out); err != nil {
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
		{"output listed twice", func(st *State) {
			st.ActiveOuts = append(st.ActiveOuts, OutputRef{Router: 1, Port: 0}, OutputRef{Router: 1, Port: 0})
		}, "twice"},
		{"NIC listed twice", func(st *State) { st.ActiveNICs = append(st.ActiveNICs, 1, 1) }, "twice"},
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

// TestRestoreExact pins restore to the byte: a loaded snapshot restored
// into a fresh network exports the same checkpoint payload bytes again,
// work-list order included. It runs at one and at two shards, and saved at four shards
// then restored at one, which keeps the concatenated list order. (Saved at
// one and restored at four would regroup the list by tile: a harmless
// reorder, since tiles never share a cycle's state, but not the same
// bytes.)
func TestRestoreExact(t *testing.T) {
	cfg := equivConfig(RoutingXY, true, true)
	for _, c := range []struct{ save, restore int }{{1, 1}, {2, 2}, {4, 1}} {
		t.Run(fmt.Sprintf("save=%d/restore=%d", c.save, c.restore), func(t *testing.T) {
			build := func(k int) *Network {
				cfg := cfg
				cfg.Shards = k
				n, err := New(cfg, traffic.NewUniform(cfg.Nodes(), 0.6, 5))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(n.Close)
				return n
			}
			src := build(c.save)
			src.RunTo(5_000)
			st, err := src.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if len(st.ActiveOuts) == 0 || len(st.ActiveNICs) == 0 {
				t.Fatalf("fixture: %d active outputs and %d active NICs, want some of each", len(st.ActiveOuts), len(st.ActiveNICs))
			}
			want := payloadBytes(st)
			dst := build(c.restore)
			if err := dst.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			again, err := dst.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(payloadBytes(again), want) {
				t.Errorf("export after restore differs from the restored snapshot (outputs %v then %v, NICs %v then %v)",
					st.ActiveOuts, again.ActiveOuts, st.ActiveNICs, again.ActiveNICs)
			}
		})
	}
}
