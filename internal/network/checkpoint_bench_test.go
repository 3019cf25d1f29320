package network

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// checkpointBenchNetwork is the paper system in perfbench's faults-ckpt
// setup at cycle 10 000: 1.75 packets/cycle, the margin-derived BER scaled
// by 1e9 over 23 dB of extra path loss, relock failures at probability
// 0.3, the east link of router (3,3) failed from cycle 9 000, recovery,
// the loss-aware rule engine with a 1e-12 BER guard, and telemetry
// sampling every 1024 cycles into 512-point rings.
func checkpointBenchNetwork(b *testing.B) *Network {
	b.Helper()
	cfg := DefaultConfig()
	cfg.Link.PathLossDB += 23
	cfg.Fault = fault.Config{
		BERScale:       1e9,
		RelockFailProb: 0.3,
		LinkFailures:   []fault.LinkFailure{{Link: 93, At: 9_000, RepairAt: 10_500}},
	}
	cfg.Recovery = RecoveryConfig{Enabled: true}
	cfg.Policy.Kind = policy.KindRules
	cfg.Policy.Rules = policy.DefaultRulesConfig()
	cfg.Policy.MaxBER = 1e-12
	cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 1024, RingCap: 512}
	n := MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 1.75, 5))
	b.Cleanup(n.Close)
	n.RunTo(10_000)
	return n
}

// BenchmarkCheckpointExport measures ExportState, the copy of the live
// state a checkpoint encodes.
func BenchmarkCheckpointExport(b *testing.B) {
	n := checkpointBenchNetwork(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.ExportState(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointEncode measures checkpoint.Encode of an exported
// state: the header, the payload and its CRC, written to io.Discard.
func BenchmarkCheckpointEncode(b *testing.B) {
	n := checkpointBenchNetwork(b)
	st, err := n.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := checkpoint.Encode(&file, int64(n.Now()), st); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := checkpoint.Encode(io.Discard, int64(n.Now()), st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointDecode measures checkpoint.Decode of that file into
// a fresh State.
func BenchmarkCheckpointDecode(b *testing.B) {
	n := checkpointBenchNetwork(b)
	st, err := n.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	var file bytes.Buffer
	if err := checkpoint.Encode(&file, int64(n.Now()), st); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got State
		if _, err := checkpoint.Decode(file.Bytes(), &got); err != nil {
			b.Fatal(err)
		}
	}
}
