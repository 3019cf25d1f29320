package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/traffic"
)

// shrunk returns spec with its run windows cut to warmup and measure
// cycles, so a test runs the workload's code paths quickly.
func shrunk(t *testing.T, spec simSpec, warmup, measure int64) simSpec {
	t.Helper()
	small := spec
	small.input = func(seed uint64) []byte {
		sc, err := scenario.Load(bytes.NewReader(spec.input(seed)))
		if err != nil {
			t.Fatal(err)
		}
		sc.Run.Warmup, sc.Run.Measure = warmup, measure
		js, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	return small
}

// repDigest warms a workload up and runs one repetition, traced or not.
func repDigest(t *testing.T, spec simSpec, seed uint64, traced bool) rep {
	t.Helper()
	r := &simRun{spec: spec, input: spec.input(seed), dir: t.TempDir()}
	if traced {
		r.tr = newTracer()
	}
	b, err := r.build(r.tr)
	if err != nil {
		t.Fatal(err)
	}
	b.sys.RunTo(r.warmup)
	b.sys.StartMeasure()
	snap, err := b.sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	b.sys.Net.Close()
	rp, err := r.runRep(snap, traced)
	if err != nil {
		t.Fatal(err)
	}
	rp.b.sys.Net.Close()
	return rp
}

// The traced run wraps the generator, records spans and reads memory
// statistics around RunTo; none of that may change the simulated output.
func TestTracingKeepsDigest(t *testing.T) {
	for _, spec := range []simSpec{paperUniform, faultsCkpt} {
		small := shrunk(t, spec, 2_000, 4_000)
		plain := repDigest(t, small, defaultSeed, false)
		traced := repDigest(t, small, defaultSeed, true)
		if plain.digest != traced.digest {
			t.Errorf("%s: traced digest %s, untraced %s", spec.name, traced.digest, plain.digest)
		}
		if traced.counters.nextCalls == 0 || traced.counters.flits == 0 {
			t.Errorf("%s: traced repetition counted %d generator calls and %d flits", spec.name, traced.counters.nextCalls, traced.counters.flits)
		}
	}
}

// The digest is a function of the seed argument: a different seed makes
// different inputs and so a different simulated output.
func TestSeedChangesDigest(t *testing.T) {
	small := shrunk(t, paperUniform, 1_000, 2_000)
	a := repDigest(t, small, defaultSeed, false)
	b := repDigest(t, small, defaultSeed+1, false)
	if a.digest == b.digest {
		t.Errorf("seeds %d and %d gave the same digest %s", defaultSeed, defaultSeed+1, a.digest)
	}
	if bytes.Equal(dseSpace(defaultSeed), dseSpace(defaultSeed+1)) {
		t.Error("the DSE space does not depend on the seed")
	}
}

// The committed digest of the default seed is what a continuous run of
// the full workload produces.
func TestGoldenMatchesContinuousRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper-uniform workload")
	}
	r := &simRun{spec: paperUniform, input: paperUniform.input(defaultSeed), dir: t.TempDir()}
	var tl tally
	r.checkGolden(&tl)
	if tl.attempted == 0 || tl.failed != 0 {
		t.Errorf("golden check: %d attempted, %d failed", tl.attempted, tl.failed)
	}
}

// faults-ckpt fails the east link of router (3,3) by its link index.
func TestFaultLinkIsCentralEastLink(t *testing.T) {
	cfg := network.DefaultConfig()
	n := network.MustNew(cfg, traffic.NewUniform(cfg.Nodes(), 1, 5))
	defer n.Close()
	if got := n.MeshLinkIndex(cfg.RouterAt(3, 3), network.DirE); got != 93 {
		t.Errorf("router (3,3) east link is %d, faults-ckpt fails link 93", got)
	}
}

// Attribution charges each sample to the innermost repro/internal package
// on its stack, expanding inlined frames, and leaves GC and scheduler
// samples to the runtime.
func TestProfileAttribution(t *testing.T) {
	stacks := []struct {
		frames []string // innermost first
		count  int64
	}{
		// The wheel's per-cycle sort is sim's, not the standard library's.
		{[]string{"slices.pdqsortCmpFunc[...]", "repro/internal/sim.(*Wheel).BeginCycle", "repro/internal/network.(*Network).Step", "main.main"}, 5},
		// An atomic load under the ring is shardrun's.
		{[]string{"sync/atomic.(*Int64).Load", "repro/internal/shardrun.(*Ring[...]).Push", "repro/internal/router.(*Channel).Send", "main.main"}, 2},
		{[]string{"repro/internal/router.(*Output).TryGrant", "repro/internal/network.(*Network).Step"}, 8},
		// A GC assist under router code is charged to router but is GC work.
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/router.(*Pool).Get"}, 1},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, 3},
		{[]string{"crypto/sha256.block", "main.digest"}, 1},
	}
	gz := encodeProfile(t, stacks)
	parsed, err := parseProfile(gz)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	tr.charge(parsed)
	shares, gc := tr.shares()
	want := map[string]float64{"sim": 5.0 / 20, "shardrun": 2.0 / 20, "router": 9.0 / 20, "runtime": 3.0 / 20, "perfbench": 1.0 / 20}
	for l, w := range want {
		if math.Abs(shares[l]-w) > 1e-12 {
			t.Errorf("%s share %g, want %g", l, shares[l], w)
		}
	}
	if len(shares) != len(want) {
		t.Errorf("shares %v, want only %v", shares, want)
	}
	if math.Abs(gc-4.0/20) > 1e-12 {
		t.Errorf("GC share %g, want %g", gc, 4.0/20)
	}
}

// encodeProfile writes canned stacks as a gzipped profile.proto the way
// runtime/pprof does: packed sample fields, and inlined frames as extra
// lines of one location (the stack's first two frames share a location).
func encodeProfile(t *testing.T, stacks []struct {
	frames []string
	count  int64
}) []byte {
	t.Helper()
	var msg []byte
	field := func(dst []byte, num int, body []byte) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3|2)
		dst = binary.AppendUvarint(dst, uint64(len(body)))
		return append(dst, body...)
	}
	varint := func(dst []byte, num int, v uint64) []byte {
		dst = binary.AppendUvarint(dst, uint64(num)<<3)
		return binary.AppendUvarint(dst, v)
	}
	strs := []string{""}
	fnID := map[string]uint64{}
	var nextLoc uint64
	for _, s := range stacks {
		var locIDs []byte
		for i := 0; i < len(s.frames); {
			n := 1
			if i == 0 && len(s.frames) > 1 {
				n = 2 // an inlined callee and its caller in one location
			}
			nextLoc++
			loc := varint(nil, 1, nextLoc)
			for _, f := range s.frames[i : i+n] {
				id, ok := fnID[f]
				if !ok {
					id = uint64(len(fnID) + 1)
					fnID[f] = id
					strs = append(strs, f)
					fn := varint(nil, 1, id)
					fn = varint(fn, 2, uint64(len(strs)-1))
					msg = field(msg, 5, fn)
				}
				loc = field(loc, 4, varint(nil, 1, id))
			}
			msg = field(msg, 4, loc)
			locIDs = binary.AppendUvarint(locIDs, nextLoc)
			i += n
		}
		var vals []byte
		vals = binary.AppendUvarint(vals, uint64(s.count))
		vals = binary.AppendUvarint(vals, uint64(s.count)*10_000_000)
		sample := field(nil, 1, locIDs)
		sample = field(sample, 2, vals)
		msg = field(msg, 2, sample)
	}
	for _, s := range strs {
		msg = field(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// BENCHMARK.json and the result line name the same metrics with the same
// units.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd)
	compare("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}
