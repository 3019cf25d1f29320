package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// tracer records the traced run: spans around the benchmark's calls into
// each layer, the CPU profile samples of the timed window, and the
// generator wrapper's counts. A nil *tracer records nothing, so the
// untraced run shares every code path with the traced one.
type tracer struct {
	start time.Time
	spans []span
	open  []int // indexes of the spans that have begun and not ended

	// samples counts CPU-profile samples per layer; gcSamples counts those
	// whose stack is doing garbage-collection work, wherever charged.
	samples   map[string]int64
	gcSamples int64
	profile   bytes.Buffer
}

// span is one timed call into a layer. Parent is the index of the span
// that was open when this one began (-1 for none).
type span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), samples: map[string]int64{}}
}

// begin opens a span and returns the function that closes it and reports
// its length in seconds (0 without a tracer).
func (t *tracer) begin(name string) func() float64 {
	if t == nil {
		return func() float64 { return 0 }
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.start)})
	t.open = append(t.open, i)
	return func() float64 {
		t.spans[i].End = time.Since(t.start)
		t.open = t.open[:len(t.open)-1]
		return (t.spans[i].End - t.spans[i].Start).Seconds()
	}
}

// durations returns the length in seconds of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		if s.Name == name {
			ds = append(ds, (s.End - s.Start).Seconds())
		}
	}
	return ds
}

// zeroLayerMetrics returns every per-layer metric at zero for a runner to
// fill in; the metrics of a layer the workload does not run stay zero.
func zeroLayerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// finish adds what every traced run measures alike, the profile's shares
// and the K=2 figures, to m, and writes the spans to .bench_build.
func (t *tracer) finish(m map[string]float64, opts options) error {
	shares, gc := t.shares()
	for _, l := range shareLayers {
		m[l+".cpu_share"] = shares[l]
	}
	m["runtime.gc_cpu_share"] = gc
	k2, err := k2NsPerCycle(opts.seed)
	if err != nil {
		return err
	}
	m["shardrun.k2_ns_per_cycle"] = k2
	m["shardrun.pool_run_ns"] = poolRunNs()
	js, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(filepath.Dir(opts.dir), fmt.Sprintf("spans-%s-%d.json", opts.workload, opts.seed))
	return os.WriteFile(path, js, 0o644)
}

// startProfile begins a CPU profile; stopProfile ends it and charges its
// samples. Profiles are taken around traced timed windows only.
func (t *tracer) startProfile() error {
	t.profile.Reset()
	return pprof.StartCPUProfile(&t.profile)
}

func (t *tracer) stopProfile() error {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(t.profile.Bytes())
	if err != nil {
		return err
	}
	t.charge(stacks)
	return nil
}

// charge adds each stack's samples to its layer and, when it is GC work,
// to the GC count.
func (t *tracer) charge(stacks []stack) {
	for _, s := range stacks {
		t.samples[layerOf(s.frames)] += s.count
		if isGC(s.frames) {
			t.gcSamples += s.count
		}
	}
}

// shares returns each layer's share of the profiled samples.
func (t *tracer) shares() (map[string]float64, float64) {
	var total int64
	for _, n := range t.samples {
		total += n
	}
	out := map[string]float64{}
	if total == 0 {
		return out, 0
	}
	for l, n := range t.samples {
		out[l] = float64(n) / float64(total)
	}
	return out, float64(t.gcSamples) / float64(total)
}

// layerOf charges a stack, listed innermost frame first, to the innermost
// repro/internal/<pkg> frame on it. A slices sort under the wheel's
// BeginCycle is sim's and an atomic load under Ring.Push is shardrun's.
// Stacks with no such frame belong to the benchmark's own code when they
// pass through package main, and otherwise to the Go runtime (GC workers,
// the scheduler, the profiler itself).
func layerOf(frames []string) string {
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, "repro/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "perfbench"
		}
	}
	return "runtime"
}

// isGC reports whether a stack is garbage-collection work: a background
// mark worker, a mutator assist, the sweeper or scavenger, or a write
// barrier.
func isGC(frames []string) bool {
	for _, f := range frames {
		for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.wbBuf"} {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// stack is one distinct profile stack: function names innermost first,
// inlined frames expanded, and its sample count.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes the gzipped profile.proto a runtime/pprof CPU
// profile writes. It reads only what attribution needs: samples (location
// ids and the sample count), locations (their line entries) and functions
// (their names in the string table).
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strtab  []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					if vals := appendVarints(nil, wire, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strtab) {
					st.frames = append(st.frames, strtab[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// timedGen wraps the traffic.Generator handed to core.NewSystem and times
// each Next call. It is used at one shard only, where a single goroutine
// calls Next.
type timedGen struct {
	inner traffic.Generator
	calls int64
	busy  time.Duration
}

func (g *timedGen) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	t := time.Now()
	at, dst, size, ok := g.inner.Next(node, after, rng)
	g.busy += time.Since(t)
	g.calls++
	return at, dst, size, ok
}
