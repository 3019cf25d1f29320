// Package trace synthesises and stores the SPLASH-2-like traffic traces of
// Section 4.2/4.3.3. The paper drove its simulator with RSIM-captured
// traces of FFT, LU and Radix on 64 processors (8 racks), average packet
// size 48 flits. Those captures are not public, so this package generates
// deterministic traces whose injection-rate-vs-time envelopes match the
// published Fig. 7 shapes:
//
//   - FFT:   long-period phases — wide computation troughs separated by
//     high all-to-all transpose plateaus. Slow trends are easy for the
//     policy to track, which is why the paper measures only a 1.08×
//     latency penalty on FFT.
//   - LU:    medium-period alternation of factorisation compute and
//     block-broadcast communication, with the communication fraction
//     growing as the remaining matrix shrinks.
//   - Radix: rapid high-frequency bursts (the ranking/permutation phases
//     exchange keys in short intense all-to-all storms).
//
// What the power policy reacts to is exactly this envelope plus the
// destination distribution; both are reproduced, so the substitution
// preserves the power/latency behaviour the paper evaluates (see
// DESIGN.md, "Substitutions").
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// Benchmark identifies one synthesised SPLASH-2-like workload.
type Benchmark int

const (
	// FFT is the fast Fourier transform kernel.
	FFT Benchmark = iota
	// LU is the blocked dense-matrix LU decomposition kernel.
	LU
	// Radix is the integer radix sort kernel.
	Radix
)

func (b Benchmark) String() string {
	switch b {
	case FFT:
		return "fft"
	case LU:
		return "lu"
	case Radix:
		return "radix"
	default:
		return fmt.Sprintf("Benchmark(%d)", int(b))
	}
}

// Benchmarks lists all synthesised workloads in paper order.
func Benchmarks() []Benchmark { return []Benchmark{FFT, LU, Radix} }

// PacketFlits is the paper's average SPLASH packet size.
const PacketFlits = 48

// DefaultLength is the snapshot length simulated per benchmark, matching
// the ~0.4-2.0 M-cycle windows of Fig. 7.
const DefaultLength sim.Cycle = 1_200_000

// SpacingFunc gives a node's mean inter-packet spacing in cycles at time
// t; 0 or negative means the node is idle. Parallel-program traffic is
// bursty at the node level: when a node communicates it streams packets
// back to back (a cache-miss/transpose storm), and between phases it is
// nearly silent. This node-level structure is what lets the policy ride
// links up to full rate while packets actually flow — the paper's
// explanation for FFT's tiny latency penalty.
type SpacingFunc func(node int, t sim.Cycle) float64

// Spacing returns benchmark b's per-node activity pattern for a system of
// `nodes` nodes.
func Spacing(b Benchmark, nodes int) SpacingFunc {
	switch b {
	case FFT:
		// Long periods (400k cycles): a wide computation trough, then a
		// long all-to-all transpose in which groups of nodes (one node per
		// rack at a time) take turns communicating. Activity changes every
		// ~35k cycles — far slower than the policy's reaction time, so the
		// policy tracks FFT well; the paper measures its smallest latency
		// penalty here.
		const period = 400_000
		const troughFrac = 0.3
		const groups = 8
		return func(node int, t sim.Cycle) float64 {
			x := float64(t%period) / float64(period)
			if x < troughFrac {
				return 60_000 // sparse background misses
			}
			span := (1 - troughFrac) / float64(groups)
			active := int((x - troughFrac) / span)
			if active >= groups {
				active = groups - 1
			}
			if node%groups == active {
				return 350 // transpose stream
			}
			return 120_000
		}
	case LU:
		// Medium periods (50k cycles): each factorisation step has a
		// block-broadcast phase in which a rotating quarter of the nodes
		// exchanges blocks, then a compute phase. Phases are a few policy
		// windows long, so the policy tracks LU only partially — the
		// paper's intermediate penalty.
		const period = 50_000
		return func(node int, t sim.Cycle) float64 {
			step := int(t / period)
			x := float64(t%period) / period
			if x < 0.38 && (node+step)%4 == 0 {
				return 450
			}
			return 14_000
		}
	case Radix:
		// Short periods (12k cycles): sharp key-exchange storms in which
		// every node participates briefly, every fourth storm (the rank
		// permutation) longer. Storms are shorter than the policy's
		// reaction ladder, so links rarely match demand before the storm
		// ends — the paper's largest penalty.
		const period = 12_000
		return func(node int, t sim.Cycle) float64 {
			x := float64(t%period) / period
			burst := 0.30
			if (t/period)%4 == 3 {
				burst = 0.45
			}
			if x < burst {
				return 1_300
			}
			return 26_000
		}
	default:
		panic(fmt.Sprintf("trace: unknown benchmark %d", int(b)))
	}
}

// Gen drives one benchmark's synthetic trace as a traffic.Generator.
type Gen struct {
	Nodes   int
	Size    int
	End     sim.Cycle
	Spacing SpacingFunc
	// Step quantises spacing evaluation (default 500 cycles).
	Step sim.Cycle
}

var _ traffic.Generator = (*Gen)(nil)

// Next implements traffic.Generator: exponential inter-arrivals at the
// node's current spacing, re-evaluated every Step cycles so phase edges
// are honoured.
func (g *Gen) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	step := g.Step
	if step <= 0 {
		step = 500
	}
	at := after
	if at < 0 {
		at = 0
	}
	for i := 0; i < 10_000_000; i++ {
		if g.End > 0 && at >= g.End {
			return 0, 0, 0, false
		}
		segEnd := (at/step + 1) * step
		spacing := g.Spacing(node, at)
		if spacing <= 0 {
			at = segEnd
			continue
		}
		p := 1 / spacing
		if p > 1 {
			p = 1
		}
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		gap := sim.Cycle(math.Floor(math.Log(u)/math.Log(1-p))) + 1
		candidate := at + gap
		if candidate >= segEnd {
			at = segEnd
			continue
		}
		if g.End > 0 && candidate >= g.End {
			return 0, 0, 0, false
		}
		dst := rng.Intn(g.Nodes - 1)
		if dst >= node {
			dst++
		}
		return candidate, dst, g.Size, true
	}
	return 0, 0, 0, false
}

// Generator returns the traffic generator for benchmark b on a system with
// `nodes` nodes, running for length cycles (0 = DefaultLength).
func Generator(b Benchmark, nodes int, length sim.Cycle) *Gen {
	if length <= 0 {
		length = DefaultLength
	}
	return &Gen{
		Nodes:   nodes,
		Size:    PacketFlits,
		End:     length,
		Spacing: Spacing(b, nodes),
	}
}

// Record is one packet injection in a stored trace file.
type Record struct {
	At   sim.Cycle
	Src  int32
	Dst  int32
	Size int32
}

const fileMagic = "OPTOTRC1"

// Write stores records to w in the binary trace format: an 8-byte magic, a
// count, then fixed-width little-endian records.
func Write(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(fileMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(recs))); err != nil {
		return err
	}
	for _, r := range recs {
		if err := binary.Write(bw, binary.LittleEndian, int64(r.At)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, r.Src); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, r.Dst); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, r.Size); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read loads a trace file written by Write.
func Read(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(fileMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", magic)
	}
	var count int64
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count < 0 {
		return nil, fmt.Errorf("trace: negative record count %d", count)
	}
	recs := make([]Record, 0, count)
	for i := int64(0); i < count; i++ {
		var at int64
		var src, dst, size int32
		if err := binary.Read(br, binary.LittleEndian, &at); err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		if err := binary.Read(br, binary.LittleEndian, &src); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &dst); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &size); err != nil {
			return nil, err
		}
		recs = append(recs, Record{At: sim.Cycle(at), Src: src, Dst: dst, Size: size})
	}
	return recs, nil
}

// Materialise samples benchmark b into an explicit record list (for
// cmd/tracegen and for trace-file-driven playback). nodes and length as in
// Generator; seed drives the stochastic arrival draws.
func Materialise(b Benchmark, nodes int, length sim.Cycle, seed uint64) []Record {
	gen := Generator(b, nodes, length)
	master := sim.NewRNG(seed)
	var recs []Record
	for node := 0; node < nodes; node++ {
		rng := master.Fork()
		after := sim.Cycle(-1)
		for {
			at, dst, size, ok := gen.Next(node, after, rng)
			if !ok {
				break
			}
			recs = append(recs, Record{At: at, Src: int32(node), Dst: int32(dst), Size: int32(size)})
			after = at
		}
	}
	sortRecords(recs)
	return recs
}

// sortRecords orders by time then source (deterministic).
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool { return recLess(recs[i], recs[j]) })
}

func recLess(a, b Record) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Src < b.Src
}

// Playback replays a stored trace as a traffic.Generator. Next is a pure
// function of (node, after), so a checkpointed run resumes its replay
// without any playback state in the snapshot.
type Playback struct {
	// perNode[n] holds node n's records in time order, with times nudged
	// strictly increasing (see NewPlayback).
	perNode [][]Record
}

// NewPlayback indexes recs (any order) for playback across `nodes` nodes.
// Multiple records at the same cycle from one source are preserved: the
// later ones are nudged forward one cycle at a time (At[i] = max(At[i],
// At[i-1]+1), and no record before cycle 0), so each node's times are
// strictly increasing, as the Generator contract requires.
func NewPlayback(recs []Record, nodes int) (*Playback, error) {
	p := &Playback{perNode: make([][]Record, nodes)}
	for _, r := range recs {
		if r.Src < 0 || int(r.Src) >= nodes {
			return nil, fmt.Errorf("trace: record source %d outside [0,%d)", r.Src, nodes)
		}
		if r.Dst < 0 || int(r.Dst) >= nodes || r.Dst == r.Src {
			return nil, fmt.Errorf("trace: record %v has invalid destination", r)
		}
		if r.Size <= 0 {
			return nil, fmt.Errorf("trace: record %v has non-positive size", r)
		}
		p.perNode[r.Src] = append(p.perNode[r.Src], r)
	}
	for n := range p.perNode {
		rs := p.perNode[n]
		for i := 1; i < len(rs); i++ {
			if rs[i].At < rs[i-1].At {
				sortRecords(rs)
				break
			}
		}
		prev := sim.Cycle(-1)
		for i := range rs {
			rs[i].At = max(rs[i].At, prev+1)
			prev = rs[i].At
		}
	}
	return p, nil
}

// Next implements traffic.Generator: node's first record after cycle
// after.
func (p *Playback) Next(node int, after sim.Cycle, rng *sim.RNG) (sim.Cycle, int, int, bool) {
	rs := p.perNode[node]
	i := sort.Search(len(rs), func(i int) bool { return rs[i].At > after })
	if i == len(rs) {
		return 0, 0, 0, false
	}
	r := rs[i]
	return r.At, int(r.Dst), int(r.Size), true
}
