package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/shardrun"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/traffic"
)

// simSpec is a simulation workload: a scenario file generated from the
// seed, plus what the scenario format has no field for. The scenario's
// run.warmup is simulated once; run.measure is the repetition, the span
// of simulated cycles each timed repetition re-runs from the post-warm-up
// snapshot.
type simSpec struct {
	name  string
	input func(seed uint64) []byte
	// telemetry switches on probes and the flight recorder as
	// `optosim faults -telemetry` does.
	telemetry bool
	// ckptEvery saves a rotating checkpoint file every so many simulated
	// cycles inside the timed window, as `optorun -supervise` does.
	ckptEvery sim.Cycle
}

// setupsPerRep is how many set-up builds a run times before each timed
// repetition. Spreading the builds over the whole timed window, rather than
// timing them in one burst, makes their median repeat from run to run the
// way the repetitions' median does.
const setupsPerRep = 2

// minReps is the fewest timed repetitions a run makes, however long they
// take, and minSetups the fewest set-up samples it takes.
const (
	minReps   = 3
	minSetups = 15
)

// drainLimit bounds the stopped-generator drain after the timed window.
const drainLimit = 1_000_000

// simRun is one process's run of a simulation workload.
type simRun struct {
	spec  simSpec
	input []byte
	tr    *tracer // nil in the untraced run
	dir   string  // checkpoint directory

	warmup, end sim.Cycle
}

// built is a freshly built system and the handles the benchmark keeps on
// its generator.
type built struct {
	sys  *core.System
	stop *traffic.Stoppable
	gen  *timedGen // nil unless the generator is timed
}

// build goes from the input bytes to a system ready for its first cycle:
// scenario.Load, Validate, NetworkConfig, Generator, core.NewSystem. The
// generator is wrapped in a traffic.Stoppable so the run can drain and,
// with a tracer, in the timing wrapper.
func (r *simRun) build(tr *tracer) (built, error) {
	end := tr.begin("scenario.load")
	sc, err := scenario.Load(bytes.NewReader(r.input))
	if err == nil {
		err = sc.Validate()
	}
	end()
	if err != nil {
		return built{}, err
	}
	cfg, err := sc.NetworkConfig()
	if err != nil {
		return built{}, err
	}
	if r.spec.telemetry {
		cfg.Telemetry = telemetry.Config{Enabled: true, SampleEvery: 1024, RingCap: 512}
	}
	gen, err := sc.Generator(cfg)
	if err != nil {
		return built{}, err
	}
	b := built{stop: traffic.NewStoppable(gen)}
	var g traffic.Generator = b.stop
	if tr != nil {
		b.gen = &timedGen{inner: b.stop}
		g = b.gen
	}
	end = tr.begin("network.build")
	b.sys, err = core.NewSystem(cfg, g)
	end()
	r.warmup = sim.Cycle(sc.Run.Warmup)
	r.end = r.warmup + sim.Cycle(sc.Run.Measure)
	return b, err
}

// rep is one timed repetition: a fresh system restored from the
// post-warm-up snapshot runs to the end of the repetition, saving rotating
// checkpoints on the way when the workload asks for them.
type rep struct {
	b        built
	runSec   float64 // RunTo slices plus the checkpoints between them
	runToSec float64 // the RunTo slices alone, traced repetitions only
	jobSec   float64 // build, restore, run and summary: one whole job
	summary  []byte
	digest   string
	counters counters
}

// counters are the per-repetition deltas the traced run reads from public
// accessors around RunTo.
type counters struct {
	cycles, flits, ffCycles   int64
	allocBytes, mallocs, gcs  int64
	reroutes, escapeGrants    int64
	windows, steps, rejected  int64
	retransmits, crcDrops     int64
	relockFailures, nextCalls int64
	nextSec                   float64
}

func readCounters(b built) counters {
	n := b.sys.Net
	var c counters
	c.cycles = int64(n.Now())
	for _, ch := range n.Channels() {
		c.flits += ch.Flits()
	}
	_, c.ffCycles = n.FastForwardStats()
	cfg := b.sys.Config()
	if cfg.Recovery.Enabled {
		rs := n.RecoveryStats()
		c.reroutes, c.escapeGrants = rs.Reroutes, rs.EscapeGrants
	}
	ps := n.PolicyStats()
	c.windows, c.steps, c.rejected = int64(ps.Windows), int64(ps.Ups+ps.Downs), int64(ps.Rejected)
	if cfg.Fault.Enabled() {
		fs := n.FaultStats()
		c.retransmits, c.crcDrops, c.relockFailures = fs.Retransmits, fs.CrcDrops, fs.RelockFailures
	}
	if b.gen != nil {
		c.nextCalls, c.nextSec = b.gen.calls, b.gen.busy.Seconds()
	}
	return c
}

// plus adds o times sign to c: sign -1 takes a delta, +1 accumulates.
func (c counters) plus(o counters, sign int64) counters {
	return counters{
		cycles: c.cycles + sign*o.cycles, flits: c.flits + sign*o.flits, ffCycles: c.ffCycles + sign*o.ffCycles,
		allocBytes: c.allocBytes + sign*o.allocBytes, mallocs: c.mallocs + sign*o.mallocs, gcs: c.gcs + sign*o.gcs,
		reroutes: c.reroutes + sign*o.reroutes, escapeGrants: c.escapeGrants + sign*o.escapeGrants,
		windows: c.windows + sign*o.windows, steps: c.steps + sign*o.steps, rejected: c.rejected + sign*o.rejected,
		retransmits: c.retransmits + sign*o.retransmits, crcDrops: c.crcDrops + sign*o.crcDrops,
		relockFailures: c.relockFailures + sign*o.relockFailures,
		nextCalls:      c.nextCalls + sign*o.nextCalls, nextSec: c.nextSec + float64(sign)*o.nextSec,
	}
}

// fill sets the per-layer metrics that derive from counts alone.
func (c counters) fill(m map[string]float64) {
	if c.cycles == 0 {
		return
	}
	cyc := float64(c.cycles)
	m["network.ff_cycle_frac"] = float64(c.ffCycles) / cyc
	m["network.alloc_bytes_per_cycle"] = float64(c.allocBytes) / cyc
	m["network.mallocs_per_cycle"] = float64(c.mallocs) / cyc
	m["network.reroutes"] = float64(c.reroutes)
	m["network.escape_grants"] = float64(c.escapeGrants)
	m["router.flits_per_cycle"] = float64(c.flits) / cyc
	m["traffic.next_calls"] = float64(c.nextCalls)
	m["policy.windows"] = float64(c.windows)
	m["policy.transitions"] = float64(c.steps - c.rejected)
	if c.steps > 0 {
		m["policy.rejected_frac"] = float64(c.rejected) / float64(c.steps)
	}
	if c.flits > 0 {
		m["fault.retransmit_frac"] = float64(c.retransmits) / float64(c.flits)
	}
	m["fault.crc_drops"] = float64(c.crcDrops)
	m["fault.relock_failures"] = float64(c.relockFailures)
	m["runtime.num_gc"] = float64(c.gcs)
}

// runRep runs one repetition from snap. With traced set, spans, memory
// statistics and generator timing are recorded around the calls.
func (r *simRun) runRep(snap *core.State, traced bool) (rep, error) {
	tr := r.tr
	if !traced {
		tr = nil
	}
	jobStart := time.Now()
	b, err := r.build(tr)
	if err != nil {
		return rep{}, err
	}
	end := tr.begin("checkpoint.restore")
	err = b.sys.RestoreState(snap)
	end()
	if err != nil {
		return rep{}, fmt.Errorf("restoring the warm-up snapshot: %w", err)
	}
	before := readCounters(b)
	if traced {
		if err := tr.startProfile(); err != nil {
			return rep{}, err
		}
	}
	runStart := time.Now()
	mem, runToSec, err := r.runWindow(tr, b.sys)
	runSec := time.Since(runStart).Seconds()
	if traced {
		if perr := tr.stopProfile(); err == nil {
			err = perr
		}
	}
	if err != nil {
		return rep{}, err
	}

	end = tr.begin("report.summarize")
	sum := scenario.Summarize(r.spec.name, b.sys, b.sys.ResultAt(r.end))
	js, err := sum.JSON()
	end()
	if err != nil {
		return rep{}, err
	}
	out := rep{b: b, runSec: runSec, runToSec: runToSec, jobSec: time.Since(jobStart).Seconds(), summary: js, digest: digest(js)}
	if traced {
		out.counters = readCounters(b).plus(before, -1).plus(mem, 1)
	}
	return out, nil
}

// runWindow runs a restored system to the end of the repetition, saving a
// rotating checkpoint at every ckptEvery boundary on the way. With a tracer
// it spans each RunTo slice and returns the memory statistics' deltas and
// the slices' summed host time.
func (r *simRun) runWindow(tr *tracer, sys *core.System) (counters, float64, error) {
	var mem counters
	var runToSec float64
	for now := sys.Now(); now < r.end; now = sys.Now() {
		next := r.end
		if r.spec.ckptEvery > 0 {
			next = min(next, (now/r.spec.ckptEvery+1)*r.spec.ckptEvery)
		}
		var before, after runtime.MemStats
		if tr != nil {
			runtime.ReadMemStats(&before)
		}
		end := tr.begin("network.run")
		sys.RunTo(next)
		runToSec += end()
		if tr != nil {
			runtime.ReadMemStats(&after)
			mem = mem.plus(memDelta(before, after), 1)
		}
		if next < r.end {
			if err := r.save(tr, sys); err != nil {
				return mem, runToSec, err
			}
		}
	}
	return mem, runToSec, nil
}

// save writes one rotating checkpoint of sys.
func (r *simRun) save(tr *tracer, sys *core.System) error {
	end := tr.begin("checkpoint.export")
	st, err := sys.ExportState()
	end()
	if err != nil {
		return err
	}
	end = tr.begin("checkpoint.save")
	err = checkpoint.SaveRotating(r.dir, int64(sys.Now()), st, 2)
	end()
	return err
}

// memDelta is the allocation and collection counts between two readings.
func memDelta(a, b runtime.MemStats) counters {
	return counters{
		allocBytes: int64(b.TotalAlloc - a.TotalAlloc),
		mallocs:    int64(b.Mallocs - a.Mallocs),
		gcs:        int64(b.NumGC - a.NumGC),
	}
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// run measures the workload: set-up, warm-up, timed repetitions for
// opts.seconds, then the output checks.
func (spec simSpec) run(opts options, t *tally) (map[string]float64, error) {
	r := &simRun{spec: spec, input: spec.input(opts.seed), dir: filepath.Join(opts.dir, "ckpt")}
	if opts.trace {
		r.tr = newTracer()
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}

	// The first build is a set-up sample too; its system warms up once,
	// outside every timed window, and its snapshot seeds the repetitions.
	var setupSec []float64
	b, err := r.timedBuild(t, &setupSec)
	if err != nil {
		return nil, err
	}
	b.sys.RunTo(r.warmup)
	b.sys.StartMeasure()
	end := r.tr.begin("checkpoint.export")
	snap, err := b.sys.ExportState()
	end()
	b.sys.Net.Close()
	if err != nil {
		return nil, err
	}

	// Timed repetitions, each after a few set-up builds. The traced run
	// alternates untraced and traced repetitions so its overhead is
	// measured on the same host minutes.
	ref := golden[spec.name]
	if opts.seed != defaultSeed {
		ref = "" // no committed digest: each repetition must match the first
	}
	var last rep
	var traced []counters
	var jobSec, cps, tracedNs, plainNs, runToNs []float64
	cycles := float64(r.end - r.warmup)
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < opts.seconds; i++ {
		if last.b.sys != nil {
			last.b.sys.Net.Close()
			last = rep{} // one system alive at a time, as in a single run
		}
		for j := 0; j < setupsPerRep; j++ {
			b, err := r.timedBuild(t, &setupSec)
			if err != nil {
				return nil, err
			}
			b.sys.Net.Close()
		}
		isTraced := opts.trace && i%2 == 1
		runtime.GC() // every repetition starts from the same collected heap
		last, err = r.runRep(snap, isTraced)
		if !t.check(err == nil, "repetition %d: %v", i, err) {
			return nil, err
		}
		if ref == "" {
			ref = last.digest
		}
		t.check(last.digest == ref, "repetition %d summary digest %s, want %s", i, last.digest, ref)
		jobSec = append(jobSec, last.jobSec)
		cps = append(cps, cycles/last.runSec)
		if isTraced {
			traced = append(traced, last.counters)
			tracedNs = append(tracedNs, last.runSec/cycles*1e9)
			runToNs = append(runToNs, last.runToSec/cycles*1e9)
		} else {
			plainNs = append(plainNs, last.runSec/cycles*1e9)
		}
	}
	heapMB := liveHeapMB() // with the last repetition's system and the warm-up snapshot alive
	runtime.KeepAlive(snap)
	for len(setupSec) < minSetups {
		b, err := r.timedBuild(t, &setupSec)
		if err != nil {
			return nil, err
		}
		b.sys.Net.Close()
	}

	if spec.ckptEvery > 0 {
		r.checkResume(t, last)
	}
	checkDrain(t, last.b)
	last.b.sys.Net.Close()
	if opts.seed != defaultSeed {
		r.checkGolden(t)
	}

	if !opts.trace {
		return map[string]float64{
			"sim_cycles_per_s": median(cps),
			"trials_per_min":   60 / median(jobSec),
			"setup_s":          median(setupSec),
			"heap_live_mb":     heapMB,
		}, nil
	}
	m := r.layerMetrics(traced, runToNs)
	m["trace.overhead_frac"] = median(tracedNs)/median(plainNs) - 1
	return m, r.tr.finish(m, opts)
}

// timedBuild is one set-up sample: a build from the input bytes to a
// system ready for its first cycle, after a forced GC so every sample
// starts from the same collected heap.
func (r *simRun) timedBuild(t *tally, setupSec *[]float64) (built, error) {
	runtime.GC()
	start := time.Now()
	b, err := r.build(r.tr)
	*setupSec = append(*setupSec, time.Since(start).Seconds())
	if !t.check(err == nil, "set-up build: %v", err) {
		return built{}, err
	}
	return b, nil
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// checkResume loads the newest rotating checkpoint of the last repetition
// into a fresh system, resumes it to the end, and requires summary bytes
// equal to the uninterrupted repetition's.
func (r *simRun) checkResume(t *tally, last rep) {
	var st core.State
	end := r.tr.begin("checkpoint.load")
	info, err := checkpoint.LoadLatest(r.dir, &st)
	end()
	if !t.check(err == nil, "loading the newest checkpoint: %v", err) {
		return
	}
	b, err := r.build(nil)
	if !t.check(err == nil, "building the resume system: %v", err) {
		return
	}
	defer b.sys.Net.Close()
	end = r.tr.begin("checkpoint.restore")
	err = b.sys.RestoreState(&st)
	end()
	if !t.check(err == nil, "restoring the checkpoint at cycle %d: %v", info.Cycle, err) {
		return
	}
	b.sys.RunTo(r.end)
	js, err := scenario.Summarize(r.spec.name, b.sys, b.sys.ResultAt(r.end)).JSON()
	t.check(err == nil && bytes.Equal(js, last.summary),
		"summary resumed from the checkpoint at cycle %d differs from the uninterrupted run", info.Cycle)
}

// checkDrain stops the generator, drains the network, and requires exact
// accounting: every injected packet delivered or dropped and counted.
func checkDrain(t *tally, b built) {
	b.stop.Stop()
	n := b.sys.Net
	quiet := n.RunUntilQuiescent(n.Now() + drainLimit)
	inj, del, drop := n.InjectedPackets(), n.DeliveredPackets(), n.DroppedPackets()
	t.check(quiet && inj == del+drop,
		"drain: quiescent %v, injected %d, delivered %d + dropped %d", quiet, inj, del, drop)
}

// checkGolden runs the workload continuously at the default seed and
// compares its summary with the committed digest, so a run at any seed
// checks the simulated output against a known answer.
func (r *simRun) checkGolden(t *tally) {
	g := &simRun{spec: r.spec, input: r.spec.input(defaultSeed), dir: r.dir}
	b, err := g.build(nil)
	if !t.check(err == nil, "golden build: %v", err) {
		return
	}
	defer b.sys.Net.Close()
	b.sys.RunTo(g.warmup)
	b.sys.StartMeasure()
	b.sys.RunTo(g.end)
	js, err := scenario.Summarize(r.spec.name, b.sys, b.sys.ResultAt(g.end)).JSON()
	got := digest(js)
	t.check(err == nil && got == golden[r.spec.name], "default-seed summary digest %s, want %s", got, golden[r.spec.name])
}

// layerMetrics turns the traced repetitions' counters, their host time
// per cycle, and the spans and profile into per-layer metrics. Counts come
// from one traced repetition (every repetition re-runs the same cycles, so
// their counts agree); times are medians.
func (r *simRun) layerMetrics(traced []counters, nsPerCycle []float64) map[string]float64 {
	tr := r.tr
	m := zeroLayerMetrics()
	for metric, span := range map[string]string{
		"scenario.load_s":      "scenario.load",
		"network.build_s":      "network.build",
		"checkpoint.export_s":  "checkpoint.export",
		"checkpoint.save_s":    "checkpoint.save",
		"checkpoint.load_s":    "checkpoint.load",
		"checkpoint.restore_s": "checkpoint.restore",
		"report.summarize_s":   "report.summarize",
	} {
		m[metric] = median(tr.durations(span))
	}
	if names, err := filepath.Glob(filepath.Join(r.dir, "*.ckpt")); err == nil && len(names) > 0 {
		if fi, err := os.Stat(names[len(names)-1]); err == nil { // the newest
			m["checkpoint.bytes"] = float64(fi.Size())
		}
	}

	var next []float64
	for _, c := range traced {
		next = append(next, c.nextSec)
	}
	c := traced[0]
	c.fill(m)
	m["network.ns_per_cycle"] = median(nsPerCycle)
	m["network.ns_per_flit"] = median(nsPerCycle) * float64(c.cycles) / float64(c.flits)
	m["traffic.next_s"] = median(next)
	return m
}

// k2NsPerCycle times a paper-uniform slice on a system rebuilt at two
// shards. K=2 is recorded for the traced run only: on a two-vCPU host it
// hands every cycle to a parked worker and does not repeat well enough to
// gate on.
func k2NsPerCycle(seed uint64) (float64, error) {
	sc, err := scenario.Load(bytes.NewReader(paperUniform.input(seed)))
	if err != nil {
		return 0, err
	}
	sc.System.Shards = 2
	sys, _, _, err := sc.NewSystem()
	if err != nil {
		return 0, err
	}
	defer sys.Net.Close()
	const warmup, slice = 5_000, 2_000
	sys.RunTo(warmup)
	start := time.Now()
	sys.RunTo(warmup + slice)
	return float64(time.Since(start).Nanoseconds()) / slice, nil
}

// poolRunNs times shardrun.Pool.Run over two no-op tasks, the per-cycle
// dispatch cost a K=2 network pays.
func poolRunNs() float64 {
	p := shardrun.NewPool(1)
	defer p.Close()
	noop := func() {}
	tasks := []func(){noop, noop}
	const n = 20_000
	start := time.Now()
	for i := 0; i < n; i++ {
		p.Run(tasks)
	}
	return float64(time.Since(start).Nanoseconds()) / n
}
