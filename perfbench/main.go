// Command perfbench is the repository's end-to-end benchmark. It drives the
// simulator through its public entry points on four single-threaded
// workloads, checks the simulated output against digests committed for the
// default seed, and prints one JSON result line as the last line of its
// standard output. NOTES.md explains why each workload exists and which
// end-to-end metric each per-layer metric should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-uniform --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics of a separate
// traced run: spans around calls into each layer, counts from public
// accessors, and a CPU profile of the timed window charged to packages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// defaultSeed is the seed the digests in golden.json were recorded at.
const defaultSeed = 1

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir is the run's private working directory for checkpoint files and
	// study logs, removed when the run ends.
	dir string
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts the operations a run attempted and those that failed. Each
// check of simulated output is one operation, as is each trial, build and
// checkpoint.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
	return ok
}

// metricDef names a metric and its unit, exactly as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"sim_cycles_per_s", "1/s"},
	{"trials_per_min", "1/min"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
}

// shareLayers are the layers a CPU-profile sample can be charged to: the
// repository's packages that run in some workload (atomicio writes the
// study log, plot the frontier's charts), the Go runtime, and the
// benchmark's own code.
var shareLayers = []string{
	"scenario", "core", "network", "sim", "shardrun", "router", "powerlink",
	"policy", "traffic", "trace", "fault", "telemetry", "checkpoint",
	"report", "dse", "atomicio", "plot", "stats", "linkmodel", "optics",
	"runtime", "perfbench",
}

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.load_s", "s"},
		{"network.build_s", "s"},
		{"network.ns_per_cycle", "ns"},
		{"network.ns_per_flit", "ns"},
		{"network.ff_cycle_frac", "frac"},
		{"network.alloc_bytes_per_cycle", "B"},
		{"network.mallocs_per_cycle", "count"},
		{"network.reroutes", "count"},
		{"network.escape_grants", "count"},
		{"router.flits_per_cycle", "count"},
		{"traffic.next_calls", "count"},
		{"traffic.next_s", "s"},
		{"policy.windows", "count"},
		{"policy.transitions", "count"},
		{"policy.rejected_frac", "frac"},
		{"fault.retransmit_frac", "frac"},
		{"fault.crc_drops", "count"},
		{"fault.relock_failures", "count"},
		{"checkpoint.export_s", "s"},
		{"checkpoint.save_s", "s"},
		{"checkpoint.load_s", "s"},
		{"checkpoint.restore_s", "s"},
		{"checkpoint.bytes", "B"},
		{"report.summarize_s", "s"},
		{"dse.trial_s.p50", "s"},
		{"dse.trial_s.max", "s"},
		{"dse.overhead_s", "s"},
		{"runtime.num_gc", "count"},
		{"runtime.gc_cpu_share", "frac"},
		{"shardrun.pool_run_ns", "ns"},
		{"shardrun.k2_ns_per_cycle", "ns"},
		{"trace.overhead_frac", "frac"},
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "frac"})
	}
	return defs
}()

// workloads maps each workload name to its runner. A runner returns every
// end-to-end metric, or with opts.trace every per-layer metric, by name.
var workloads = map[string]func(options, *tally) (map[string]float64, error){
	"paper-uniform": paperUniform.run,
	"splash-radix":  splashRadix.run,
	"faults-ckpt":   faultsCkpt.run,
	"dse-study":     runDSE,
}

func main() {
	var opts options
	flag.StringVar(&opts.workload, "workload", "", "workload to run: "+workloadNames())
	flag.Uint64Var(&opts.seed, "seed", defaultSeed, "seed of the generated inputs")
	flag.Float64Var(&opts.seconds, "seconds", 15, "length of the timed window in host seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.Parse()
	opts.trace = *traceFlag == 1
	if *traceFlag != 0 && !opts.trace {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		os.Exit(2)
	}

	res, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(js))
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

func run(opts options) (result, error) {
	runner, ok := workloads[opts.workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", opts.workload, workloadNames())
	}
	if opts.seconds <= 0 {
		return result{}, fmt.Errorf("--seconds must be positive, got %g", opts.seconds)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	opts.dir, err = filepath.Abs(dir)
	if err != nil {
		return result{}, err
	}

	var t tally
	values, err := runner(opts, &t)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", opts.workload, err)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", opts.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
