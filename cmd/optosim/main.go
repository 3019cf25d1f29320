// Command optosim reproduces the paper's evaluation: it runs any table or
// figure of "Exploring the Design Space of Power-Aware Opto-Electronic
// Networked Systems" (HPCA 2005) and prints the rows/series as text tables
// or CSV.
//
// Usage:
//
//	optosim -list
//	optosim [-full] [-csv] [-seed N] <experiment> [<experiment>...]
//	optosim -full all
//
// Experiments: table2, fig5window, fig5threshold, fig5g, fig5h, fig6,
// fig7, table3, table3-nodefixed, throughput, patterns, faults, reroute,
// policies, and the ablations ablation-{lu,n,bu,levels,onoff,predictor,
// routing}. With -policy, every harness swaps the paper's DVS controller
// for the named adaptive policy; the policies experiment runs them
// head-to-head with regret against an offline oracle.
// With -svg DIR, the figure-shaped experiments also write SVG charts. The
// faults experiment takes the -fault.* flags to parameterise the injector;
// reroute studies the power knock-on of fault-aware routing around a
// failed link. With -json, experiments that carry reliability/recovery
// counters emit a machine-readable summary array instead of tables.
//
// The faults and reroute experiments can run instrumented: -telemetry
// enables the wheel-driven probe/flight-recorder subsystem, -trace-out
// writes a Chrome trace_event JSON (open in Perfetto or chrome://tracing),
// -telemetry.csv dumps the raw time series, and -flight-out captures the
// flight-recorder timeline (auto-dumped mid-run on watchdog escalation).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fault-injection knobs for the "faults" experiment (see internal/fault).
var (
	faultBERScale = flag.Float64("fault.berscale", 1, "scale factor on each link's margin-derived bit error rate")
	faultBERFloor = flag.Float64("fault.berfloor", 5e-5, "minimum per-bit error rate regardless of optical margin")
	faultRelock   = flag.Float64("fault.relock", 0.1, "probability that a CDR relock fails after a frequency switch")
	faultFailLink = flag.Int("fault.faillink", 0, "link index for one hard failure window (-1 for none)")
	faultFailAt   = flag.Int64("fault.failat", 10_000, "cycle at which the hard failure begins")
	faultFailFor  = flag.Int64("fault.failfor", 5_000, "length of the hard failure window in cycles")
)

// faultConfigFromFlags assembles the injector configuration the "faults"
// experiment runs with.
func faultConfigFromFlags() fault.Config {
	fc := fault.Config{
		BERScale:       *faultBERScale,
		BERFloor:       *faultBERFloor,
		RelockFailProb: *faultRelock,
	}
	if *faultFailLink >= 0 && *faultFailFor > 0 {
		fc.LinkFailures = []fault.LinkFailure{{
			Link:     *faultFailLink,
			At:       sim.Cycle(*faultFailAt),
			RepairAt: sim.Cycle(*faultFailAt + *faultFailFor),
		}}
	}
	return fc
}

// output bundles an experiment's renderings: text tables always, SVG
// charts for the figure-shaped experiments (written when -svg is given).
type output struct {
	tables    []*report.Table
	charts    []namedChart
	summaries []report.Summary
}

type runner func(s experiments.Scale) (output, error)

func registry() map[string]runner {
	return map[string]runner{
		"table2": func(s experiments.Scale) (output, error) {
			return output{tables: []*report.Table{experiments.Table2Report()}}, nil
		},
		"fig5window": func(s experiments.Scale) (output, error) {
			pts, err := experiments.Fig5WindowSweep(s)
			if err != nil {
				return output{}, err
			}
			return output{tables: []*report.Table{experiments.Fig5PointsReport(
				"Fig 5(a,b,c): normalised latency/power/PLP vs window size Tw", "Tw (cycles)", pts)}}, nil
		},
		"fig5threshold": func(s experiments.Scale) (output, error) {
			pts, err := experiments.Fig5ThresholdSweep(s)
			if err != nil {
				return output{}, err
			}
			return output{tables: []*report.Table{experiments.Fig5PointsReport(
				"Fig 5(d,e,f): normalised latency/power/PLP vs avg utilisation threshold", "avg threshold", pts)}}, nil
		},
		"fig5g": func(s experiments.Scale) (output, error) {
			pts, err := experiments.Fig5G(s)
			if err != nil {
				return output{}, err
			}
			return output{
				tables: []*report.Table{experiments.Fig5GReport("Fig 5(g): latency vs injection rate", pts)},
				charts: chartsFig5G(pts),
			}, nil
		},
		"fig5h": func(s experiments.Scale) (output, error) {
			pts, err := experiments.Fig5H(s)
			if err != nil {
				return output{}, err
			}
			return output{
				tables: []*report.Table{experiments.Fig5GReport("Fig 5(h): normalised power vs injection rate", pts)},
				charts: chartsFig5H(pts),
			}, nil
		},
		"fig6": func(s experiments.Scale) (output, error) {
			r, err := experiments.Fig6(s)
			if err != nil {
				return output{}, err
			}
			return output{tables: experiments.Fig6Report(r), charts: chartsFig6(r)}, nil
		},
		"fig7": func(s experiments.Scale) (output, error) {
			rs, err := experiments.Fig7All(s)
			if err != nil {
				return output{}, err
			}
			var out output
			for _, r := range rs {
				out.tables = append(out.tables, experiments.Fig7Report(r))
				out.charts = append(out.charts, chartsFig7(r)...)
			}
			out.tables = append(out.tables, experiments.Table3(rs))
			return out, nil
		},
		"table3": func(s experiments.Scale) (output, error) {
			rs, err := experiments.Fig7All(s)
			if err != nil {
				return output{}, err
			}
			return output{tables: []*report.Table{experiments.Table3(rs)}}, nil
		},
		"table3-nodefixed": func(s experiments.Scale) (output, error) {
			rs, err := experiments.Fig7AllNodeLinksFixed(s)
			if err != nil {
				return output{}, err
			}
			tb := experiments.Table3(rs)
			tb.Title = "Table 3 variant: node links pinned at 10 Gb/s (power over fabric links)"
			return output{tables: []*report.Table{tb}}, nil
		},
		"ablation-lu": ablation("Ablation: Lu definition", experiments.AblationLuDef),
		"ablation-n":  ablation("Ablation: sliding-average depth N", experiments.AblationSlidingN),
		"ablation-bu": ablation("Ablation: Bu-conditioned thresholds", experiments.AblationBu),
		"ablation-levels": ablation("Ablation: number of bit-rate levels",
			experiments.AblationLevels),
		"ablation-onoff": ablation("Ablation: DVS levels vs on/off links",
			experiments.AblationOnOff),
		"ablation-predictor": ablation("Ablation: sliding mean vs EWMA predictor",
			experiments.AblationPredictor),
		"ablation-routing": ablation("Ablation: XY vs YX dimension order",
			experiments.AblationRouting),
		"patterns": func(s experiments.Scale) (output, error) {
			rows, err := experiments.Patterns(s)
			if err != nil {
				return output{}, err
			}
			return output{tables: []*report.Table{experiments.PatternsReport(rows)}}, nil
		},
		"seeds": func(s experiments.Scale) (output, error) {
			var rs []experiments.ReplicatedResult
			for _, rate := range s.Rates3 {
				r, err := experiments.Replicate(s, rate, 5)
				if err != nil {
					return output{}, err
				}
				rs = append(rs, r)
			}
			return output{tables: []*report.Table{experiments.ReplicateReport(rs)}}, nil
		},
		"faults": func(s experiments.Scale) (output, error) {
			rows, reg, err := experiments.FaultsInstrumented(s, faultConfigFromFlags(), telemetryConfigFromFlags())
			if err != nil {
				return output{}, err
			}
			out := output{tables: []*report.Table{experiments.FaultsReport(rows)}}
			for _, r := range rows {
				out.summaries = append(out.summaries, r.Summary)
			}
			return out, exportTelemetry(reg)
		},
		"reroute": func(s experiments.Scale) (output, error) {
			r, reg, err := experiments.RerouteInstrumented(s, telemetryConfigFromFlags())
			if err != nil {
				return output{}, err
			}
			return output{
				tables:    []*report.Table{experiments.RerouteReport(r)},
				summaries: []report.Summary{r.Summary},
			}, exportTelemetry(reg)
		},
		"policies": func(s experiments.Scale) (output, error) {
			rows, err := experiments.PolicyStudy(s)
			if err != nil {
				return output{}, err
			}
			out := output{tables: []*report.Table{experiments.PolicyStudyReport(rows)}}
			for _, r := range rows {
				out.summaries = append(out.summaries, r.Summary)
			}
			return out, nil
		},
		"throughput": func(s experiments.Scale) (output, error) {
			rs, err := experiments.Throughput(s)
			if err != nil {
				return output{}, err
			}
			return output{tables: []*report.Table{experiments.ThroughputReport(rs)}}, nil
		},
	}
}

func ablation(title string, f func(experiments.Scale) ([]experiments.AblationRow, error)) runner {
	return func(s experiments.Scale) (output, error) {
		rows, err := f(s)
		if err != nil {
			return output{}, err
		}
		return output{tables: []*report.Table{experiments.AblationReport(title, rows)}}, nil
	}
}

func main() {
	full := flag.Bool("full", false, "run at the paper's full scale (slower)")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON summaries (reliability/recovery counters) instead of tables")
	svgDir := flag.String("svg", "", "also write figure charts as SVG files into this directory")
	seed := flag.Uint64("seed", 1, "simulation seed")
	shards := flag.Int("shards", 0, "parallel-core shard count; must divide the mesh width (0 = sequential, results identical)")
	policyKind := flag.String("policy", "", "adaptive link policy for every harness: dvs (default), rules, or pid; the policies experiment also accepts it as a column filter")
	list := flag.Bool("list", false, "list available experiments")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: optosim [-full] [-csv] [-seed N] <experiment>...|all\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	reg := registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)

	if *list {
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if len(args) == 1 && args[0] == "all" {
		args = names
	}

	scale := experiments.QuickScale()
	if *full {
		scale = experiments.FullScale()
	}
	scale.Seed = *seed
	scale.Shards = *shards
	if _, err := policy.ParseKind(*policyKind); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	scale.Policy = *policyKind

	if !*jsonOut {
		// Fig 7 depends on trace synthesis; mention the substitution once.
		fmt.Printf("# power-aware opto-electronic network reproduction (seed=%d, scale=%s)\n",
			*seed, scaleName(*full))
		fmt.Printf("# SPLASH-2 traces are synthesised (%v); see DESIGN.md 'Substitutions'\n\n", trace.Benchmarks())
	}

	exit := 0
	var summaries []report.Summary
	for _, name := range args {
		r, ok := reg[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "optosim: unknown experiment %q (use -list)\n", name)
			exit = 1
			continue
		}
		start := time.Now()
		out, err := r(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optosim: %s: %v\n", name, err)
			exit = 1
			continue
		}
		if *jsonOut {
			summaries = append(summaries, out.summaries...)
			continue
		}
		for _, tb := range out.tables {
			if *csv {
				fmt.Print(tb.CSV())
			} else {
				fmt.Println(tb.String())
			}
		}
		if *svgDir != "" && len(out.charts) > 0 {
			if err := writeCharts(*svgDir, out.charts); err != nil {
				fmt.Fprintf(os.Stderr, "optosim: %s: writing charts: %v\n", name, err)
				exit = 1
			}
		}
		fmt.Printf("# %s done in %v\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		if err := report.WriteSummaries(os.Stdout, summaries); err != nil {
			fmt.Fprintf(os.Stderr, "optosim: writing summaries: %v\n", err)
			exit = 1
		}
	}
	os.Exit(exit)
}

func scaleName(full bool) string {
	if full {
		return "full"
	}
	return "quick"
}
