// Command optorun executes a user-authored JSON scenario: any system
// configuration (mesh size, link scheme, bit-rate ladder, policy knobs)
// under any workload (uniform, hotspot schedule, synthetic SPLASH, or a
// trace file), printing the measured latency/power summary — and, in
// series mode, per-bucket time series.
//
// Usage:
//
//	optorun scenario.json
//	optorun -print-default          # emit a fully populated template
//	echo '{}' | optorun -           # the paper's system, light uniform load
//
// It is also a crash-resilient run supervisor: -supervise executes a list
// of scenarios each in its own worker subprocess with periodic
// checkpoints, restarting crashed or hung workers from their newest valid
// checkpoint. A finished scenario leaves its summary file, which a rerun
// skips, so an interrupted matrix resumes exactly where it died:
//
//	optorun -supervise -out-dir results/ a.json b.json c.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/report"
	"repro/internal/scenario"
)

func main() {
	printDefault := flag.Bool("print-default", false, "print a template scenario and exit")
	csv := flag.Bool("csv", false, "emit series tables as CSV")

	superMode := flag.Bool("supervise", false, "run the scenarios as a supervised, crash-resilient matrix")
	outDir := flag.String("out-dir", "optorun-out", "supervisor output directory (summaries, checkpoints, logs)")
	retries := flag.Int("retries", 3, "supervisor: retries per scenario after a crash or timeout")
	timeout := flag.Duration("timeout", 0, "supervisor: per-attempt deadline (0 = none)")
	backoff := flag.Duration("backoff", time.Second, "supervisor: base retry backoff (linear in the attempt number)")

	workerMode := flag.Bool("worker", false, "internal: run one scenario as a checkpointing worker")
	ckptDir := flag.String("checkpoint-dir", "", "worker: checkpoint directory (empty = no checkpointing)")
	ckptEvery := flag.Int64("checkpoint-every", 20_000, "checkpoint interval in cycles (0 = never)")
	workerOut := flag.String("out", "", "worker: summary JSON output path")
	flag.Parse()

	switch {
	case *workerMode:
		if flag.NArg() != 1 || *workerOut == "" {
			fmt.Fprintln(os.Stderr, "usage: optorun -worker -out summary.json [-checkpoint-dir d -checkpoint-every n] <scenario.json>")
			os.Exit(2)
		}
		if err := runWorker(flag.Arg(0), *ckptDir, *ckptEvery, *workerOut); err != nil {
			fatal(err)
		}
		return
	case *superMode:
		if flag.NArg() == 0 {
			fmt.Fprintln(os.Stderr, "usage: optorun -supervise [-out-dir d -retries n -timeout t] <scenario.json>...")
			os.Exit(2)
		}
		err := supervise(superConfig{
			OutDir:    *outDir,
			CkptEvery: *ckptEvery,
			Retries:   *retries,
			Timeout:   *timeout,
			Backoff:   *backoff,
		}, flag.Args())
		if err != nil {
			fatal(err)
		}
		return
	}

	if *printDefault {
		tmpl := scenario.Scenario{
			System: scenario.System{
				MeshW: 8, MeshH: 8, NodesPerRack: 8, VCs: 2, BufDepth: 8,
				Routing: "xy", Scheme: "vcsel",
				MinRateGbps: 5, MaxRateGbps: 10, Levels: 6,
				TbrCycles: 20, TvCycles: 100,
				Window: 1000, SlidingN: 4, AvgThreshold: 0.5,
				Predictor: "sliding", Seed: 1,
			},
			Workload: scenario.Workload{Type: "uniform", Rate: 2, PacketFlits: 5},
			Run:      scenario.Run{Warmup: 10_000, Measure: 100_000},
		}
		out, err := json.MarshalIndent(tmpl, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: optorun [flags] <scenario.json | ->")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var sc *scenario.Scenario
	var err error
	if flag.Arg(0) == "-" {
		sc, err = scenario.Load(os.Stdin)
	} else {
		sc, err = scenario.LoadFile(flag.Arg(0))
	}
	if err != nil {
		fatal(err)
	}

	res, series, err := sc.Execute()
	if err != nil {
		fatal(err)
	}

	sum := report.NewTable("scenario result", "metric", "value")
	sum.AddRowf("measured packets", res.Packets)
	sum.AddRowf("mean latency (cycles)", res.MeanLatencyCycles)
	sum.AddRowf("mean head latency (cycles)", res.MeanHeadLatencyCycles)
	sum.AddRowf("p50 / p95 / p99 latency (cycles)", fmt.Sprintf("%.0f / %.0f / %.0f",
		res.P50LatencyCycles, res.P95LatencyCycles, res.P99LatencyCycles))
	sum.AddRowf("max latency (cycles)", float64(res.MaxLatencyCycles))
	sum.AddRowf("normalised power", res.NormPower)
	sum.AddRowf("fabric normalised power", res.FabricNormPower)
	sum.AddRowf("energy (J)", res.EnergyJ)
	sum.AddRowf("throughput (pkt/cycle)", res.AvgThroughputPktsPerCycle)
	fmt.Println(sum.String())

	if series != nil {
		tb := report.NewTable("time series", "t (cycles)", "injection (pkt/cyc)", "mean latency", "norm power")
		for i := range series.InjectionRate {
			lat := ""
			if i < len(series.MeanLatency) {
				lat = report.FormatFloat(series.MeanLatency[i].V)
			}
			tb.AddRow(
				report.FormatFloat(float64(series.InjectionRate[i].T)),
				report.FormatFloat(series.InjectionRate[i].V),
				lat,
				report.FormatFloat(series.NormPower[i].V),
			)
		}
		if *csv {
			fmt.Print(tb.CSV())
		} else {
			fmt.Println(tb.String())
		}
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "optorun: %v\n", err)
	os.Exit(1)
}
