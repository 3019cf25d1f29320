// Command optodse explores a scenario design space: the automated,
// multi-objective version of the paper's hand swept Tw/N/TH exploration.
// A space file declares a base scenario plus search dimensions over its
// knobs (policy window and thresholds, rate-ladder shape, adaptive-policy
// family and gains, fault intensity); optodse samples trials, runs each in
// its own worker subprocess under a bounded parallel fleet, logs every
// completed trial to a resumable study file, and emits the Pareto frontier
// over (mean latency, link energy, delivered loss) as JSON plus two SVG
// scatter plots.
//
// Usage:
//
//	optodse -space space.json -out study/                    # exhaustive grid
//	optodse -space space.json -out study/ -sampler tpe -trials 64
//	optodse -space space.json -out study/ -sampler halving -trials 32
//
// The study directory is resumable: killing optodse mid-study and
// rerunning the same command reuses every logged trial and produces a
// byte-identical frontier.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/dse"
	"repro/internal/fleet"
)

func main() {
	spacePath := flag.String("space", "", "design-space JSON file (required)")
	outDir := flag.String("out", "", "study directory: trial log, frontier JSON, plots (required unless -worker)")
	samplerKind := flag.String("sampler", "grid", "sampler: grid, random, halving, or tpe")
	trials := flag.Int("trials", 32, "trial budget (random/tpe) or first-rung population (halving)")
	batch := flag.Int("batch", 8, "proposals per sampler generation")
	eta := flag.Int("eta", 2, "halving: survivor divisor and scale multiplier")
	minScale := flag.Float64("min-scale", 0.25, "halving: first-rung measure-window fraction")
	workers := flag.Int("workers", 4, "parallel trial workers (1 = sequential)")
	retries := flag.Int("retries", 2, "retries per trial after a worker crash or timeout")
	timeout := flag.Duration("timeout", 0, "per-trial deadline (0 = none)")
	backoff := flag.Duration("backoff", time.Second, "base retry backoff (linear in the attempt number)")
	inproc := flag.Bool("inproc", false, "run trials in-process instead of worker subprocesses")

	workerMode := flag.Bool("worker", false, "internal: evaluate one trial and exit")
	workerID := flag.Int("id", 0, "worker: trial ID")
	workerScale := flag.Float64("scale", 1, "worker: measure-window scale")
	workerPoint := flag.String("point", "", "worker: comma-separated point coordinates")
	workerOut := flag.String("out-summary", "", "worker: summary JSON output path")
	flag.Parse()

	if *spacePath == "" {
		fmt.Fprintln(os.Stderr, "usage: optodse -space space.json -out study/ [-sampler grid|random|halving|tpe]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	sp, err := dse.LoadFile(*spacePath)
	if err != nil {
		fatal(err)
	}

	if *workerMode {
		if *workerOut == "" {
			fmt.Fprintln(os.Stderr, "usage: optodse -worker -space f -id n -scale s -point v,v,... -out-summary f")
			os.Exit(2)
		}
		if err := runTrialWorker(sp, *workerID, *workerScale, *workerPoint, *workerOut); err != nil {
			fatal(err)
		}
		return
	}

	if *outDir == "" {
		fmt.Fprintln(os.Stderr, "optodse: -out is required")
		os.Exit(2)
	}
	// Validate the space upfront — a malformed base scenario, unknown knob,
	// or bad dim fails here, before the study directory or any worker
	// subprocess exists.
	if err := sp.Validate(); err != nil {
		fatal(err)
	}

	st, err := dse.Open(sp, *samplerKind, dse.Options{
		Trials:   *trials,
		Batch:    *batch,
		Eta:      *eta,
		MinScale: *minScale,
	}, *outDir)
	if err != nil {
		fatal(err)
	}

	kill := fleet.ArmKill(killTokenEnv)
	st.OnTrialDone = func(fresh int) {
		fmt.Printf("optodse: trial done (%d fresh, %d cached)\n", fresh, st.Cached())
		kill(fresh)
	}

	evaluate := dse.Sequential
	if !*inproc {
		evaluate, err = fleetEval(fleetOptions{
			SpacePath: *spacePath,
			OutDir:    *outDir,
			Workers:   *workers,
			Retries:   *retries,
			Timeout:   *timeout,
			Backoff:   *backoff,
		})
		if err != nil {
			fatal(err)
		}
	}

	fr, err := st.Run(evaluate)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("optodse: study complete: %d trials (%d fresh, %d cached), frontier %d points, hypervolume %.4f -> %s\n",
		fr.Trials, st.Fresh(), st.Cached(), len(fr.Points), fr.Hypervolume, *outDir)
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "optodse: %v\n", err)
	os.Exit(1)
}
