package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// The study: a few dozen TPE trials, proposed eight at a time.
var dseOptions = dse.Options{Trials: 24, Batch: 8}

// study is one timed study and what the checks and the traced run need
// from it.
type study struct {
	st       *dse.Study
	sec      float64 // Open until the frontier is written
	cycles   int64   // simulated cycles over all fresh trials
	frontier []byte
	// trialSec and trials are kept for traced studies only: each
	// ExecuteTrial's host time, and each trial's input and summary for the
	// replay.
	trialSec []float64
	trials   []tracedTrial
}

type tracedTrial struct {
	pending dse.Pending
	summary []byte
}

func runDSE(opts options, t *tally) (map[string]float64, error) {
	input := dseSpace(opts.seed)
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}

	ref := golden["dse-study"]
	if opts.seed != defaultSeed {
		ref = "" // no committed digest: each study must match the first
	}
	var last study
	var lastTraced []tracedTrial
	var setupSec, cps, tpm, tracedSec, plainSec, trialSec, overhead []float64
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < opts.seconds; i++ {
		last = study{} // one study alive at a time, as in a single run
		for j := 0; j < setupsPerRep; j++ {
			if err := openStudy(t, tr, input, filepath.Join(opts.dir, fmt.Sprintf("setup-%d-%d", i, j)), &setupSec); err != nil {
				return nil, err
			}
		}
		var studyTr *tracer
		if opts.trace && i%2 == 1 {
			studyTr = tr
		}
		var err error
		last, err = runStudy(t, studyTr, input, filepath.Join(opts.dir, fmt.Sprintf("study-%d", i)))
		if err != nil {
			return nil, err
		}
		if ref == "" {
			ref = digest(last.frontier)
		}
		t.check(digest(last.frontier) == ref, "study %d frontier digest %s, want %s", i, digest(last.frontier), ref)
		cps = append(cps, float64(last.cycles)/last.sec)
		tpm = append(tpm, float64(last.st.Fresh())*60/last.sec)
		if studyTr == nil {
			plainSec = append(plainSec, last.sec)
			continue
		}
		tracedSec = append(tracedSec, last.sec)
		trialSec = append(trialSec, last.trialSec...)
		sum := 0.0
		for _, d := range last.trialSec {
			sum += d
		}
		overhead = append(overhead, last.sec-sum)
		lastTraced = last.trials
	}
	heapMB := liveHeapMB()
	runtime.KeepAlive(last.st)
	for i := 0; len(setupSec) < minSetups; i++ {
		if err := openStudy(t, tr, input, filepath.Join(opts.dir, fmt.Sprintf("setup-extra-%d", i)), &setupSec); err != nil {
			return nil, err
		}
	}

	if opts.seed != defaultSeed {
		s, err := runStudy(t, nil, dseSpace(defaultSeed), filepath.Join(opts.dir, "golden"))
		if err != nil {
			return nil, err
		}
		want := golden["dse-study"]
		t.check(digest(s.frontier) == want, "default-seed frontier digest %s, want %s", digest(s.frontier), want)
	}

	if !opts.trace {
		return map[string]float64{
			"sim_cycles_per_s": median(cps),
			"trials_per_min":   median(tpm),
			"setup_s":          median(setupSec),
			"heap_live_mb":     heapMB,
		}, nil
	}

	m := zeroLayerMetrics()
	m["scenario.load_s"] = median(tr.durations("scenario.load"))
	m["dse.trial_s.p50"] = median(trialSec)
	m["dse.trial_s.max"] = slices.Max(trialSec)
	m["dse.overhead_s"] = median(overhead)
	m["trace.overhead_frac"] = median(tracedSec)/median(plainSec) - 1
	replayTrials(t, tr, lastTraced, m)
	return m, tr.finish(m, opts)
}

// openStudy is one set-up sample: from the space file's bytes to an open
// study in a fresh directory (dse.Load, Open), after a forced GC.
func openStudy(t *tally, tr *tracer, input []byte, dir string, setupSec *[]float64) error {
	defer os.RemoveAll(dir)
	runtime.GC()
	start := time.Now()
	end := tr.begin("scenario.load")
	sp, err := dse.Load(bytes.NewReader(input))
	if err == nil {
		_, err = dse.Open(sp, "tpe", dseOptions, dir)
	}
	end()
	*setupSec = append(*setupSec, time.Since(start).Seconds())
	if !t.check(err == nil, "opening a study: %v", err) {
		return err
	}
	return nil
}

// runStudy runs one study in a fresh directory: dse.Load, Open, Study.Run
// with the in-process evaluator, timed from Open until the frontier is
// written. Untraced studies (tr nil) evaluate through dse.Sequential;
// traced ones through an equivalent evaluator that times each
// dse.ExecuteTrial, under a CPU profile.
func runStudy(t *tally, tr *tracer, input []byte, dir string) (study, error) {
	var s study
	sp, err := dse.Load(bytes.NewReader(input))
	if err != nil {
		return s, err
	}
	defer os.RemoveAll(dir)
	eval := func(pending []dse.Pending, record dse.RecordFunc) {
		for _, p := range pending {
			s.cycles += p.Scenario.Run.Warmup + p.Scenario.Run.Measure
		}
		dse.Sequential(pending, record)
	}
	if tr != nil {
		eval = func(pending []dse.Pending, record dse.RecordFunc) {
			for i := range pending {
				p := &pending[i]
				s.cycles += p.Scenario.Run.Warmup + p.Scenario.Run.Measure
				end := tr.begin("dse.trial")
				sum, err := dse.ExecuteTrial(p)
				s.trialSec = append(s.trialSec, end())
				js, jerr := sum.JSON()
				if err == nil && jerr == nil {
					s.trials = append(s.trials, tracedTrial{pending: *p, summary: js})
				}
				record(p.ID, sum, err)
			}
		}
	}

	runtime.GC()
	if tr != nil {
		if err := tr.startProfile(); err != nil {
			return s, err
		}
	}
	start := time.Now()
	s.st, err = dse.Open(sp, "tpe", dseOptions, dir)
	var fr *dse.Frontier
	if err == nil {
		fr, err = s.st.Run(eval)
	}
	s.sec = time.Since(start).Seconds()
	if tr != nil {
		if perr := tr.stopProfile(); err == nil {
			err = perr
		}
	}
	if !t.check(err == nil, "running the study: %v", err) {
		return s, err
	}
	for _, trial := range s.st.Trials() {
		t.check(trial.Error == "" && trial.Objectives != nil, "trial %d: %s", trial.ID, trial.Error)
	}
	t.check(s.st.Fresh() == dseOptions.Trials, "study evaluated %d fresh trials, want %d", s.st.Fresh(), dseOptions.Trials)
	s.frontier, err = fr.JSON()
	if err != nil {
		return s, err
	}
	onDisk, err := os.ReadFile(filepath.Join(dir, "frontier.json"))
	t.check(err == nil && bytes.Equal(onDisk, s.frontier), "frontier.json on disk differs from the returned frontier: %v", err)
	return s, nil
}

// replayTrials re-runs a traced study's trials outside its timed window
// through the public calls dse.ExecuteTrial makes (build, run, summarize),
// with spans and the generator wrapper around them, so the per-layer split
// of a trial is measured from outside. Each replay must reproduce the
// trial's summary bytes. Counts are summed over the study's trials.
func replayTrials(t *tally, tr *tracer, trials []tracedTrial, m map[string]float64) {
	var runSec float64
	var c counters
	for _, trial := range trials {
		p := trial.pending
		sc := p.Scenario
		b, err := buildScenario(tr, sc)
		if !t.check(err == nil, "replaying trial %d: %v", p.ID, err) {
			continue
		}
		warmup, end := sim.Cycle(sc.Run.Warmup), sim.Cycle(sc.Run.Warmup+sc.Run.Measure)
		before := readCounters(b)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stop := tr.begin("network.run")
		b.sys.RunTo(warmup)
		b.sys.StartMeasure()
		b.sys.RunTo(end)
		runSec += stop()
		runtime.ReadMemStats(&ms1)
		c = c.plus(readCounters(b).plus(before, -1), 1).plus(memDelta(ms0, ms1), 1)

		stop = tr.begin("report.summarize")
		sum := scenario.Summarize(dse.TrialName(p.ID), b.sys, b.sys.ResultAt(end))
		params := p.Params
		sum.Params = &params
		js, err := sum.JSON()
		stop()
		b.sys.Net.Close()
		t.check(err == nil && bytes.Equal(js, trial.summary), "replayed trial %d summary differs from the study's", p.ID)
	}
	m["network.build_s"] = median(tr.durations("network.build"))
	m["report.summarize_s"] = median(tr.durations("report.summarize"))
	c.fill(m)
	if c.cycles > 0 && c.flits > 0 {
		m["network.ns_per_cycle"] = runSec / float64(c.cycles) * 1e9
		m["network.ns_per_flit"] = runSec / float64(c.flits) * 1e9
	}
	m["traffic.next_s"] = c.nextSec
}

// buildScenario builds a trial's system the way Scenario.NewSystem does,
// with the generator handed to core.NewSystem wrapped for timing.
func buildScenario(tr *tracer, sc *scenario.Scenario) (built, error) {
	cfg, err := sc.NetworkConfig()
	if err != nil {
		return built{}, err
	}
	gen, err := sc.Generator(cfg)
	if err != nil {
		return built{}, err
	}
	b := built{gen: &timedGen{inner: gen}}
	stop := tr.begin("network.build")
	b.sys, err = core.NewSystem(cfg, b.gen)
	stop()
	return b, err
}
