package scenario

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sim"
)

// checkpointKeep is how many rotating checkpoints a run retains; two, so
// one unreadable file still leaves a valid fallback.
const checkpointKeep = 2

// Checkpoints configures RunSummary's rotating checkpoints. The zero value
// runs straight through and never touches the disk.
type Checkpoints struct {
	// Dir holds the checkpoints. A run resumes from the newest valid one
	// found there (empty = no checkpoints, no resume).
	Dir string
	// Every is the checkpoint interval in cycles (0 = never save). A
	// checkpoint is also saved when the warm-up ends.
	Every int64
	// AfterSave, when non-nil, is called after each checkpoint is written
	// with the number this run has written so far.
	AfterSave func(saved int)
}

// RunSummary runs the scenario to the end of its measured window and
// renders its summary with Summarize. It is the one scenario-to-summary
// run: the optorun worker and the DSE trial evaluators both call it, so a
// scenario summarises to the same bytes in-process, in a worker
// subprocess, and after any number of crashes and resumes.
//
// A standard run warms up for Run.Warmup cycles and measures Run.Measure
// more. A series run is measured from cycle 0 over Execute's
// bucket-rounded window (the buckets themselves are not collected). With
// ck.Dir set the run first restores the newest valid checkpoint there, so
// rerunning a killed run with the same arguments finishes it.
func (s *Scenario) RunSummary(name string, ck Checkpoints) (report.Summary, error) {
	warmup, measure := s.Run.Window()
	end := warmup + measure
	if s.Run.Series {
		total, _, err := s.Run.seriesSpan()
		if err != nil {
			return report.Summary{}, err
		}
		warmup, end = 0, total
	}
	sys, _, _, err := s.NewSystem()
	if err != nil {
		return report.Summary{}, err
	}
	defer sys.Net.Close()

	started := false
	every := ck.Every
	if ck.Dir == "" {
		every = 0
	} else {
		if err := os.MkdirAll(ck.Dir, 0o755); err != nil {
			return report.Summary{}, err
		}
		var st core.State
		info, err := checkpoint.LoadLatest(ck.Dir, &st)
		switch {
		case err == nil:
			if err := sys.RestoreState(&st); err != nil {
				return report.Summary{}, fmt.Errorf("scenario: restoring checkpoint at cycle %d: %w", info.Cycle, err)
			}
			// A checkpoint taken at the warm-up boundary is written after
			// measurement starts, so >= is the correct test.
			started = sim.Cycle(info.Cycle) >= warmup
		case !errors.Is(err, fs.ErrNotExist):
			return report.Summary{}, err
		}
	}

	from, saved := sys.Now(), 0
	for {
		now := sys.Now()
		if !started && now >= warmup {
			sys.StartMeasure()
			started = true
		}
		if now >= end {
			break
		}
		// Every stop after the first is a warm-up end or an interval
		// boundary: save there.
		if every > 0 && now > from {
			st, err := sys.ExportState()
			if err != nil {
				return report.Summary{}, err
			}
			if err := checkpoint.SaveRotating(ck.Dir, int64(now), st, checkpointKeep); err != nil {
				return report.Summary{}, err
			}
			saved++
			if ck.AfterSave != nil {
				ck.AfterSave(saved)
			}
		}
		next := end
		if !started {
			next = min(next, warmup)
		}
		if every > 0 {
			next = min(next, sim.Cycle((int64(now)/every+1)*every))
		}
		sys.RunTo(next)
	}
	return Summarize(name, sys, sys.ResultAt(end)), nil
}

// seriesSpan resolves a series run's bucket and its length: the warm-up
// plus measure window, rounded down to whole buckets.
func (r Run) seriesSpan() (total, bucket sim.Cycle, err error) {
	warmup, measure := r.Window()
	bucket = sim.Cycle(defaulted(r.Bucket, 10_000))
	total = warmup + measure
	total -= total % bucket
	if total <= 0 {
		return 0, 0, fmt.Errorf("scenario: run too short for bucket %d", bucket)
	}
	return total, bucket, nil
}
