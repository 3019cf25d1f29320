package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/fleet"
	"repro/internal/scenario"
)

// superConfig collects the supervisor knobs.
type superConfig struct {
	OutDir    string
	CkptEvery int64
	Retries   int
	Timeout   time.Duration
	Backoff   time.Duration
}

// runDirs returns the per-scenario working paths: checkpoint directory,
// summary file, and worker log. Scenarios are keyed by position so two
// files with the same base name cannot collide.
func runDirs(outDir string, idx int, scPath string) (ckptDir, outPath, logPath string) {
	key := fmt.Sprintf("%03d-%s", idx, scenarioName(scPath))
	return filepath.Join(outDir, key+".ckpt"),
		filepath.Join(outDir, key+".summary.json"),
		filepath.Join(outDir, key+".log")
}

// supervise runs a scenario matrix with per-scenario subprocess isolation:
// each scenario executes in its own worker process that auto-checkpoints,
// so a panic, OOM kill, or stray SIGKILL costs at most one checkpoint
// interval. The workers run one at a time through fleet.Run, which retries
// a crashed or timed-out worker with linear backoff; the retry resumes
// from the newest valid checkpoint. A worker publishes its summary
// atomically, so a scenario whose summary file exists is done and a rerun
// skips it. Each worker's log records the crashes it survived.
func supervise(cfg superConfig, scenarios []string) error {
	// Validate the whole matrix upfront: a malformed scenario fails here,
	// before any worker subprocess spawns or any output is written — not
	// minutes later from inside a crashed worker's log.
	for _, scPath := range scenarios {
		sc, err := scenario.LoadFile(scPath)
		if err != nil {
			return fmt.Errorf("optorun: %s: %w", scPath, err)
		}
		if err := sc.Validate(); err != nil {
			return fmt.Errorf("optorun: %s: %w", scPath, err)
		}
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}

	var todo []int
	for idx, sc := range scenarios {
		_, outPath, _ := runDirs(cfg.OutDir, idx, sc)
		if _, err := os.Stat(outPath); err == nil {
			fmt.Printf("optorun: %s already done, skipping\n", sc)
			continue
		}
		todo = append(todo, idx)
	}
	attempts := make([]int, len(todo))
	failed := 0
	fleet.Run(fleet.Config{
		Workers: 1,
		Retries: cfg.Retries,
		Timeout: cfg.Timeout,
		Backoff: cfg.Backoff,
	}, len(todo), func(i, attempt int) error {
		idx := todo[i]
		sc := scenarios[idx]
		ckptDir, outPath, logPath := runDirs(cfg.OutDir, idx, sc)
		attempts[i] = attempt
		err := fleet.Attempt(cfg.Timeout, []string{self,
			"-worker",
			"-checkpoint-dir", ckptDir,
			"-checkpoint-every", strconv.FormatInt(cfg.CkptEvery, 10),
			"-out", outPath,
			sc}, logPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "optorun: %s attempt %d: %v\n", sc, attempt, err)
		}
		return err
	}, func(i int, err error) {
		idx := todo[i]
		_, outPath, logPath := runDirs(cfg.OutDir, idx, scenarios[idx])
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "optorun: %s failed after %d attempt(s); see %s\n", scenarios[idx], attempts[i], logPath)
			return
		}
		fmt.Printf("optorun: %s done (%d attempt(s)) -> %s\n", scenarios[idx], attempts[i], outPath)
	})
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed; see the worker logs in %s", failed, len(scenarios), cfg.OutDir)
	}
	return nil
}
