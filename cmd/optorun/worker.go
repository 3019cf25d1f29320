package main

import (
	"path/filepath"

	"repro/internal/atomicio"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// killTokenEnv names a file that arms a deterministic self-SIGKILL for the
// crash-recovery harness (see fleet.ArmKill): a worker that finds it
// consumes it and kills itself right after writing the number of
// checkpoints the file holds. The retry never sees the token, so it runs
// clean from the latest checkpoint.
const killTokenEnv = "OPTORUN_TEST_KILL_TOKEN"

// runWorker executes one scenario to completion through
// scenario.RunSummary, checkpointing every `every` cycles into ckptDir and
// resuming from the newest valid checkpoint found there. The summary is
// written atomically to outPath, so its existence alone proves the run
// finished.
func runWorker(scPath, ckptDir string, every int64, outPath string) error {
	sc, err := scenario.LoadFile(scPath)
	if err != nil {
		return err
	}
	sum, err := sc.RunSummary(scenarioName(scPath), scenario.Checkpoints{
		Dir:       ckptDir,
		Every:     every,
		AfterSave: fleet.ArmKill(killTokenEnv),
	})
	if err != nil {
		return err
	}
	js, err := sum.JSON()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(outPath, append(js, '\n'), 0o644)
}

func scenarioName(scPath string) string {
	base := filepath.Base(scPath)
	return base[:len(base)-len(filepath.Ext(base))]
}
