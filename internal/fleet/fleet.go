// Package fleet runs worker subprocesses for the crash-resilient harnesses:
// the optorun run supervisor and the optodse design-space-exploration
// driver. It owns the two mechanisms both need — spawning one worker with a
// deadline and an honest exit classification (clean / worker error / crash
// signal / timeout), and fanning a batch of jobs over a bounded pool with
// per-job retries — so a panic, OOM kill, or stray SIGKILL in one trial
// never takes down the driver or the rest of the batch.
// ArmKill is the self-SIGKILL hook their crash harnesses share.
//
// fleet is deliberately *not* a sim-core package: it starts goroutines,
// sleeps real time between retries, and talks to the OS scheduler. Nothing
// here may influence simulation results — callers consume job outputs by
// index, never by completion order, so the pool's interleaving is
// unobservable in any deterministic artifact.
package fleet

import (
	"context"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Config collects the pool knobs.
type Config struct {
	// Workers is the maximum number of concurrently running jobs (values
	// below 1 mean 1).
	Workers int
	// Retries is the number of extra attempts a failed job gets.
	Retries int
	// Timeout is the per-attempt deadline handed to Attempt (0 = none).
	Timeout time.Duration
	// Backoff is the base sleep between retries, linear in the attempt
	// number (0 = retry immediately).
	Backoff time.Duration
}

// Attempt runs one worker subprocess (argv[0] is the binary) to completion,
// appending its combined output to logPath, and classifies the exit. On
// timeout the worker first gets SIGTERM; if it has not exited five seconds
// later the kill escalates to SIGKILL. The returned error distinguishes a
// crash ("worker killed by <signal>") from a worker-reported failure and
// from a blown deadline. A failed attempt also appends that classification
// to the log, so the log keeps the record of every crash a run survived.
func Attempt(timeout time.Duration, argv []string, logPath string) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	logF, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logF.Close()

	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdout = logF
	cmd.Stderr = logF
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 5 * time.Second

	err = cmd.Run()
	if ctx.Err() == context.DeadlineExceeded {
		err = fmt.Errorf("worker exceeded deadline %s", timeout)
	} else if ee, isExit := err.(*exec.ExitError); isExit {
		if ws, isWait := ee.Sys().(syscall.WaitStatus); isWait && ws.Signaled() {
			err = fmt.Errorf("worker killed by %s", ws.Signal())
		} else {
			err = fmt.Errorf("worker exited with %s (see %s)", ee, logPath)
		}
	}
	if err != nil {
		fmt.Fprintf(logF, "fleet: %v\n", err)
	}
	return err
}

// ArmKill arms a deterministic self-SIGKILL for crash-recovery harnesses.
// The environment variable env names a token file. If the file exists, it
// is consumed (deleted) and its content, a count n, arms the returned
// function: the first call with a count of at least n kills the process
// with SIGKILL, which runs no deferred writes and no cleanup, exactly like
// an external kill -9. Without a readable token the function does nothing.
// Because the token is consumed, a retried or rerun process runs clean.
func ArmKill(env string) func(count int) {
	after := -1
	if token := os.Getenv(env); token != "" {
		if b, err := os.ReadFile(token); err == nil {
			os.Remove(token)
			if n, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil {
				after = n
			}
		}
	}
	return func(count int) {
		if after >= 0 && count >= after {
			p, _ := os.FindProcess(os.Getpid())
			p.Kill()
			select {} // unreachable: SIGKILL is not handleable
		}
	}
}

// Run executes jobs 0..n-1 across cfg.Workers goroutines. Jobs are claimed
// in index order via an atomic counter; a failed job is retried up to
// cfg.Retries times with linear backoff before its error is recorded. The
// returned slice holds each job's final error by index. onDone, when
// non-nil, is called exactly once per job as it finishes (successfully or
// not), serialized under an internal lock so callers can update shared
// state — a study log, a progress line — without their own locking.
func Run(cfg Config, n int, job func(i, attempt int) error, onDone func(i int, err error)) []error {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var doneMu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				var err error
				for attempt := 1; attempt <= cfg.Retries+1; attempt++ {
					if err = job(i, attempt); err == nil {
						break
					}
					if attempt <= cfg.Retries && cfg.Backoff > 0 {
						time.Sleep(cfg.Backoff * time.Duration(attempt))
					}
				}
				errs[i] = err
				if onDone != nil {
					doneMu.Lock()
					onDone(i, err)
					doneMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errs
}
