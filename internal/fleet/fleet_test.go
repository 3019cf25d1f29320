package fleet

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAttemptClassifiesExits: a clean worker returns nil; a worker that
// exits non-zero reports a worker error; a worker that dies to a signal
// reports the signal; a worker that outlives its deadline reports the
// deadline. These strings are what Attempt appends to the worker logs as
// the record of survived crashes, so they are contract, not cosmetics.
func TestAttemptClassifiesExits(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	logAt := func(name string) string { return filepath.Join(dir, name+".log") }

	if err := Attempt(0, []string{"/bin/sh", "-c", "echo ok"}, logAt("clean")); err != nil {
		t.Errorf("clean worker: %v", err)
	}
	if b, err := os.ReadFile(logAt("clean")); err != nil || !strings.Contains(string(b), "ok") {
		t.Errorf("worker output not captured: %q, %v", b, err)
	}

	err := Attempt(0, []string{"/bin/sh", "-c", "exit 3"}, logAt("fail"))
	if err == nil || !strings.Contains(err.Error(), "worker exited with") {
		t.Errorf("non-zero exit misclassified: %v", err)
	}

	err = Attempt(0, []string{"/bin/sh", "-c", "kill -9 $$"}, logAt("crash"))
	if err == nil || !strings.Contains(err.Error(), "killed by killed") {
		t.Errorf("SIGKILL misclassified: %v", err)
	}

	err = Attempt(100*time.Millisecond, []string{"/bin/sh", "-c", "sleep 10"}, logAt("hang"))
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Errorf("timeout misclassified: %v", err)
	}
}

// TestAttemptLogsCrash: a worker that SIGKILLs itself mid-output leaves
// its own output in the log followed by the crash classification as the
// last line, so a retried run's log still shows what it survived.
func TestAttemptLogsCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	logPath := filepath.Join(t.TempDir(), "worker.log")
	err := Attempt(0, []string{"/bin/sh", "-c", "echo checkpoint 1; kill -9 $$"}, logPath)
	if err == nil {
		t.Fatal("self-killed worker reported success")
	}
	b, readErr := os.ReadFile(logPath)
	if readErr != nil {
		t.Fatal(readErr)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) != 2 || lines[0] != "checkpoint 1" {
		t.Fatalf("log = %q, want the worker's line then the crash record", b)
	}
	if want := "fleet: " + err.Error(); lines[1] != want || !strings.Contains(want, "worker killed by killed") {
		t.Errorf("last log line = %q, want %q naming the SIGKILL", lines[1], want)
	}
	// A clean attempt appends nothing beyond the worker's own output.
	if err := Attempt(0, []string{"/bin/sh", "-c", "echo done"}, logPath); err != nil {
		t.Fatal(err)
	}
	if b2, _ := os.ReadFile(logPath); string(b2) != string(b)+"done\n" {
		t.Errorf("clean attempt log = %q, want the old log plus %q", b2, "done\n")
	}
}

// TestArmKill: without a token the hook never fires; with one, the token
// is consumed at arming, so a second arming (a retry) stays disarmed.
// The firing path is covered end to end by the optorun and optodse
// SIGKILL harnesses.
func TestArmKill(t *testing.T) {
	const env = "OPTORUN_TEST_KILL_TOKEN"
	t.Setenv(env, "")
	ArmKill(env)(1 << 20) // disarmed: must return

	token := filepath.Join(t.TempDir(), "kill.token")
	if err := os.WriteFile(token, []byte("1000\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv(env, token)
	kill := ArmKill(env)
	if _, err := os.Stat(token); !os.IsNotExist(err) {
		t.Fatalf("token not consumed at arming: %v", err)
	}
	kill(999) // below the armed count: must return
	ArmKill(env)(1 << 20)
}

// TestRunBoundedConcurrencyAndRetries: the pool never exceeds Workers
// in-flight jobs, retries failures the configured number of times, and
// reports final errors by job index regardless of completion order.
func TestRunBoundedConcurrencyAndRetries(t *testing.T) {
	const n, workers = 24, 3
	var inFlight, peak, calls atomic.Int64
	attempts := make([]int, n)
	var mu sync.Mutex
	errs := Run(Config{Workers: workers, Retries: 2}, n, func(i, attempt int) error {
		calls.Add(1)
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		mu.Lock()
		attempts[i] = attempt
		mu.Unlock()
		if i%5 == 0 && attempt < 2 {
			return errors.New("transient")
		}
		if i == 7 {
			return fmt.Errorf("job %d always fails", i)
		}
		return nil
	}, nil)

	if got := peak.Load(); got > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", got, workers)
	}
	for i, err := range errs {
		switch {
		case i == 7:
			if err == nil || !strings.Contains(err.Error(), "job 7") {
				t.Errorf("job 7 error = %v, want permanent failure", err)
			}
			if attempts[7] != 3 {
				t.Errorf("job 7 ran %d attempts, want 3 (1 + 2 retries)", attempts[7])
			}
		case i%5 == 0:
			if err != nil {
				t.Errorf("job %d not healed by retry: %v", i, err)
			}
			if attempts[i] != 2 {
				t.Errorf("job %d ran %d attempts, want 2", i, attempts[i])
			}
		default:
			if err != nil || attempts[i] != 1 {
				t.Errorf("job %d: err=%v attempts=%d, want clean single attempt", i, err, attempts[i])
			}
		}
	}
}

// TestRunOnDoneSerialized: onDone fires exactly once per job and is
// serialized — concurrent callbacks would corrupt the study logs the DSE
// driver rewrites from it.
func TestRunOnDoneSerialized(t *testing.T) {
	const n = 50
	seen := make(map[int]int)
	var inCallback atomic.Int64
	Run(Config{Workers: 8}, n, func(i, attempt int) error {
		if i%4 == 0 {
			return errors.New("fails")
		}
		return nil
	}, func(i int, err error) {
		if inCallback.Add(1) != 1 {
			t.Error("onDone reentered concurrently")
		}
		seen[i]++
		if i%4 == 0 && err == nil {
			t.Errorf("job %d error not delivered to onDone", i)
		}
		inCallback.Add(-1)
	})
	if len(seen) != n {
		t.Fatalf("onDone covered %d jobs, want %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("job %d onDone fired %d times", i, c)
		}
	}
}
