package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildOnce builds the optorun binary once per test process; the harness
// needs a real executable because crash recovery is only meaningful across
// process boundaries.
var buildOnce = struct {
	sync.Once
	bin string
	err error
}{}

func optorunBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "optorun-harness")
		if err != nil {
			buildOnce.err = err
			return
		}
		bin := filepath.Join(dir, "optorun")
		out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
		if err != nil {
			buildOnce.err = fmt.Errorf("building optorun: %v\n%s", err, out)
			return
		}
		buildOnce.bin = bin
	})
	if buildOnce.err != nil {
		t.Fatal(buildOnce.err)
	}
	return buildOnce.bin
}

// harnessScenario is a small faulty run: a 4x4 mesh with constant
// corruption, relock failures, a hard link-failure window, and recovery
// enabled, so the checkpoints the crash lands between hold live replay
// buffers and a degraded topology.
func harnessScenario(t *testing.T, dir string, shards int) string {
	t.Helper()
	sc := fmt.Sprintf(`{
  "system": {"meshW": 4, "meshH": 4, "nodesPerRack": 2, "shards": %d, "seed": 3},
  "workload": {"type": "uniform", "rate": 0.3, "packetFlits": 5},
  "fault": {"berFloor": 2e-4, "relockFailProb": 0.3,
            "linkFailures": [{"link": 3, "at": 3000, "repairAt": 8000}],
            "recovery": true},
  "run": {"warmup": 2000, "measure": 20000}
}`, shards)
	path := filepath.Join(dir, fmt.Sprintf("faulty-shards%d.json", shards))
	if err := os.WriteFile(path, []byte(sc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runSupervisor(t *testing.T, bin, outDir string, env []string, scenarios ...string) (string, error) {
	t.Helper()
	args := append([]string{"-supervise", "-out-dir", outDir, "-checkpoint-every", "5000"}, scenarios...)
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// assertNoManifest checks the output directory holds only per-scenario
// files: the summaries are the record of what finished.
func assertNoManifest(t *testing.T, outDir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(outDir, "manifest.json")); !os.IsNotExist(err) {
		t.Errorf("out dir holds a manifest.json: %v", err)
	}
}

// TestSupervisorSurvivesSIGKILL is the crash-recovery acceptance harness:
// a worker is SIGKILLed mid-run between checkpoints (via the kill-token
// hook, which dies exactly like an external `kill -9`), the supervisor
// detects the signal, retries, and the resumed run's summary is
// byte-identical to a clean uninterrupted pass — across shard counts, with
// fault injection and recovery active.
func TestSupervisorSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := optorunBin(t)
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			sc := harnessScenario(t, dir, shards)

			cleanDir := filepath.Join(dir, "clean")
			if out, err := runSupervisor(t, bin, cleanDir, nil, sc); err != nil {
				t.Fatalf("clean pass: %v\n%s", err, out)
			}
			cleanSum, err := os.ReadFile(filepath.Join(cleanDir, "000-faulty-shards"+fmt.Sprint(shards)+".summary.json"))
			if err != nil {
				t.Fatal(err)
			}

			// Arm the kill token: the worker SIGKILLs itself right after
			// writing its second checkpoint (cycle 5000 of 22000, inside
			// the measured window; the first is the warm-up end at 2000).
			token := filepath.Join(dir, "kill.token")
			if err := os.WriteFile(token, []byte("2"), 0o644); err != nil {
				t.Fatal(err)
			}
			killDir := filepath.Join(dir, "killed")
			out, err := runSupervisor(t, bin, killDir, []string{killTokenEnv + "=" + token}, sc)
			if err != nil {
				t.Fatalf("killed pass did not recover: %v\n%s", err, out)
			}
			if !strings.Contains(out, "killed") {
				t.Fatalf("supervisor output does not report the kill:\n%s", out)
			}
			if _, err := os.Stat(token); !os.IsNotExist(err) {
				t.Fatalf("kill token not consumed: %v", err)
			}

			if !strings.Contains(out, "done (2 attempt(s))") {
				t.Errorf("supervisor output does not report one retry:\n%s", out)
			}
			assertNoManifest(t, killDir)
			// The worker log keeps the record of the survived crash.
			key := "000-faulty-shards" + fmt.Sprint(shards)
			if log, err := os.ReadFile(filepath.Join(killDir, key+".log")); err != nil || !strings.Contains(string(log), "fleet: worker killed by killed") {
				t.Errorf("worker log does not record the crash (err %v):\n%s", err, log)
			}

			killedSum, err := os.ReadFile(filepath.Join(killDir, key+".summary.json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(killedSum, cleanSum) {
				t.Errorf("resumed summary diverges from clean pass:\n--- clean\n%s\n--- resumed\n%s", cleanSum, killedSum)
			}
		})
	}
}

// TestSuperviseValidatesUpfront: a malformed scenario anywhere in the
// matrix fails the whole supervise call before any worker subprocess
// spawns — no summaries, no checkpoint directories, no worker logs — so a
// typo surfaces in seconds instead of from inside a crashed worker.
func TestSuperviseValidatesUpfront(t *testing.T) {
	dir := t.TempDir()
	good := harnessScenario(t, dir, 1)
	bad := filepath.Join(dir, "bad.json")
	// Parses fine; fails semantic validation (unknown routing).
	if err := os.WriteFile(bad, []byte(`{"system": {"routing": "zigzag"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(dir, "out")

	err := supervise(superConfig{OutDir: outDir, CkptEvery: 5000, Retries: 1}, []string{good, bad})
	if err == nil || !strings.Contains(err.Error(), "zigzag") {
		t.Fatalf("supervise accepted a malformed matrix: %v", err)
	}
	if !strings.Contains(err.Error(), bad) {
		t.Errorf("error does not name the offending file: %v", err)
	}
	// Validation must precede all side effects, including the good
	// scenario's worker: the output directory was never even created.
	if _, statErr := os.Stat(outDir); !os.IsNotExist(statErr) {
		t.Errorf("out dir exists despite failed validation: %v", statErr)
	}
}

// TestSupervisorResumesMatrix checks summary-file resumption: an
// interrupted matrix picks up only the unfinished scenarios, and rerunning
// a finished matrix starts no worker at all.
func TestSupervisorResumesMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := optorunBin(t)
	dir := t.TempDir()
	sc1 := harnessScenario(t, dir, 1)
	sc4 := harnessScenario(t, dir, 4)
	outDir := filepath.Join(dir, "out")

	// First pass runs only the first scenario (simulating an operator
	// interrupted before queueing the rest).
	if out, err := runSupervisor(t, bin, outDir, nil, sc1); err != nil {
		t.Fatalf("first pass: %v\n%s", err, out)
	}
	// Second pass with the full matrix: scenario 1 must be skipped.
	out, err := runSupervisor(t, bin, outDir, nil, sc1, sc4)
	if err != nil {
		t.Fatalf("resume pass: %v\n%s", err, out)
	}
	if strings.Count(out, "already done, skipping") != 1 || strings.Count(out, "done (1 attempt(s))") != 1 {
		t.Errorf("resume pass did not skip scenario 1 and run scenario 4 once:\n%s", out)
	}
	assertNoManifest(t, outDir)

	// Third pass over the finished matrix: both skipped, no worker started,
	// so no worker log grows and no summary is rewritten.
	before := snapshotDir(t, outDir)
	out, err = runSupervisor(t, bin, outDir, nil, sc1, sc4)
	if err != nil {
		t.Fatalf("rerun of a finished matrix: %v\n%s", err, out)
	}
	if strings.Count(out, "already done, skipping") != 2 || strings.Contains(out, "attempt") {
		t.Errorf("rerun of a finished matrix ran a worker:\n%s", out)
	}
	if after := snapshotDir(t, outDir); after != before {
		t.Errorf("rerun of a finished matrix changed its output directory:\n--- before\n%s--- after\n%s", before, after)
	}
}

// snapshotDir lists every regular file under dir with its size and
// modification time.
func snapshotDir(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		fmt.Fprintf(&b, "%s %d %d\n", path, info.Size(), info.ModTime().UnixNano())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return b.String()
}
