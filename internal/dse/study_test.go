package dse

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

func loadSmokeSpace(t testing.TB) *Space {
	t.Helper()
	sp, err := LoadFile(filepath.Join("testdata", "smoke-space.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestObjectivesOf(t *testing.T) {
	// Packet-only summary (no flit counter): falls back to packet units.
	o := ObjectivesOf(report.Summary{MeanLatency: 30, EnergyJ: 0.5, Delivered: 90, Dropped: 10})
	if o.MeanLatencyCycles != 30 || o.EnergyJ != 0.5 || o.LossFrac != 0.1 {
		t.Errorf("objectives = %+v", o)
	}
	// Flit-denominated summary with uniform packets: identical fraction.
	o = ObjectivesOf(report.Summary{Delivered: 90, Dropped: 10, DeliveredFlits: 450})
	if math.Abs(o.LossFrac-0.1) > 1e-12 {
		t.Errorf("uniform-packet flit loss = %g, want 0.1", o.LossFrac)
	}
	// Wire-level losses fold in: 50 CRC drops + 50 lost-to-down over 900
	// delivered flits is 100/1000.
	o = ObjectivesOf(report.Summary{Delivered: 180, DeliveredFlits: 900,
		Reliability: &stats.Reliability{CrcDrops: 50, LostToDown: 50}})
	if math.Abs(o.LossFrac-0.1) > 1e-12 {
		t.Errorf("wire loss = %g, want 0.1", o.LossFrac)
	}
	if z := ObjectivesOf(report.Summary{}); z.LossFrac != 0 {
		t.Errorf("zero-traffic loss = %g, want 0", z.LossFrac)
	}
}

// TestStudySmokeGolden is the CI determinism anchor: the 8-trial grid
// study over testdata/smoke-space.json must produce byte-identical
// frontier JSON on every run, machine, and worker topology. The same
// golden is diffed by the dse-smoke CI job against the real optodse
// binary's subprocess fleet.
func TestStudySmokeGolden(t *testing.T) {
	sp := loadSmokeSpace(t)
	dir := t.TempDir()
	st, err := Open(sp, "grid", Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := st.Run(Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if st.Fresh() != 8 || st.Cached() != 0 {
		t.Fatalf("fresh=%d cached=%d, want 8 fresh", st.Fresh(), st.Cached())
	}
	if fr.Trials != 8 || len(fr.Points) == 0 {
		t.Fatalf("frontier %+v, want 8 trials and a non-empty front", fr)
	}
	got, err := os.ReadFile(filepath.Join(dir, "frontier.json"))
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "smoke-frontier.json")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to record the golden)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("frontier diverges from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}
	// The scatter plots must exist and be stable too.
	for _, f := range []string{"frontier-latency-energy.svg", "frontier-latency-loss.svg"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing plot %s: %v", f, err)
		}
	}
}

// TestStudyResumeSkipsCompleted: a study interrupted mid-generation (the
// evaluator dies after 3 trials) resumes from its log — the 3 completed
// trials are never re-evaluated, and the finished frontier is byte-
// identical to the golden an uninterrupted run produces.
func TestStudyResumeSkipsCompleted(t *testing.T) {
	sp := loadSmokeSpace(t)
	dir := t.TempDir()
	st, err := Open(sp, "grid", Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	recorded := 0
	_, err = st.Run(func(pending []Pending, record RecordFunc) {
		for i := range pending {
			if recorded >= 3 {
				return // simulate the process dying mid-generation
			}
			sum, evalErr := ExecuteTrial(&pending[i])
			record(pending[i].ID, sum, evalErr)
			recorded++
		}
	})
	if err == nil || !strings.Contains(err.Error(), "never recorded") {
		t.Fatalf("interrupted run error = %v", err)
	}

	executed := 0
	st2, err := Open(sp, "grid", Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := st2.Run(func(pending []Pending, record RecordFunc) {
		executed += len(pending)
		Sequential(pending, record)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cached() != 3 || st2.Fresh() != 5 || executed != 5 {
		t.Fatalf("resume cached=%d fresh=%d executed=%d, want 3/5/5", st2.Cached(), st2.Fresh(), executed)
	}
	got, err := fr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "smoke-frontier.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("resumed frontier diverges from golden:\n--- got\n%s\n--- want\n%s", got, want)
	}

	// A third run over the finished study evaluates nothing at all.
	st3, err := Open(sp, "grid", Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st3.Run(func(pending []Pending, record RecordFunc) {
		t.Errorf("finished study re-evaluated %d trials", len(pending))
	}); err != nil {
		t.Fatal(err)
	}
	if st3.Cached() != 8 || st3.Fresh() != 0 {
		t.Errorf("finished study cached=%d fresh=%d, want 8/0", st3.Cached(), st3.Fresh())
	}
}

// TestStudyRejectsForeignLog: a study directory cannot be silently reused
// for different inputs — a changed space or sampler fails at Open.
func TestStudyRejectsForeignLog(t *testing.T) {
	sp := loadSmokeSpace(t)
	dir := t.TempDir()
	st, err := Open(sp, "grid", Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(Sequential); err != nil {
		t.Fatal(err)
	}
	other := loadSmokeSpace(t)
	other.Seed++
	if _, err := Open(other, "grid", Options{}, dir); err == nil || !strings.Contains(err.Error(), "different study") {
		t.Errorf("foreign space accepted: %v", err)
	}
	if _, err := Open(sp, "random", Options{}, dir); err == nil || !strings.Contains(err.Error(), "different study") {
		t.Errorf("foreign sampler accepted: %v", err)
	}
}

// smokeLogLines runs the smoke study and returns its log split into lines
// that keep their newlines: the header, then trials 0 to 7 in ID order.
func smokeLogLines(t testing.TB) [][]byte {
	t.Helper()
	dir := t.TempDir()
	st, err := Open(loadSmokeSpace(t), "grid", Options{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Run(Sequential); err != nil {
		t.Fatal(err)
	}
	log, err := os.ReadFile(filepath.Join(dir, "trials.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(log, []byte("\n"))
	lines = lines[:len(lines)-1] // the empty split after the final newline
	if len(lines) != 9 {
		t.Fatalf("smoke log has %d lines, want a header and 8 trials:\n%s", len(lines), log)
	}
	return lines
}

// flipID flips the low bit of the first digit of a trial line's ID: the
// line still parses, but its checksum no longer matches.
func flipID(line []byte) []byte {
	out := bytes.Clone(line)
	out[bytes.Index(out, []byte(`"id":`))+len(`"id":`)] ^= 1
	return out
}

// TestStudyLogTornTail is a kill between append and fsync: the log holds
// the header, two trials and a torn third line. Open cuts the torn line,
// the resume evaluates its trial again, and the finished log and frontier
// match an uninterrupted run's byte for byte.
func TestStudyLogTornTail(t *testing.T) {
	sp := loadSmokeSpace(t)
	lines := smokeLogLines(t)
	clean := bytes.Join(lines, nil)
	kept := bytes.Join(lines[:3], nil)
	third := lines[3]
	golden, err := os.ReadFile(filepath.Join("testdata", "smoke-frontier.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"prefix", third[:len(third)/2]},
		{"no-newline", third[:len(third)-1]},
		{"bad-checksum", flipID(third)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "trials.jsonl")
			if err := os.WriteFile(path, append(bytes.Clone(kept), tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(sp, "grid", Options{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, kept) {
				t.Fatalf("Open left\n%s\nwant the header and 2 trials", got)
			}
			st.OnTrialDone = func(fresh int) {
				// Each fresh trial is in the log before OnTrialDone fires.
				got, _ := os.ReadFile(path)
				if n := bytes.Count(got, []byte("\n")); n != 3+fresh {
					t.Errorf("after %d fresh trials the log has %d lines, want %d", fresh, n, 3+fresh)
				}
			}
			if _, err := st.Run(Sequential); err != nil {
				t.Fatal(err)
			}
			if st.Cached() != 2 || st.Fresh() != 6 {
				t.Errorf("resume cached=%d fresh=%d, want 2/6", st.Cached(), st.Fresh())
			}
			if got, _ := os.ReadFile(filepath.Join(dir, "frontier.json")); !bytes.Equal(got, golden) {
				t.Errorf("resumed frontier diverges from golden:\n%s", got)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
				t.Errorf("resumed log differs from an uninterrupted run's:\n%s", got)
			}
		})
	}
}

// TestStudyLogRejects: a log the append path cannot produce fails Open,
// which leaves the file's bytes as they were. Only the last line may be
// torn, a trial is logged once, the header comes first, and a log without
// checksums is refused rather than half-read.
func TestStudyLogRejects(t *testing.T) {
	sp := loadSmokeSpace(t)
	lines := smokeLogLines(t)
	header, t0, t1, t2 := lines[0], lines[1], lines[2], lines[3]
	var unchecksummed [][]byte
	for _, line := range lines {
		var ln journalLine
		if err := json.Unmarshal(line, &ln); err != nil {
			t.Fatal(err)
		}
		unchecksummed = append(unchecksummed, append(ln.Record, '\n'))
	}
	for _, tc := range []struct {
		name string
		log  [][]byte
		want string
	}{
		{"bad line before a good one", [][]byte{header, t0, flipID(t1), t2}, "corrupt at line 3: checksum"},
		{"duplicate trial", [][]byte{header, t0, t1, t1}, "trial 1 twice"},
		{"second header", [][]byte{header, t0, header, t1}, "must be the first record"},
		{"trial before header", [][]byte{t0, header}, "no study header"},
		{"no checksums", unchecksummed, "without checksums"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "trials.jsonl")
			log := bytes.Join(tc.log, nil)
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(sp, "grid", Options{}, dir); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open error = %v, want one containing %q", err, tc.want)
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, log) {
				t.Errorf("failed Open changed the log")
			}
		})
	}
}

// FuzzStudyLog opens arbitrary bytes as a study log. Open must not panic
// and must leave the file untouched when it fails; when it succeeds, the
// file is a prefix of the input ending at a line boundary, every line of
// it after the header is a loaded trial, and the trial IDs are unique.
func FuzzStudyLog(f *testing.F) {
	sp := loadSmokeSpace(f)
	lines := smokeLogLines(f)
	f.Add(bytes.Join(lines, nil))
	f.Add(append(bytes.Join(lines[:3], nil), lines[3][:40]...))
	f.Add(bytes.Join([][]byte{lines[0], lines[1], flipID(lines[2]), lines[3]}, nil))
	f.Add(bytes.Join([][]byte{lines[0], lines[1], lines[1]}, nil))
	f.Add([]byte("{\"study\":{}}\n"))
	f.Add([]byte{})
	// One directory serves every input: a worker runs them one at a time,
	// and a fresh directory per input would cost more than Open itself.
	dir := f.TempDir()
	path := filepath.Join(dir, "trials.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(sp, "grid", Options{}, dir)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("failed Open (%v) changed the log", err)
			}
			return
		}
		if !bytes.HasPrefix(data, got) || (len(got) > 0 && got[len(got)-1] != '\n') {
			t.Fatalf("Open left %q, not a prefix of the input ending at a line boundary", got)
		}
		trials := st.Trials()
		if n := bytes.Count(got, []byte("\n")); n > 0 && len(trials) != n-1 {
			t.Fatalf("log keeps %d lines but %d trials loaded", n, len(trials))
		}
		for i := 1; i < len(trials); i++ {
			if trials[i].ID <= trials[i-1].ID {
				t.Fatalf("trial IDs not unique: %d after %d", trials[i].ID, trials[i-1].ID)
			}
		}
	})
}

// TestStudyTable1Region is the paper-validation study: a grid over the
// Section 4 exploration space (history-window threshold × window length)
// under congested uniform load must rediscover the Table 1 threshold
// region — the avg_threshold 0.5 configuration, whose ThresholdsAround
// expansion is exactly Table 1's TH=0.6 uncongested / TH=0.7 congested
// rows — as Pareto-optimal.
func TestStudyTable1Region(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 10-trial study")
	}
	var base scenario.Scenario
	base.System.MeshW, base.System.MeshH, base.System.NodesPerRack = 4, 4, 2
	base.System.Seed = 5
	base.Workload.Type = "uniform"
	base.Workload.Rate = 1.2 // congested: the regime where thresholds matter
	base.Run.Warmup = 1000
	base.Run.Measure = 8000
	sp := &Space{Base: base, Seed: 1, Dims: []Dim{
		{Name: "avg_threshold", Min: 0.3, Max: 0.7, Step: 0.1},
		{Name: "window", Min: 500, Max: 1000, Step: 500, Int: true},
	}}
	st, err := Open(sp, "grid", Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := st.Run(Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Trials != 10 {
		t.Fatalf("study evaluated %d trials, want 10", fr.Trials)
	}
	found := false
	for _, p := range fr.Points {
		if p.Params.Values["avg_threshold"] == 0.5 {
			found = true
		}
	}
	if !found {
		t.Errorf("Table 1 region (avg_threshold 0.5) not on the frontier: %+v", fr.Points)
	}
	if len(fr.Points) == len(st.Trials()) {
		t.Logf("note: every trial is non-dominated (front size %d)", len(fr.Points))
	}
}

// TestStudyRulesBeatDefaults is the second validation study: under
// sustained BER stress, a grid over the loss-aware rule engine's knobs
// must find a configuration that beats PR 8's hand-tuned defaults on the
// delivered-loss axis — the point of automating the search.
func TestStudyRulesBeatDefaults(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 8-trial study")
	}
	var base scenario.Scenario
	base.System.MeshW, base.System.MeshH, base.System.NodesPerRack = 4, 4, 2
	base.System.Seed = 5
	base.Workload.Type = "uniform"
	base.Workload.Rate = 2.5
	base.Workload.PacketFlits = 5
	// PR 8's sustained-ber stress case: the eroded optical margin makes the
	// margin-derived BER rate-dependent (higher levels visibly lossier), so
	// a policy that derates on measured loss genuinely reduces the flit
	// corruption the links must replay — the loss the rule engine exists to
	// contain. (A BER floor would be level-independent and every schedule
	// would corrupt identically.)
	base.Fault.BERScale = 1e9
	base.Fault.ExtraPathLossDB = 23
	base.Policy.Kind = "rules"
	base.Run.Warmup = 1000
	base.Run.Measure = 20000
	sp := &Space{Base: base, Seed: 1, Dims: []Dim{
		// Each dim includes the hand default (0.05, 4000, 3), so the
		// default configuration is one of the grid's trials.
		{Name: "loss_high", Min: 0.02, Max: 0.05, Step: 0.03},
		{Name: "hold_cycles", Min: 4000, Max: 20000, Step: 16000, Int: true},
		{Name: "recover_windows", Min: 3, Max: 10, Step: 7, Int: true},
	}}
	st, err := Open(sp, "grid", Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	fr, err := st.Run(Sequential)
	if err != nil {
		t.Fatal(err)
	}
	var defaultLoss, minLoss float64
	minLoss = 2 // above any possible fraction
	foundDefault := false
	for _, tr := range st.Trials() {
		if tr.Objectives == nil {
			t.Fatalf("trial %d failed: %s", tr.ID, tr.Error)
		}
		v := tr.Params.Values
		if v["loss_high"] == 0.05 && v["hold_cycles"] == 4000 && v["recover_windows"] == 3 {
			foundDefault = true
			defaultLoss = tr.Objectives.LossFrac
		}
	}
	for _, p := range fr.Points {
		if p.Objectives.LossFrac < minLoss {
			minLoss = p.Objectives.LossFrac
		}
	}
	if !foundDefault {
		t.Fatal("grid does not include the hand-default configuration")
	}
	if !(minLoss < defaultLoss) {
		t.Errorf("search did not beat the hand defaults on loss: frontier min %g vs default %g",
			minLoss, defaultLoss)
	}
}
