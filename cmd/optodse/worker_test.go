package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTrialSummarySchemaDrift: a worker summary carrying a key the reader
// does not know becomes that trial's error, naming the trial and the key,
// instead of decoding with the counter silently dropped. A summary in the
// current schema reads back.
func TestTrialSummarySchemaDrift(t *testing.T) {
	dir := t.TempDir()
	write := func(name, js string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.summary.json", `{"experiment": "trial-0005", "seed": 9, "delivered": 1200}`)
	if sum, err := readTrialSummary(good, 5); err != nil || sum.Experiment != "trial-0005" || sum.Delivered != 1200 {
		t.Fatalf("current-schema summary: got %+v, %v", sum, err)
	}

	bad := write("bad.summary.json", `{"experiment": "trial-0005", "seed": 9, "delivered": 1200, "replayed_flits": 7}`)
	sum, err := readTrialSummary(bad, 5)
	if err == nil {
		t.Fatalf("summary with an unknown key accepted: %+v", sum)
	}
	for _, s := range []string{"trial 5", "replayed_flits"} {
		if !strings.Contains(err.Error(), s) {
			t.Errorf("error %q does not name %q", err, s)
		}
	}
	if sum.Experiment != "" || sum.Delivered != 0 {
		t.Errorf("failed read returned a partial summary: %+v", sum)
	}
}
