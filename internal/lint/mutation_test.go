package lint_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// TestMutations proves each completeness analyzer actually fires — a suite
// that is "clean over the repo" is only evidence if a representative
// regression wakes it. Every case copies a clean fixture package into a
// temp dir, applies one textual mutation (the regression each rule exists
// to catch), and asserts the rule reports on the mutant while staying
// silent on the original.
func TestMutations(t *testing.T) {
	cases := []struct {
		name     string
		dir      string // under testdata/mutation
		file     string
		old, new string
		analyzer *lint.Analyzer
		wantRe   string
	}{
		{
			// A state field dropped from the export path: the checkpoint
			// would silently resume it stale.
			name:     "snapshotcomplete-dropped-export-field",
			dir:      "snapshot",
			file:     "snapshot.go",
			old:      "Acc:    e.acc,",
			new:      "",
			analyzer: lint.SnapshotCompleteAnalyzer,
			wantRe:   `mutable field engine\.acc .* missing from the export path`,
		},
		{
			// A state record dropped from the export path: the record's
			// fields are only ever written through it.
			name:     "snapshotcomplete-dropped-export-record",
			dir:      "record",
			file:     "snapshot.go",
			old:      "return e.st",
			new:      "return EngineState{}",
			analyzer: lint.SnapshotCompleteAnalyzer,
			wantRe:   `mutable field engine\.st .* missing from the export path`,
		},
		{
			// A per-shard counter dropped from the merge-on-read loop:
			// readers would see shard-0-only numbers.
			name:     "mergecomplete-unmerged-counter",
			dir:      "merge",
			file:     "merge.go",
			old:      "total += s.delivered",
			new:      "_ = s",
			analyzer: lint.MergeCompleteAnalyzer,
			wantRe:   `per-shard counter shard\.delivered is never read`,
		},
		{
			// A shard-local write turned into a direct coordinator write:
			// a data race at K>1 and partition-dependent either way.
			name:     "shardbarrier-unstaged-cross-shard-write",
			dir:      "shardbar",
			file:     "shard.go",
			old:      "s.local++",
			new:      "s.eng.total++",
			analyzer: lint.ShardBarrierAnalyzer,
			wantRe:   `write to engine state from shard scope`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := filepath.Join("testdata", "mutation", tc.dir)
			run := func(dir string) []lint.Diagnostic {
				t.Helper()
				pkg, err := lint.LoadDir(dir, "repro/internal/network")
				if err != nil {
					t.Fatalf("loading %s: %v", dir, err)
				}
				diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{tc.analyzer})
				if err != nil {
					t.Fatalf("running %s: %v", tc.analyzer.Name, err)
				}
				return diags
			}

			if diags := run(src); len(diags) != 0 {
				t.Fatalf("fixture %s is not clean before mutation: %v", tc.dir, diags)
			}

			tmp := t.TempDir()
			ents, err := os.ReadDir(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				data, err := os.ReadFile(filepath.Join(src, e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == tc.file {
					if !strings.Contains(string(data), tc.old) {
						t.Fatalf("mutation target %q not found in %s", tc.old, tc.file)
					}
					data = []byte(strings.Replace(string(data), tc.old, tc.new, 1))
				}
				if err := os.WriteFile(filepath.Join(tmp, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			re := regexp.MustCompile(tc.wantRe)
			for _, d := range run(tmp) {
				if d.Rule == tc.analyzer.Name && re.MatchString(d.Message) {
					return
				}
			}
			t.Errorf("mutation %s did not wake %s (want message matching %q)", tc.name, tc.analyzer.Name, tc.wantRe)
		})
	}
}
