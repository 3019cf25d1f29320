package lint_test

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func testdata(t *testing.T, rule string) string {
	t.Helper()
	return filepath.Join("testdata", "src", rule)
}

func TestDeterminism(t *testing.T) {
	linttest.Run(t, testdata(t, "determinism"), "repro/internal/network", lint.DeterminismAnalyzer)
}

func TestMapRange(t *testing.T) {
	linttest.Run(t, testdata(t, "maprange"), "repro/internal/router", lint.MapRangeAnalyzer)
}

func TestRNGStream(t *testing.T) {
	linttest.Run(t, testdata(t, "rngstream"), "repro/internal/traffic", lint.RNGStreamAnalyzer)
}

func TestWheelDiscipline(t *testing.T) {
	linttest.Run(t, testdata(t, "wheeldiscipline"), "repro/internal/router", lint.WheelDisciplineAnalyzer)
}

func TestJSONTags(t *testing.T) {
	linttest.Run(t, testdata(t, "jsontags"), "repro/internal/report", lint.JSONTagsAnalyzer)
}

func TestShardBarrier(t *testing.T) {
	linttest.Run(t, testdata(t, "shardbarrier"), "repro/internal/network", lint.ShardBarrierAnalyzer)
}

func TestSnapshotComplete(t *testing.T) {
	linttest.Run(t, testdata(t, "snapshotcomplete"), "repro/internal/network", lint.SnapshotCompleteAnalyzer)
}

// TestDSESimCore: the design-space exploration package is sim-core — a
// deterministic function of (study seed, space) — so the determinism,
// maprange, and rngstream rules all apply to it.
func TestDSESimCore(t *testing.T) {
	linttest.Run(t, testdata(t, "dse"), "repro/internal/dse",
		lint.DeterminismAnalyzer, lint.MapRangeAnalyzer, lint.RNGStreamAnalyzer)
}

// TestShardRunGoAllowlist: internal/shardrun may start goroutines (the
// sharded core's sanctioned concurrency substrate), but the rest of the
// determinism rule — clocks, env, global rand — still applies there.
func TestShardRunGoAllowlist(t *testing.T) {
	linttest.Run(t, testdata(t, "shardrungo"), "repro/internal/shardrun", lint.DeterminismAnalyzer)
}

// TestAllowSuppressesExactlyOne runs the determinism analyzer over a package
// where an annotated violation sits directly above an identical unannotated
// one: the annotation must cover the first and only the first.
func TestAllowSuppressesExactlyOne(t *testing.T) {
	linttest.Run(t, testdata(t, "allowtest"), "repro/internal/policy", lint.DeterminismAnalyzer)
}

// TestMalformedAllows checks the annotations linttest cannot express inline
// (a trailing // want comment would be parsed as the reason): an allow with
// no reason and an allow with no rule are both findings, and neither
// suppresses the violation it sits above.
func TestMalformedAllows(t *testing.T) {
	pkg, err := lint.LoadDir(testdata(t, "allowbare"), "repro/internal/policy")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.DeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range diags {
		got = append(got, d.Rule+": "+d.Message)
	}
	wants := []string{
		"allowcheck: optolint:allow determinism needs a reason",
		"allowcheck: optolint:allow needs a rule name and a reason",
		"determinism: time.Now",
		"determinism: time.Now",
	}
	for _, w := range wants {
		found := false
		for i, g := range got {
			if strings.Contains(g, w) {
				got = append(got[:i], got[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing diagnostic containing %q", w)
		}
	}
	for _, g := range got {
		t.Errorf("unexpected diagnostic: %s", g)
	}
}

// TestMalformedDerived: a bare //optolint:derived (no reason) is a finding
// whenever snapshotcomplete is in the suite.
func TestMalformedDerived(t *testing.T) {
	pkg, err := lint.LoadDir(testdata(t, "derivedbare"), "repro/internal/network")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.SnapshotCompleteAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if diags[0].Rule != lint.AllowRule || !strings.Contains(diags[0].Message, "optolint:derived needs a reason") {
		t.Errorf("unexpected diagnostic: %s", diags[0])
	}
}

// TestDerivedHygieneGated: the same package under a suite without
// snapshotcomplete reports nothing — a partial suite must not flag
// annotations it never evaluated.
func TestDerivedHygieneGated(t *testing.T) {
	pkg, err := lint.LoadDir(testdata(t, "derivedbare"), "repro/internal/network")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.DeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic from gated-off hygiene: %s", d)
	}
}

// TestSimCoreGate: the same violations produce nothing outside sim-core.
func TestSimCoreGate(t *testing.T) {
	pkg, err := lint.LoadDir(testdata(t, "determinism"), "repro/cmd/experiment")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic outside sim-core: %s", d)
	}
}

// TestLoadDirsBuildTags: the default build must not see the simdebug half
// of a tag-split package, and the simdebug build must.
func TestLoadDirsBuildTags(t *testing.T) {
	spec := lint.DirSpec{Dir: testdata(t, "tagged"), Path: "repro/internal/network"}
	run := func(tags []string) []lint.Diagnostic {
		t.Helper()
		pkgs, err := lint.LoadDirs(tags, spec)
		if err != nil {
			t.Fatal(err)
		}
		diags, err := lint.Run(pkgs, []*lint.Analyzer{lint.DeterminismAnalyzer})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	if diags := run(nil); len(diags) != 0 {
		t.Errorf("default build sees tagged file: %v", diags)
	}
	diags := run([]string{"simdebug"})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "time.Now") {
		t.Errorf("simdebug build: got %v, want one time.Now finding", diags)
	}
}

// TestGeneratedFilesExcluded: identical violations in a generated and a
// hand-written file; only the hand-written one survives.
func TestGeneratedFilesExcluded(t *testing.T) {
	pkg, err := lint.LoadDir(testdata(t, "generated"), "repro/internal/network")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.DeterminismAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	if base := filepath.Base(diags[0].Pos.Filename); base != "live.go" {
		t.Errorf("finding in %s, want live.go", base)
	}
}

// TestSnapshotCompleteNoSnapshotFile: packages without a snapshot.go are
// out of the rule's scope entirely.
func TestSnapshotCompleteNoSnapshotFile(t *testing.T) {
	pkg, err := lint.LoadDir(testdata(t, "determinism"), "repro/internal/network")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, []*lint.Analyzer{lint.SnapshotCompleteAnalyzer})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("diagnostic without a snapshot.go: %s", d)
	}
}

// TestSuiteCleanOnRepo is the self-test CI relies on indirectly: the full
// analyzer suite over the real module must be finding-free. It exercises the
// go list loader end to end.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}

// TestSuiteCleanOnRepoSimdebug is the same self-test under the assertion
// build: debug-only sources must satisfy the suite too.
func TestSuiteCleanOnRepoSimdebug(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, err := lint.LoadTags("../..", []string{"simdebug"})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run(pkgs, lint.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("finding: %s", d)
	}
}

// TestLoadSubsetSharesOneCheck: a matched package reached both directly and
// through an unmatched one (network imports sim, and router, which imports
// sim too) must see a single sim, so the subset type-checks; the unmatched
// router is checked but not returned.
func TestLoadSubsetSharesOneCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks part of the module")
	}
	pkgs, err := lint.Load("../..", "./internal/network", "./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.Path)
	}
	if want := []string{"repro/internal/sim", "repro/internal/network"}; !slices.Equal(got, want) {
		t.Fatalf("loaded %v, want %v", got, want)
	}
}
