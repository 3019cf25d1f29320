// Package lint is optolint's analysis framework: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (Analyzer,
// Pass, Reportf) plus the //optolint:allow suppression mechanism, driven by
// a loader built on go/parser, go/types and the standard library's source
// importer.
//
// The simulator's two load-bearing invariants — bit-exact determinism and
// wheel discipline (every future state change is a sim.Wheel event, so
// event-driven fast-forward stays legal) — are enforced by the analyzers in
// this package:
//
//	determinism       no wall clocks, global math/rand, environment reads, or
//	                  goroutines inside sim-core packages
//	maprange          no ranging over maps in sim-core unless the body is
//	                  provably order-insensitive
//	rngstream         all randomness flows through the seeded split-stream
//	                  constructors (sim.NewStream), never ad-hoc rand.New
//	wheeldiscipline   future-cycle deadline writes must pair with a wheel
//	                  Schedule in the same function
//	jsontags          JSON-serialized structs in report/stats/telemetry use
//	                  snake_case tags with no untagged exported fields
//	snapshotcomplete  every mutable field of a checkpointed struct is written
//	                  by ExportState and read by RestoreState, or carries an
//	                  //optolint:derived annotation naming why it is
//	                  recomputed instead
//	shardbarrier      shard-scope code never writes coordinator state or
//	                  schedules through the coordinator wheel directly — all
//	                  cross-shard effects go through staged mailboxes, and
//	                  draining a mailbox requires a sort first
//
// (That every per-shard counter is merged is a type property, not a code
// pattern: internal/network's TestShardCountersLiveInRecord requires the
// shard struct to keep its counters and histograms in its Counters record,
// which totals merges and a checkpoint saves merged.)
//
// A finding is suppressed by an annotation on the same line or the line
// directly above:
//
//	//optolint:allow <rule> <reason>
//
// The reason is mandatory, and an annotation that suppresses nothing is
// itself reported — stale escape hatches do not accumulate. The same
// hygiene applies to //optolint:derived: an annotation on a field that no
// longer needs one (or one missing its reason) is a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring the x/tools analysis API so
// the suite can migrate to go vet -vettool unchanged if the dependency ever
// becomes available.
type Analyzer struct {
	// Name identifies the rule in diagnostics and allow annotations.
	Name string
	// Doc is a one-paragraph description of what the rule enforces and why.
	Doc string
	// Run reports findings on pass via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path. The sim-core analyzers gate on it;
	// tests impersonate a sim-core package by loading testdata under one of
	// those paths.
	Path      string
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report  func(d Diagnostic)
	derived map[annKey][]*derived
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// DerivedOK reports whether the declaration at pos carries a well-formed
// //optolint:derived annotation on its line or the line directly above,
// consuming it. Consumed annotations are exempt from the staleness check.
func (p *Pass) DerivedOK(pos token.Pos) bool {
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range p.derived[annKey{position.Filename, line}] {
			if d.reason != "" {
				d.used = true
				return true
			}
		}
	}
	return false
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// AllowRule is the pseudo-rule under which annotation problems (missing
// reason, suppressing nothing, stale derived markers) are reported.
const AllowRule = "allowcheck"

// allowRe parses "//optolint:allow <rule> <reason...>".
var allowRe = regexp.MustCompile(`^//optolint:allow(\s+(\S+))?(\s+(.*))?$`)

// derivedRe parses "//optolint:derived <reason...>".
var derivedRe = regexp.MustCompile(`^//optolint:derived(\s+(.*))?$`)

// allow is one parsed //optolint:allow annotation.
type allow struct {
	pos    token.Position
	rule   string
	reason string
	used   bool
}

// derived is one parsed //optolint:derived annotation: the field it marks
// is rebuilt on restore (a cache, an index, pool linkage) rather than
// serialized, and the reason must say from what.
type derived struct {
	pos    token.Position
	reason string
	used   bool
}

// annKey indexes annotations by (file, line) for same-line / line-above
// suppression lookup.
type annKey struct {
	file string
	line int
}

// collectAllows scans a file's comments for optolint:allow annotations.
func collectAllows(fset *token.FileSet, f *ast.File) []*allow {
	var out []*allow
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//optolint:") {
				continue
			}
			m := allowRe.FindStringSubmatch(strings.TrimRight(c.Text, " \t"))
			if m == nil {
				continue
			}
			out = append(out, &allow{
				pos:    fset.Position(c.Pos()),
				rule:   m[2],
				reason: strings.TrimSpace(m[4]),
			})
		}
	}
	return out
}

// collectDerived scans a file's comments for optolint:derived annotations.
func collectDerived(fset *token.FileSet, f *ast.File) []*derived {
	var out []*derived
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, "//optolint:derived") {
				continue
			}
			m := derivedRe.FindStringSubmatch(strings.TrimRight(c.Text, " \t"))
			if m == nil {
				continue
			}
			out = append(out, &derived{
				pos:    fset.Position(c.Pos()),
				reason: strings.TrimSpace(m[2]),
			})
		}
	}
	return out
}

// Run executes the analyzers over each package and returns the surviving
// diagnostics, sorted by position. Findings
// matched by a well-formed //optolint:allow annotation (same line or the
// line directly above) are suppressed; malformed or unused annotations are
// reported under AllowRule, as are stale //optolint:derived markers when
// snapshotcomplete is in the suite. Diagnostics inside generated files are
// dropped.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var all []Diagnostic
	for _, pkg := range pkgs {
		// Index annotations by (file, line) for suppression lookup.
		allows := make(map[annKey][]*allow)
		var allAllows []*allow
		derivedAnns := make(map[annKey][]*derived)
		var allDerived []*derived
		for _, f := range pkg.Files {
			for _, al := range collectAllows(pkg.Fset, f) {
				k := annKey{al.pos.Filename, al.pos.Line}
				allows[k] = append(allows[k], al)
				allAllows = append(allAllows, al)
			}
			for _, d := range collectDerived(pkg.Fset, f) {
				k := annKey{d.pos.Filename, d.pos.Line}
				derivedAnns[k] = append(derivedAnns[k], d)
				allDerived = append(allDerived, d)
			}
		}

		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Path:      pkg.Path,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				report:    func(d Diagnostic) { raw = append(raw, d) },
				derived:   derivedAnns,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}

		// An annotation is consumed by the first diagnostic it suppresses:
		// one allow, one finding. Two violations need two annotations.
		suppress := func(d Diagnostic) bool {
			for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
				for _, al := range allows[annKey{d.Pos.Filename, line}] {
					if !al.used && al.rule == d.Rule && al.reason != "" {
						al.used = true
						return true
					}
				}
			}
			return false
		}
		for _, d := range raw {
			if pkg.Generated[d.Pos.Filename] {
				continue
			}
			if !suppress(d) {
				all = append(all, d)
			}
		}
		for _, al := range allAllows {
			switch {
			case al.rule == "":
				all = append(all, Diagnostic{Pos: al.pos, Rule: AllowRule,
					Message: "optolint:allow needs a rule name and a reason"})
			case al.reason == "":
				all = append(all, Diagnostic{Pos: al.pos, Rule: AllowRule,
					Message: fmt.Sprintf("optolint:allow %s needs a reason", al.rule)})
			case known[al.rule] && !al.used:
				all = append(all, Diagnostic{Pos: al.pos, Rule: AllowRule,
					Message: fmt.Sprintf("optolint:allow %s suppresses nothing; remove it", al.rule)})
			}
		}
		// Derived-annotation hygiene is only meaningful when the analyzer
		// that consumes them ran — a partial suite must not flag annotations
		// it never evaluated.
		if known["snapshotcomplete"] {
			for _, d := range allDerived {
				switch {
				case d.reason == "":
					all = append(all, Diagnostic{Pos: d.pos, Rule: AllowRule,
						Message: "optolint:derived needs a reason saying what the field is recomputed from"})
				case !d.used:
					all = append(all, Diagnostic{Pos: d.pos, Rule: AllowRule,
						Message: "optolint:derived marks nothing snapshotcomplete checks; remove it"})
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all, nil
}

// Analyzers returns the full optolint suite.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapRangeAnalyzer,
		RNGStreamAnalyzer,
		WheelDisciplineAnalyzer,
		JSONTagsAnalyzer,
		SnapshotCompleteAnalyzer,
		ShardBarrierAnalyzer,
	}
}

// simCorePaths are the packages whose code runs inside the simulated clock:
// everything here must be a deterministic function of (seed, configuration),
// and every future state change must be a sim.Wheel event so event-driven
// fast-forward stays bit-exact. cmd/, examples/ and experiment harnesses are
// deliberately outside: wall clocks and worker goroutines are fine there.
var simCorePaths = map[string]bool{
	"repro/internal/sim":       true,
	"repro/internal/network":   true,
	"repro/internal/router":    true,
	"repro/internal/powerlink": true,
	"repro/internal/policy":    true,
	"repro/internal/fault":     true,
	"repro/internal/traffic":   true,
	"repro/internal/telemetry": true,
	"repro/internal/stats":     true,
	"repro/internal/shardrun":  true,
	"repro/internal/dse":       true,
}

// jsonContractPaths are the packages whose JSON output forms the -json
// summary contract guarded by report.ParseSummary's unknown-field rejection.
var jsonContractPaths = map[string]bool{
	"repro/internal/report":    true,
	"repro/internal/stats":     true,
	"repro/internal/telemetry": true,
}

// isSimCore reports whether the package at path is sim-core.
func isSimCore(path string) bool { return simCorePaths[path] }

// pkgNameOf resolves the package an identifier refers to when it names an
// import (e.g. the "time" in time.Now), or nil.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.PkgName {
	if obj, ok := info.Uses[id].(*types.PkgName); ok {
		return obj
	}
	return nil
}

// selectorFromPkg reports whether sel selects name from a package with one
// of the given import paths, returning the matched path.
func selectorFromPkg(info *types.Info, sel *ast.SelectorExpr, paths ...string) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn := pkgNameOf(info, id)
	if pn == nil {
		return "", false
	}
	p := pn.Imported().Path()
	for _, want := range paths {
		if p == want {
			return p, true
		}
	}
	return "", false
}
