// Package linttest is a miniature analysistest: it runs optolint analyzers
// over a testdata package and checks the diagnostics against expectations
// written as trailing comments in the source:
//
//	x.readyAt = now + 3 // want "wheeldiscipline: .*without a wheel Schedule"
//
// Each quoted string is a regular expression matched against the diagnostic
// rendered as "rule: message" at that file and line. Every expectation must
// be matched by exactly one diagnostic and vice versa; surplus on either
// side fails the test. Because expectations encode the rule name, a test
// asserts not just that something fired but that the right rule did.
package linttest

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe finds the expectation clause; quotedRe extracts its regexps.
var (
	wantRe   = regexp.MustCompile(`//\s*want\s+(.+)$`)
	quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
)

type want struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads dir as a package with import path asPath (so path-gated
// analyzers treat it as sim-core / contract code), runs the analyzers
// through the full pipeline — including //optolint:allow suppression — and
// compares the surviving diagnostics against the // want expectations.
func Run(t *testing.T, dir, asPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	pkg, err := lint.LoadDir(dir, asPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	wants, err := collectWants(dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.Run([]*lint.Package{pkg}, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		rendered := fmt.Sprintf("%s: %s", d.Rule, d.Message)
		base := filepath.Base(d.Pos.Filename)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == base && w.line == d.Pos.Line && w.re.MatchString(rendered) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s:%d: %s", base, d.Pos.Line, rendered)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}

// collectWants scans the non-test .go files of dir for // want comments.
func collectWants(dir string) ([]*want, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("linttest: reading %s: %w", dir, err)
	}
	var wants []*want
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			qs := quotedRe.FindAllStringSubmatch(m[1], -1)
			if len(qs) == 0 {
				f.Close()
				return nil, fmt.Errorf("linttest: %s:%d: want clause without a quoted regexp", name, line)
			}
			for _, q := range qs {
				re, err := regexp.Compile(q[1])
				if err != nil {
					f.Close()
					return nil, fmt.Errorf("linttest: %s:%d: bad want regexp %q: %v", name, line, q[1], err)
				}
				wants = append(wants, &want{file: name, line: line, re: re, raw: q[1]})
			}
		}
		if err := sc.Err(); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
	}
	return wants, nil
}
