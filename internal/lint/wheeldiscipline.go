package lint

import (
	"go/ast"
	"go/token"
	"regexp"
)

// WheelDisciplineAnalyzer guards the fast-forward skip-legality invariant:
// any state change that matters at a future cycle must be visible to
// sim.Wheel.NextEventAt, i.e. paired with a wheel Schedule — a deadline
// stored in a field and polled later is exactly what event-driven skipping
// cannot see. The analyzer flags writes of computed future cycles (the
// right-hand side contains an addition) to fields whose names follow the
// codebase's deadline convention (*At, *Until — optionally unit-suffixed
// like busyUntilMC — or deadline*), unless the enclosing function evidently
// schedules: it calls Schedule/ScheduleMarker directly, calls a same-package
// function that does, or calls an arm* helper (the self-arming event
// idiom). Calls match by method name, which covers every wheel insertion:
// sim.Wheel.Schedule is the only one. Stamps of the current time
// (`x.progressAt = now`) carry no addition and are not flagged.
var WheelDisciplineAnalyzer = &Analyzer{
	Name: "wheeldiscipline",
	Doc: "future-cycle deadline writes in sim-core must pair with a wheel " +
		"Schedule in the same function (or an arm*/scheduling helper it calls)",
	Run: runWheelDiscipline,
}

// deadlineField matches the deadline naming convention: a trailing At/Until
// word, optionally followed by a short all-caps unit (busyUntilMC), or a
// deadline* prefix. timeAtLevel-style names, where At is mid-word, do not
// match.
var deadlineField = regexp.MustCompile(`(At|Until)([A-Z]{1,3})?$|^[Dd]eadline`)

// scheduleCalls are the method names that register a wheel event.
var scheduleCalls = map[string]bool{"Schedule": true, "ScheduleMarker": true}

func runWheelDiscipline(pass *Pass) error {
	if !isSimCore(pass.Path) {
		return nil
	}
	schedulers := directSchedulers(pass.Files)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncScope(pass, fd.Body, schedulers)
		}
	}
	return nil
}

// directSchedulers collects the names of package functions whose body
// contains a direct Schedule call — one transitive hop is enough to bless
// helpers like register() that stamp a deadline in one place and schedule
// its event in another.
func directSchedulers(files []*ast.File) map[string]bool {
	out := make(map[string]bool)
	for _, f := range files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if containsScheduleCall(fd.Body) {
				out[fd.Name.Name] = true
			}
		}
	}
	return out
}

func containsScheduleCall(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			if name, ok := calleeName(call); ok && scheduleCalls[name] {
				found = true
			}
		}
		return !found
	})
	return found
}

func calleeName(call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name, true
	case *ast.SelectorExpr:
		return fun.Sel.Name, true
	}
	return "", false
}

// checkFuncScope walks one function body (recursing into nested function
// literals as their own scopes) and reports unpaired deadline writes.
func checkFuncScope(pass *Pass, body *ast.BlockStmt, schedulers map[string]bool) {
	var writes []*ast.AssignStmt
	paired := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkFuncScope(pass, n.Body, schedulers)
			return false
		case *ast.CallExpr:
			if name, ok := calleeName(n); ok {
				if scheduleCalls[name] || schedulers[name] || isArmHelper(name) {
					paired = true
				}
			}
		case *ast.AssignStmt:
			if deadlineWrite(n) {
				writes = append(writes, n)
			}
		}
		return true
	})
	if paired {
		return
	}
	for _, w := range writes {
		pass.Reportf(w.Pos(), "future-cycle deadline write without a wheel Schedule in this function: "+
			"a polled deadline is invisible to NextEventAt and breaks fast-forward skip legality")
	}
}

func isArmHelper(name string) bool {
	// Both spellings: unexported helpers (armPump, armHold) and exported
	// sink methods (TimerSink.ArmPolicyTimer).
	return len(name) > 3 && (name[:3] == "arm" || name[:3] == "Arm")
}

// deadlineWrite reports whether as assigns a computed future cycle to a
// deadline-named field: a *At/*Until/deadline* selector on the left, an
// addition somewhere in the paired right-hand side (or a += form).
func deadlineWrite(as *ast.AssignStmt) bool {
	for i, lhs := range as.Lhs {
		sel, ok := lhs.(*ast.SelectorExpr)
		if !ok || !deadlineField.MatchString(sel.Sel.Name) {
			continue
		}
		if as.Tok == token.ADD_ASSIGN {
			return true
		}
		if as.Tok != token.ASSIGN {
			continue
		}
		rhs := as.Rhs[0]
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		}
		if containsAddition(rhs) {
			return true
		}
	}
	return false
}

func containsAddition(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			found = true
		}
		return !found
	})
	return found
}
