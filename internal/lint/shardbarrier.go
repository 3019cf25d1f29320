package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ShardBarrierAnalyzer enforces the sharded core's write-staging discipline
// (DESIGN.md §6g): code running inside a shard's parallel window may mutate
// only shard-owned state. Cross-shard effects — wheel schedules, counters,
// notes — must be staged in the shard's spools and drained by the
// coordinator at the barrier, and anything draining a per-shard *Mailbox
// spool must sort by a partition-independent key first. A direct write to
// coordinator state from shard scope is a data race at K>1 and, even when
// raced "safely", makes results depend on the shard partition.
//
// Shard scope is derived structurally from the coordinator/shard shape
// itself: a struct C holding a []*S field where S holds a *C back-reference
// is a coordinator/shard pair, and shard scope is any function with an *S
// receiver or parameter, or a method of a struct that holds an *S field
// (actor objects stepped by their shard, like the NIC).
var ShardBarrierAnalyzer = &Analyzer{
	Name: "shardbarrier",
	Doc: "shard-scope code must stage cross-shard effects (no direct " +
		"coordinator writes or wheel schedules) and mailbox drains must sort " +
		"by a partition-independent key",
	Run: runShardBarrier,
}

// coordShardPair is one detected coordinator/shard struct pair.
type coordShardPair struct {
	coord *types.Named
	shard *types.Named
}

// coordShardPairs finds every (coordinator, shard) pair in the package: a
// package-local struct C with a []*S field, where package-local struct S
// has a *C back-reference and a Schedule method — the staging path the
// barrier discipline is about. The Schedule requirement is what separates
// the unit of parallelism from plain actor back-references (a NIC also
// points at the Network, but stages through its shard rather than being
// one). The shape, not the names, is load-bearing, so a future topology
// rewrite keeps the protection without touching the analyzer.
func coordShardPairs(pass *Pass) []coordShardPair {
	scope := pass.Pkg.Scope()
	structOf := func(t types.Type) (*types.Named, *types.Struct) {
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() != pass.Pkg {
			return nil, nil
		}
		s, ok := n.Underlying().(*types.Struct)
		if !ok {
			return nil, nil
		}
		return n, s
	}
	hasPtrField := func(s *types.Struct, to *types.Named) bool {
		for i := 0; i < s.NumFields(); i++ {
			if p, ok := s.Field(i).Type().(*types.Pointer); ok {
				if n, ok := p.Elem().(*types.Named); ok && n == to {
					return true
				}
			}
		}
		return false
	}
	hasScheduleMethod := func(n *types.Named) bool {
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, pass.Pkg, "Schedule")
		_, ok := obj.(*types.Func)
		return ok
	}
	seen := make(map[coordShardPair]bool)
	var pairs []coordShardPair
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		cn, cs := structOf(tn.Type())
		if cs == nil {
			continue
		}
		for i := 0; i < cs.NumFields(); i++ {
			sl, ok := cs.Field(i).Type().(*types.Slice)
			if !ok {
				continue
			}
			p, ok := sl.Elem().(*types.Pointer)
			if !ok {
				continue
			}
			sn, ss := structOf(p.Elem())
			if ss == nil || sn == cn {
				continue
			}
			pair := coordShardPair{coord: cn, shard: sn}
			if !seen[pair] && hasPtrField(ss, cn) && hasScheduleMethod(sn) {
				seen[pair] = true
				pairs = append(pairs, pair)
			}
		}
	}
	return pairs
}

// namedOf unwraps pointers and returns the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func runShardBarrier(pass *Pass) error {
	if !isSimCore(pass.Path) {
		return nil
	}
	pairs := coordShardPairs(pass)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// The sort-before-drain rule applies to every sim-core function:
			// the coordinator drains the mailboxes, so it is exactly the
			// out-of-shard-scope code that must sort.
			checkMailboxFunc(pass, fn)
			for _, pair := range pairs {
				if inShardScope(pass, fn, pair) {
					checkShardScope(pass, fn.Body, pair)
				}
			}
		}
	}
	return nil
}

// inShardScope reports whether fn runs inside a shard's parallel window:
// an *S receiver or parameter, or a method of an actor struct that holds an
// *S field (the shard steps it).
func inShardScope(pass *Pass, fn *ast.FuncDecl, pair coordShardPair) bool {
	typeOfField := func(fl *ast.Field) *types.Named {
		if len(fl.Names) > 0 {
			if obj := pass.TypesInfo.Defs[fl.Names[0]]; obj != nil {
				return namedOf(obj.Type())
			}
		}
		if tv, ok := pass.TypesInfo.Types[fl.Type]; ok {
			return namedOf(tv.Type)
		}
		return nil
	}
	if fn.Recv != nil && len(fn.Recv.List) > 0 {
		recv := typeOfField(fn.Recv.List[0])
		if recv == pair.shard {
			return true
		}
		// Actor structs (NIC-like): stepped by their owning shard.
		if recv != nil {
			if st, ok := recv.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if namedOf(st.Field(i).Type()) == pair.shard {
						if _, isPtr := st.Field(i).Type().(*types.Pointer); isPtr {
							return true
						}
					}
				}
			}
		}
	}
	if fn.Type.Params != nil {
		for _, p := range fn.Type.Params.List {
			if typeOfField(p) == pair.shard {
				return true
			}
		}
	}
	return false
}

// checkShardScope flags direct coordinator writes and coordinator-rooted
// wheel schedules anywhere in a shard-scope body, including closures built
// there (the per-shard delivery sinks).
func checkShardScope(pass *Pass, body *ast.BlockStmt, pair coordShardPair) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkShardWrite(pass, lhs, pair)
			}
		case *ast.IncDecStmt:
			checkShardWrite(pass, n.X, pair)
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok || !strings.HasPrefix(sel.Sel.Name, "Schedule") {
				break
			}
			// s.Schedule stages; s.n.wheel.Schedule bypasses the barrier.
			if base := coordRooted(pass, sel.X, pair); base != nil {
				pass.Reportf(n.Pos(), "wheel schedule through %s from shard scope: stage it via the shard's Schedule so the barrier replays it in a partition-independent order", pair.coord.Obj().Name())
			}
		}
		return true
	})
}

// checkShardWrite reports lhs if its selector chain passes through the
// coordinator: `s.n.x = v` or `s.n.m[k]++` mutate coordinator state from
// inside the parallel window.
func checkShardWrite(pass *Pass, lhs ast.Expr, pair coordShardPair) {
	sel := baseSelector(lhs)
	if sel == nil {
		return
	}
	if coordRooted(pass, sel.X, pair) != nil {
		pass.Reportf(lhs.Pos(), "write to %s state from shard scope: stage the effect in a shard spool and let the coordinator drain it at the barrier", pair.coord.Obj().Name())
	}
}

// baseSelector unwraps index/star/paren wrappers down to the selector being
// written through, if any.
func baseSelector(e ast.Expr) *ast.SelectorExpr {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// coordRooted reports whether any expression along e's selector chain has
// the coordinator type, returning that sub-expression.
func coordRooted(pass *Pass, e ast.Expr, pair coordShardPair) ast.Expr {
	for e != nil {
		if tv, ok := pass.TypesInfo.Types[e]; ok && namedOf(tv.Type) == pair.coord {
			return e
		}
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return nil
		}
	}
	return nil
}

// --- the absorbed mailbox-drain ordering rule (formerly mailboxorder) ---

// isMailboxName reports whether an identifier names a shard mailbox. The
// convention is load-bearing: per-shard spools that need a sorted drain are
// named *Mailbox; spools that are canonical by construction (staged
// schedules, deliveries — replayed in shard order, which IS the global
// order) deliberately are not.
func isMailboxName(name string) bool {
	return strings.Contains(strings.ToLower(name), "mailbox")
}

// exprName returns the rightmost identifier of x ("s.downMailbox" →
// "downMailbox"), or "".
func exprName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	}
	return ""
}

// sortFuncs are the recognised sorting calls, by package.
var sortFuncs = map[string]map[string]bool{
	"sort": {
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
		"Ints": true, "Strings": true, "Float64s": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

func checkMailboxFunc(pass *Pass, fn *ast.FuncDecl) {
	// Pass 1: does the function sort at all, and which locals are filled
	// from a mailbox? Position-insensitive on purpose — flagging only
	// sort-after-range would miss nothing real (an unsorted drain diverges
	// regardless of what happens later) and would complicate the rule.
	sorts := false
	tainted := map[string]bool{}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				for path, funcs := range sortFuncs {
					if _, ok := selectorFromPkg(pass.TypesInfo, sel, path); ok && funcs[sel.Sel.Name] {
						sorts = true
					}
				}
			}
		case *ast.AssignStmt:
			// `notes = append(notes, s.downMailbox...)` taints notes: the
			// local inherits the mailbox's unsorted shard-order contents.
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				name, mailboxRHS := exprName(n.Lhs[i]), false
				ast.Inspect(rhs, func(m ast.Node) bool {
					if e, ok := m.(ast.Expr); ok && isMailboxName(exprName(e)) {
						mailboxRHS = true
					}
					return true
				})
				if name != "" && mailboxRHS {
					tainted[name] = true
				}
			}
		}
		return true
	})
	if sorts {
		return
	}
	// Pass 2: report every range over a mailbox or a mailbox-filled local.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		name := exprName(rng.X)
		switch {
		case isMailboxName(name):
			pass.Reportf(rng.Pos(), "range over shard mailbox %s without a sort: drain order would depend on the shard partition", name)
		case tainted[name]:
			pass.Reportf(rng.Pos(), "range over %s (filled from a shard mailbox) without a sort: drain order would depend on the shard partition", name)
		}
		return true
	})
}
