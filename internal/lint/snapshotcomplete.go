package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// SnapshotCompleteAnalyzer guards checkpoint/restore parity (DESIGN.md §6h):
// in every package with a snapshot.go, every mutable field of a live struct
// reachable from an Export/Restore pair must be mentioned by the export
// path and by the restore path — a field added to the simulation state but
// dropped from the snapshot surface resumes stale, and the divergence only
// shows up (if at all) as a flaky equivalence test long after the commit.
//
// Per field, "mutable" means assigned somewhere outside snapshot.go and
// outside constructor-shaped functions (New*/new*/make*/build*…): a field
// written only during wiring is configuration, reconstructed by building
// the object graph from the same Config before restoring. The export path
// is the snapshot.go functions whose names say export/collect, the restore
// path those saying restore/resolve/apply, each widened one call hop into
// same-package helpers (rec.recompute(), in.state(…)) so recompute-on-
// restore idioms are followed rather than listed. Fields that are genuinely
// rebuilt rather than serialized — caches, registration indexes, pool
// linkage — carry an explicit contract:
//
//	//optolint:derived <what it is recomputed from>
//
// on or above the field declaration. A derived marker on a field the
// analyzer does not flag is itself reported (see AllowRule), so the
// annotations cannot outlive the design they describe.
var SnapshotCompleteAnalyzer = &Analyzer{
	Name: "snapshotcomplete",
	Doc: "every mutable field of a checkpointed struct must be written by " +
		"the export path and read by the restore path, or be explicitly " +
		"marked //optolint:derived with its recompute reason",
	Run: runSnapshotComplete,
}

// constructorRe matches the names of wiring functions whose field writes do
// not make a field "mutable": construction happens again before restore.
var constructorRe = regexp.MustCompile(`^(New|new|Make|make|Build|build)`)

// snapshotSide classifies a snapshot.go function name into the export or
// restore path (or neither). debug* helpers are excluded: a debug
// comparison reads everything and would bless fields the restore path
// never touches.
func snapshotSide(name string) (export, restore bool) {
	l := strings.ToLower(name)
	if strings.HasPrefix(l, "debug") {
		return false, false
	}
	export = strings.Contains(l, "export") || strings.Contains(l, "collect")
	restore = strings.Contains(l, "restore") || strings.Contains(l, "resolve") || strings.Contains(l, "apply")
	return export, restore
}

func runSnapshotComplete(pass *Pass) error {
	var snapFiles, liveFiles []*ast.File
	for _, f := range pass.Files {
		if filepath.Base(pass.Fset.Position(f.Pos()).Filename) == "snapshot.go" {
			snapFiles = append(snapFiles, f)
		} else {
			liveFiles = append(liveFiles, f)
		}
	}
	if len(snapFiles) == 0 {
		return nil
	}

	sc := &snapshotCheck{
		pass:        pass,
		fieldDecl:   make(map[*types.Var]*ast.Ident),
		fieldOwner:  make(map[*types.Var]*types.Named),
		structs:     make(map[*types.Named][]*types.Var),
		funcDecls:   make(map[*types.Func]*ast.FuncDecl),
		mutatedAt:   make(map[*types.Var]token.Pos),
		exportSeen:  make(map[*types.Var]bool),
		restoreSeen: make(map[*types.Var]bool),
	}
	sc.indexPackage()
	roots := sc.findRoots(snapFiles)
	if len(roots) == 0 {
		return nil
	}
	reachable := sc.reachableStructs(roots)
	sc.collectMutations(liveFiles, reachable)
	sc.collectMentions(snapFiles, reachable)
	sc.report(reachable)
	return nil
}

type snapshotCheck struct {
	pass        *Pass
	fieldDecl   map[*types.Var]*ast.Ident   // field object → declaring ident
	fieldOwner  map[*types.Var]*types.Named // field object → owning struct
	structs     map[*types.Named][]*types.Var
	funcDecls   map[*types.Func]*ast.FuncDecl
	mutatedAt   map[*types.Var]token.Pos
	exportSeen  map[*types.Var]bool
	restoreSeen map[*types.Var]bool
}

// indexPackage maps every named struct's fields and every function decl.
func (sc *snapshotCheck) indexPackage() {
	info := sc.pass.TypesInfo
	for _, f := range sc.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if fn, ok := info.Defs[n.Name].(*types.Func); ok {
					sc.funcDecls[fn] = n
				}
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok {
					return true
				}
				tn, ok := info.Defs[n.Name].(*types.TypeName)
				if !ok {
					return true
				}
				named, ok := tn.Type().(*types.Named)
				if !ok {
					return true
				}
				for _, fl := range st.Fields.List {
					for _, name := range fl.Names {
						if fv, ok := info.Defs[name].(*types.Var); ok {
							sc.fieldDecl[fv] = name
							sc.fieldOwner[fv] = named
							sc.structs[named] = append(sc.structs[named], fv)
						}
					}
				}
			}
			return true
		})
	}
}

// findRoots seeds the live-struct set from the receivers and struct-typed
// parameters of snapshot.go's export/restore functions (Network for
// ExportState/RestoreState, Packet for the free ExportPacket/ApplyTo pair).
func (sc *snapshotCheck) findRoots(snapFiles []*ast.File) []*types.Named {
	info := sc.pass.TypesInfo
	seen := make(map[*types.Named]bool)
	var roots []*types.Named
	add := func(t types.Type) {
		n := namedOf(t)
		if n == nil || n.Obj().Pkg() != sc.pass.Pkg || seen[n] {
			return
		}
		if _, ok := n.Underlying().(*types.Struct); !ok {
			return
		}
		if skipStructName(n.Obj().Name()) {
			return
		}
		seen[n] = true
		roots = append(roots, n)
	}
	for _, f := range snapFiles {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			exp, res := snapshotSide(fd.Name.Name)
			if !exp && !res {
				continue
			}
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				recv := fd.Recv.List[0]
				if tv, ok := info.Types[recv.Type]; ok {
					add(tv.Type)
				} else if len(recv.Names) > 0 {
					if obj := info.Defs[recv.Names[0]]; obj != nil {
						add(obj.Type())
					}
				}
			}
			if fd.Type.Params != nil {
				for _, p := range fd.Type.Params.List {
					if tv, ok := info.Types[p.Type]; ok {
						add(tv.Type)
					}
				}
			}
		}
	}
	return roots
}

// skipStructName excludes the serialization DTOs and static configuration
// from the live-struct closure: *State mirrors are the snapshot, *Config is
// immutable input.
func skipStructName(name string) bool {
	return strings.HasSuffix(name, "State") || strings.HasSuffix(name, "Config")
}

// reachableStructs closes the root set over field types: a struct embedded
// in, pointed to, or collected by a live struct is itself live state.
func (sc *snapshotCheck) reachableStructs(roots []*types.Named) map[*types.Named]bool {
	reachable := make(map[*types.Named]bool)
	var visit func(n *types.Named)
	visit = func(n *types.Named) {
		if reachable[n] {
			return
		}
		reachable[n] = true
		st, ok := n.Underlying().(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			for _, ft := range elementTypes(st.Field(i).Type()) {
				fn := namedOf(ft)
				if fn == nil || fn.Obj().Pkg() != sc.pass.Pkg {
					continue
				}
				if _, ok := fn.Underlying().(*types.Struct); !ok {
					continue
				}
				if skipStructName(fn.Obj().Name()) {
					continue
				}
				visit(fn)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return reachable
}

// elementTypes unwraps containers (pointer, slice, array, map values) down
// to the types a field can reach.
func elementTypes(t types.Type) []types.Type {
	switch t := t.(type) {
	case *types.Pointer:
		return elementTypes(t.Elem())
	case *types.Slice:
		return elementTypes(t.Elem())
	case *types.Array:
		return elementTypes(t.Elem())
	case *types.Map:
		return append(elementTypes(t.Key()), elementTypes(t.Elem())...)
	}
	return []types.Type{t}
}

// collectMutations records the first assignment site of every reachable-
// struct field outside snapshot.go and outside constructor-shaped
// functions.
func (sc *snapshotCheck) collectMutations(liveFiles []*ast.File, reachable map[*types.Named]bool) {
	info := sc.pass.TypesInfo
	record := func(lhs ast.Expr) {
		sel := baseSelector(lhs)
		if sel == nil {
			return
		}
		fv, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !reachable[sc.fieldOwner[fv]] {
			return
		}
		if _, seen := sc.mutatedAt[fv]; !seen {
			sc.mutatedAt[fv] = lhs.Pos()
		}
	}
	for _, f := range liveFiles {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || constructorRe.MatchString(fd.Name.Name) {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						record(lhs)
					}
				case *ast.IncDecStmt:
					record(n.X)
				}
				return true
			})
		}
	}
}

// collectMentions walks the export- and restore-path functions of
// snapshot.go (plus one call hop into same-package helpers) and records
// every reachable field they touch. Mentioning a whole struct-typed field
// (r.stats copied wholesale) blesses that struct's fields too.
func (sc *snapshotCheck) collectMentions(snapFiles []*ast.File, reachable map[*types.Named]bool) {
	var exportFns, restoreFns []*ast.FuncDecl
	for _, f := range snapFiles {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			exp, res := snapshotSide(fd.Name.Name)
			if exp {
				exportFns = append(exportFns, fd)
			}
			if res {
				restoreFns = append(restoreFns, fd)
			}
		}
	}
	sc.walkSide(exportFns, sc.exportSeen, reachable)
	sc.walkSide(restoreFns, sc.restoreSeen, reachable)
}

func (sc *snapshotCheck) walkSide(fns []*ast.FuncDecl, seen map[*types.Var]bool, reachable map[*types.Named]bool) {
	info := sc.pass.TypesInfo
	visited := make(map[*ast.FuncDecl]bool)
	mention := func(fv *types.Var) {
		if !reachable[sc.fieldOwner[fv]] {
			return
		}
		seen[fv] = true
		// Whole-struct value copy: every field of the copied struct crossed
		// the snapshot boundary with it.
		if inner := namedOf(fv.Type()); inner != nil && reachable[inner] {
			if _, isPtr := fv.Type().(*types.Pointer); !isPtr {
				for _, sub := range sc.structs[inner] {
					seen[sub] = true
				}
			}
		}
	}
	var walk func(fd *ast.FuncDecl, hops int)
	walk = func(fd *ast.FuncDecl, hops int) {
		if visited[fd] {
			return
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				// Uses covers selectors and composite-literal keys alike.
				if fv, ok := info.Uses[n].(*types.Var); ok && sc.fieldDecl[fv] != nil {
					mention(fv)
				}
			case *ast.CallExpr:
				if hops == 0 {
					break
				}
				var callee types.Object
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					callee = info.Uses[fun]
				case *ast.SelectorExpr:
					callee = info.Uses[fun.Sel]
				}
				if fn, ok := callee.(*types.Func); ok {
					if decl := sc.funcDecls[fn]; decl != nil && decl.Body != nil {
						walk(decl, hops-1)
					}
				}
			}
			return true
		})
	}
	for _, fd := range fns {
		walk(fd, 1)
	}
}

// report emits one diagnostic per mutable field missing from either path,
// honoring //optolint:derived on the field declaration.
func (sc *snapshotCheck) report(reachable map[*types.Named]bool) {
	var fields []*types.Var
	for fv := range sc.mutatedAt {
		fields = append(fields, fv)
	}
	sort.Slice(fields, func(i, j int) bool {
		return sc.fieldDecl[fields[i]].Pos() < sc.fieldDecl[fields[j]].Pos()
	})
	for _, fv := range fields {
		if funcValued(fv.Type()) {
			// Closures cannot be serialized; event and hook fields are
			// rebuilt by construction, and wheel entries name them by
			// registered handler instead.
			continue
		}
		missExport := !sc.exportSeen[fv]
		missRestore := !sc.restoreSeen[fv]
		if !missExport && !missRestore {
			continue
		}
		decl := sc.fieldDecl[fv]
		if sc.pass.DerivedOK(decl.Pos()) {
			continue
		}
		owner := sc.fieldOwner[fv].Obj().Name()
		mut := sc.pass.Fset.Position(sc.mutatedAt[fv])
		var miss string
		switch {
		case missExport && missRestore:
			miss = "missing from both the export and restore paths"
		case missExport:
			miss = "missing from the export path"
		default:
			miss = "missing from the restore path"
		}
		sc.pass.Reportf(decl.Pos(), "mutable field %s.%s (written at %s:%d) is %s: a checkpoint would resume it stale — export it or mark it //optolint:derived <reason>",
			owner, decl.Name, filepath.Base(mut.Filename), mut.Line, miss)
	}
}

// funcValued reports whether t is (or contains, through containers) a
// function type.
func funcValued(t types.Type) bool {
	for _, et := range elementTypes(t) {
		if _, ok := et.Underlying().(*types.Signature); ok {
			return true
		}
	}
	return false
}
