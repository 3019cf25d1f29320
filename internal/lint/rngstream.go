package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// RNGStreamAnalyzer enforces the split-stream randomness contract: every
// stochastic subsystem draws from a stream derived from the one scenario
// seed via sim.NewStream (StreamTraffic / StreamFault / StreamDSE), so
// enabling one subsystem never perturbs another's draws. Inside sim-core it
// therefore forbids
//
//   - math/rand's rand.New / rand.NewSource (and the v2 equivalents):
//     an ad-hoc generator is seeded outside the stream-splitting scheme;
//   - sim.NewRNG outside package sim itself: raw construction bypasses the
//     (seed, stream) derivation — derive via sim.NewStream or Fork an
//     existing stream instead;
//   - RNG.State / RNG.SetState outside a package's snapshot.go: raw access
//     to generator state is the checkpoint layer's privilege. Anywhere else
//     it enables save/replay tricks that silently decouple a subsystem's
//     draw sequence from the (seed, stream) contract.
var RNGStreamAnalyzer = &Analyzer{
	Name: "rngstream",
	Doc: "all sim-core randomness must flow through the seeded split-stream " +
		"constructors (sim.NewStream), never ad-hoc rand.New; RNG state " +
		"export/restore is reserved to checkpoint snapshot surfaces",
	Run: runRNGStream,
}

const simPkgPath = "repro/internal/sim"

func runRNGStream(pass *Pass) error {
	if !isSimCore(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if p, ok := selectorFromPkg(pass.TypesInfo, sel, randPaths...); ok {
				switch sel.Sel.Name {
				case "New", "NewSource", "NewPCG", "NewChaCha8":
					pass.Reportf(sel.Pos(), "%s.%s in sim-core: ad-hoc generators bypass the seeded "+
						"split-stream scheme; derive one with sim.NewStream", p, sel.Sel.Name)
				}
				return true
			}
			if pass.Path != simPkgPath && sel.Sel.Name == "NewRNG" && isSimFunc(pass.TypesInfo, sel.Sel) {
				pass.Reportf(sel.Pos(), "sim.NewRNG outside package sim bypasses the (seed, stream) "+
					"derivation; use sim.NewStream or Fork an existing stream")
			}
			if pass.Path != simPkgPath &&
				(sel.Sel.Name == "State" || sel.Sel.Name == "SetState") &&
				isSimFunc(pass.TypesInfo, sel.Sel) &&
				!isSnapshotFile(pass, sel.Pos()) {
				pass.Reportf(sel.Pos(), "RNG.%s outside a snapshot.go checkpoint surface: raw generator "+
					"state access belongs to internal/checkpoint's export/restore path only", sel.Sel.Name)
			}
			return true
		})
	}
	return nil
}

// isSnapshotFile reports whether pos lies in a file named snapshot.go —
// the designated per-package checkpoint surface, the one place allowed to
// read or overwrite raw RNG state.
func isSnapshotFile(pass *Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "snapshot.go")
}

// isSimFunc reports whether id resolves to a function of the sim package
// (matched by path suffix so impersonated test packages resolve too).
func isSimFunc(info *types.Info, id *ast.Ident) bool {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	return p == simPkgPath || strings.HasSuffix(p, "/sim")
}
