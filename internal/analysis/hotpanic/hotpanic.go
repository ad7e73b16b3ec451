// Package hotpanic defines an inter-package analyzer that proves the
// serving hot path free of panic hazards.
//
// A daemon answering online detection queries (§2.2.3 serving) must not
// take down the process — or silently lose a worker goroutine — because
// one adversarial table hit an unchecked assumption. The chaos harness
// already exercises recovery dynamically; this analyzer makes the
// absence of the hazard static. Over the same callpath engine and hot
// root set as hotalloc, it flags in every hot-reachable function:
//
//   - explicit panic(...) calls, unless the function installs a
//     recovering defer (then the panic cannot escape it);
//   - type asserts without the comma-ok form — x.(T) panics on
//     mismatch; v, ok := x.(T) does not. Where the assert is the sole
//     right-hand side of a single-variable assignment, the diagnostic
//     carries a SuggestedFix appending ", _" (zero value on mismatch;
//     callers wanting the branch should take the ok);
//   - constant-index and len-arithmetic index expressions on slices and
//     strings with no len() comparison guarding the same expression
//     anywhere in the function (x[0] after `if len(x) == 0 { return }`
//     is fine; bare x[0] is a latent panic on empty input);
//   - calls to functions of other analyzed packages carrying a
//     "panics" fact (exported, transitively, for functions whose
//     unrecovered explicit panics could escape to callers).
//
// Like hotalloc, it reports a root entry without wildcards that names no
// function of its package (callpath.RootSet.ReportStale).
//
// The guard heuristic is position-insensitive by design: proving
// dominance statically is out of scope, and a function that mentions
// len(x) in a comparison has at least thought about emptiness. Asserts
// and index hazards do not export facts — they are diagnosed where the
// hot set reaches them, which for this repository's root set covers
// every serving package directly.
package hotpanic

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"github.com/unidetect/unidetect/internal/analysis/callpath"
)

var (
	rootsFlag = callpath.DefaultHotRoots
	modsFlag  = "github.com/unidetect/unidetect"
	trustFlag = "github.com/unidetect/unidetect/internal/obs,github.com/unidetect/unidetect/internal/faultinject"
	allFlag   = false
)

// Analyzer proves hot-path functions free of panic hazards.
var Analyzer = &analysis.Analyzer{
	Name:      "hotpanic",
	Doc:       "prove the serving hot path panic-free: no unrecovered panics, single-form type asserts, or unguarded constant indexing reachable from a hot root",
	Run:       run,
	FactTypes: []analysis.Fact{new(panics)},
}

func init() {
	Analyzer.Flags.StringVar(&rootsFlag, "roots", rootsFlag,
		"comma-separated hot-root specs (pkg/path.Func or pkg/path.Recv.Method, * wildcards in the receiver and name positions)")
	Analyzer.Flags.StringVar(&modsFlag, "mods", modsFlag,
		"comma-separated module prefixes whose packages are analyzed")
	Analyzer.Flags.StringVar(&trustFlag, "trust", trustFlag,
		"comma-separated packages whose calls are not checked for panic facts")
	Analyzer.Flags.BoolVar(&allFlag, "all", allFlag,
		"analyze every package regardless of module prefix (testing)")
}

// panics marks a function whose explicit panic can escape to callers.
type panics struct{ Reason string }

func (*panics) AFact()           {}
func (f *panics) String() string { return "panics: " + f.Reason }

// finding is one panic hazard inside a function body.
type finding struct {
	pos  token.Pos
	desc string
	fix  []analysis.SuggestedFix
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !applies(pass.Pkg.Path()) {
		return nil, nil
	}
	roots, err := callpath.ParseRoots(rootsFlag)
	if err != nil {
		return nil, err
	}
	g := callpath.Build(pass, callpath.Options{})
	roots.ReportStale(pass, g)
	reach := g.ReachableFrom(roots.Match)

	type funcInfo struct {
		findings  []finding
		recovered bool // a recovering defer absorbs escaping panics
		hasPanic  bool // an explicit panic occurs in the body
	}
	infos := map[*types.Func]*funcInfo{}
	for _, n := range g.Nodes {
		fi := &funcInfo{recovered: hasRecoverDefer(n.Decl)}
		fi.findings, fi.hasPanic = collectFindings(pass, n.Decl, fi.recovered)
		for _, e := range g.Callees(n.Obj) {
			if g.Node(e.Callee) != nil || trusted(e.Callee) {
				continue
			}
			var fact panics
			if pass.ImportObjectFact(e.Callee, &fact) && !fi.recovered {
				fi.findings = append(fi.findings, finding{
					pos:  e.Pos,
					desc: clip(fmt.Sprintf("call to %s, which may panic (%s)", callpath.FuncName(e.Callee), fact.Reason)),
				})
			}
		}
		infos[n.Obj] = fi
	}

	// Fact fixed point over escaping explicit panics: a recovering defer
	// absorbs both the function's own panics and those of its callees.
	taint := map[*types.Func]string{}
	for _, n := range g.Nodes {
		if fi := infos[n.Obj]; fi.hasPanic && !fi.recovered {
			taint[n.Obj] = "explicit panic in " + callpath.FuncName(n.Obj)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if _, done := taint[n.Obj]; done || infos[n.Obj].recovered {
				continue
			}
			for _, e := range g.Callees(n.Obj) {
				if reason, bad := taint[e.Callee]; bad && g.Node(e.Callee) != nil {
					taint[n.Obj] = clip(fmt.Sprintf("calls %s, which may panic (%s)", callpath.FuncName(e.Callee), reason))
					changed = true
					break
				}
			}
		}
	}
	for _, n := range g.Nodes {
		if reason, bad := taint[n.Obj]; bad {
			pass.ExportObjectFact(n.Obj, &panics{Reason: clip(reason)})
		}
	}

	for _, n := range g.Nodes {
		tr, hot := reach[n.Obj]
		if !hot {
			continue
		}
		name := callpath.FuncName(n.Obj)
		for _, f := range infos[n.Obj].findings {
			pass.Report(analysis.Diagnostic{
				Pos:            f.pos,
				Message:        fmt.Sprintf("hot-path panic risk: %s in %s, %s", f.desc, name, tr.Describe()),
				SuggestedFixes: f.fix,
			})
		}
	}
	return nil, nil
}

// collectFindings walks fd's body for the three direct hazard classes.
func collectFindings(pass *analysis.Pass, fd *ast.FuncDecl, recovered bool) (out []finding, hasPanic bool) {
	// Pass 1: comma-ok claims, single-assign fix targets, and len guards.
	okAsserts := map[*ast.TypeAssertExpr]bool{}
	assertFix := map[*ast.TypeAssertExpr][]analysis.SuggestedFix{}
	guardedLen := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) != 1 {
				return true
			}
			ta, ok := ast.Unparen(n.Rhs[0]).(*ast.TypeAssertExpr)
			if !ok || ta.Type == nil {
				return true
			}
			switch len(n.Lhs) {
			case 2:
				okAsserts[ta] = true
			case 1:
				assertFix[ta] = []analysis.SuggestedFix{{
					Message: "use the comma-ok form (zero value on mismatch)",
					TextEdits: []analysis.TextEdit{{
						Pos:     n.Lhs[0].End(),
						End:     n.Lhs[0].End(),
						NewText: []byte(", _"),
					}},
				}}
			}
		case *ast.ValueSpec:
			if len(n.Values) == 1 && len(n.Names) == 2 {
				if ta, ok := ast.Unparen(n.Values[0]).(*ast.TypeAssertExpr); ok {
					okAsserts[ta] = true
				}
			}
		case *ast.BinaryExpr:
			switch n.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
				for _, side := range []ast.Expr{n.X, n.Y} {
					if t, ok := lenArg(pass, side); ok {
						guardedLen[t] = true
					}
				}
			}
		}
		return true
	})

	// Pass 2: the hazards themselves.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
					hasPanic = true
					if !recovered {
						out = append(out, finding{pos: n.Pos(), desc: "explicit panic"})
					}
				}
			}
		case *ast.TypeAssertExpr:
			if n.Type != nil && !okAsserts[n] {
				out = append(out, finding{
					pos:  n.Pos(),
					desc: "type assert without comma-ok",
					fix:  assertFix[n],
				})
			}
		case *ast.IndexExpr:
			t := pass.TypesInfo.TypeOf(n.X)
			if t == nil || !indexablePanics(t) {
				return true
			}
			xText := exprText(n.X)
			if guardedLen[xText] {
				return true
			}
			if isConstIndex(pass, n.Index) || isLenArith(pass, n.Index) {
				out = append(out, finding{
					pos:  n.Pos(),
					desc: fmt.Sprintf("unguarded index %s[%s] (no len(%s) comparison in the function)", xText, exprText(n.Index), xText),
				})
			}
		}
		return true
	})
	return out, hasPanic
}

// indexablePanics reports whether indexing t can panic at runtime with a
// data-dependent length: slices and strings. Arrays are compile-time
// sized and maps cannot out-of-range.
func indexablePanics(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return true
	case *types.Basic:
		return u.Info()&types.IsString != 0
	case *types.Pointer:
		return false // *[N]T indexing is array indexing
	}
	return false
}

// isConstIndex reports a compile-time constant index expression (x[0]).
func isConstIndex(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// isLenArith reports the len(x)-k idiom (x[len(x)-1] panics when empty).
func isLenArith(pass *analysis.Pass, e ast.Expr) bool {
	b, ok := ast.Unparen(e).(*ast.BinaryExpr)
	if !ok || b.Op != token.SUB {
		return false
	}
	_, isLen := lenArg(pass, b.X)
	return isLen
}

// lenArg resolves e as a len(arg) builtin call and returns arg's text.
func lenArg(pass *analysis.Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "len" {
		return "", false
	}
	return exprText(call.Args[0]), true
}

// hasRecoverDefer reports whether fd installs a defer whose body calls
// recover() — the idiom that stops any panic from escaping fd.
func hasRecoverDefer(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok || found {
			return !found
		}
		ast.Inspect(d.Call, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
					found = true
				}
			}
			return !found
		})
		return !found
	})
	return found
}

// exprText renders simple expressions to a canonical string, consistent
// within one function body (the guard matching key).
func exprText(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprText(e.X) + "." + e.Sel.Name
	case *ast.UnaryExpr:
		return e.Op.String() + exprText(e.X)
	case *ast.StarExpr:
		return "*" + exprText(e.X)
	case *ast.ParenExpr:
		return exprText(e.X)
	case *ast.IndexExpr:
		return exprText(e.X) + "[" + exprText(e.Index) + "]"
	case *ast.CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = exprText(a)
		}
		return exprText(e.Fun) + "(" + strings.Join(args, ",") + ")"
	case *ast.BasicLit:
		return e.Value
	case *ast.BinaryExpr:
		return exprText(e.X) + e.Op.String() + exprText(e.Y)
	default:
		return fmt.Sprintf("%T", e)
	}
}

// trusted reports whether fn is defined in a -trust package.
func trusted(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	for _, p := range strings.Split(trustFlag, ",") {
		if p = strings.TrimSpace(p); p != "" && pkg.Path() == p {
			return true
		}
	}
	return false
}

// clip bounds reason-chain growth through deep call chains.
func clip(s string) string {
	const max = 220
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}

func applies(pkgPath string) bool {
	if allFlag {
		return true
	}
	for _, prefix := range strings.Split(modsFlag, ",") {
		prefix = strings.TrimSpace(prefix)
		if prefix != "" && (pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")) {
			return true
		}
	}
	return false
}
