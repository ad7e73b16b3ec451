// Package hotalloc defines an inter-package analyzer that proves the
// serving hot path allocation-clean — or pins every remaining
// allocation under an explicit, ratcheted budget.
//
// PR 5 took DetectAll from 681k allocs to a few hundred per batch, but
// that win was guarded only dynamically: benchgate allows 20%
// machine-relative drift and cannot name the line that regressed. This
// analyzer makes allocation discipline a compile-time contract, the same
// move the deterministic analyzer made for map-order purity.
//
// It builds the package's call graph with internal/analysis/callpath,
// marks every function reachable from the declared hot roots (-roots,
// defaulting to callpath.DefaultHotRoots: detectAllFast/measureUnit,
// SourceScan.Fold/Finish, the measurement-cache probes,
// lrindex.Index.LR, the spelling MPD kernel strdist.SpellingMPD, and
// every detector MeasureColumn), and flags each heap-allocating
// construct in a hot function:
//
//   - make / new / append (growth);
//   - slice and map composite literals, and heap-escaping &T{...};
//   - conversions between string and []byte/[]rune, and non-constant
//     string concatenation;
//   - calls into fmt and errors (which allocate by contract);
//   - function literals, method values, and go statements (closure and
//     goroutine allocation);
//   - interface boxing of non-pointer-shaped arguments at call sites;
//   - map-range iteration (iterator state may escape);
//   - calls to functions of other analyzed packages that carry an
//     "allocates" fact — the cross-package discipline: a function with
//     unbudgeted allocation sites exports an analysis.Fact, and its
//     callers in dependent packages see the taint at the call site.
//
// Sites are syntactic constructs, deliberately conservative: an append
// into pre-grown capacity or a one-time lazy-init closure still counts,
// and is where the budget annotation earns its keep. A function may
// declare
//
//	// alloc-budget: <n> <reason>
//
// in its doc comment, asserting it contains exactly n allocation sites
// for the stated reason. The analyzer ratchets the annotation in both
// directions, mirroring the registry's unused-suppression rule: a budget
// with zero remaining sites is itself a diagnostic (stale), as are
// budgets exceeded (regression) or overshooting (tighten after a fix).
// Budgeted functions do not export the allocates fact — the budget is
// the explicit acceptance of their cost — and calls to them do not taint
// callers. Std packages outside fmt/errors (strconv, strings, ...) are
// not modeled; the dynamic TestDetectAllocBudget cross-checks the static
// story against testing.AllocsPerRun.
//
// Where the fix is mechanical — fmt.Sprintf("%d", x) on an int — the
// diagnostic carries a SuggestedFix to strconv.Itoa (one allocation for
// the digits instead of boxing plus formatter state plus result).
//
// A root entry without wildcards that names no function of its package
// (callpath.RootSet.ReportStale) is itself a diagnostic: a root left behind by
// a rename matches nothing, and the hot set it guarded would shrink
// without a sound.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strconv"
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

// Analyzer proves hot-path functions allocation-clean or budgeted.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "prove the serving hot path allocation-clean: every heap-allocating construct reachable from a hot root is eliminated or covered by a ratcheted // alloc-budget annotation",
	Run:       run,
	FactTypes: []analysis.Fact{new(allocates)},
}

func init() {
	Analyzer.Flags.StringVar(&rootsFlag, "roots", rootsFlag,
		"comma-separated hot-root specs (pkg/path.Func or pkg/path.Recv.Method, * wildcards in the receiver and name positions)")
	Analyzer.Flags.StringVar(&modsFlag, "mods", modsFlag,
		"comma-separated module prefixes whose packages are analyzed")
	Analyzer.Flags.StringVar(&trustFlag, "trust", trustFlag,
		"comma-separated packages whose calls never count as allocation sites (the observability and chaos layers are amortized or disabled in serving builds)")
	Analyzer.Flags.BoolVar(&allFlag, "all", allFlag,
		"analyze every package regardless of module prefix (testing)")
}

// allocates marks a function with unbudgeted allocation sites; Reason is
// a human-readable chain ("append growth in measureColumn").
type allocates struct{ Reason string }

func (*allocates) AFact()           {}
func (f *allocates) String() string { return "allocates: " + f.Reason }

// budgetRE matches a well-formed annotation payload after "//".
var budgetRE = regexp.MustCompile(`^\s*alloc-budget:\s*([0-9]+)\s+(\S.*)$`)

// site is one allocation construct (or cross-package tainted call).
type site struct {
	pos  token.Pos
	desc string
	fix  []analysis.SuggestedFix
}

// budget is one parsed // alloc-budget annotation.
type budget struct {
	n         int
	ok        bool // well-formed annotation present
	malformed bool
	pos       token.Pos
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
		sites []site
		bud   budget
	}
	infos := map[*types.Func]*funcInfo{}
	for _, n := range g.Nodes {
		fi := &funcInfo{
			sites: collectSites(pass, n.Decl),
			bud:   parseBudget(n.Decl),
		}
		// Cross-package tainted calls are sites too: the callee's budget
		// decision (it has none) surfaces at our call site.
		for _, e := range g.Callees(n.Obj) {
			if g.Node(e.Callee) != nil || trusted(e.Callee) {
				continue
			}
			var fact allocates
			if pass.ImportObjectFact(e.Callee, &fact) {
				fi.sites = append(fi.sites, site{
					pos:  e.Pos,
					desc: clip(fmt.Sprintf("call to %s, which allocates (%s)", callpath.FuncName(e.Callee), fact.Reason)),
				})
			}
		}
		infos[n.Obj] = fi
	}

	// Export-taint fixed point: a function allocates if it has unbudgeted
	// sites or (transitively) calls an in-package function that does.
	// Budgets absorb: a budgeted function exports nothing and calls to it
	// do not taint. Taint only grows, so this terminates.
	taint := map[*types.Func]string{}
	for _, n := range g.Nodes {
		if fi := infos[n.Obj]; !fi.bud.ok && len(fi.sites) > 0 {
			taint[n.Obj] = fi.sites[0].desc + " in " + callpath.FuncName(n.Obj)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if _, done := taint[n.Obj]; done || infos[n.Obj].bud.ok {
				continue
			}
			for _, e := range g.Callees(n.Obj) {
				if reason, bad := taint[e.Callee]; bad && g.Node(e.Callee) != nil {
					taint[n.Obj] = clip(fmt.Sprintf("calls %s, which allocates (%s)", callpath.FuncName(e.Callee), reason))
					changed = true
					break
				}
			}
		}
	}
	for _, n := range g.Nodes {
		if reason, bad := taint[n.Obj]; bad {
			pass.ExportObjectFact(n.Obj, &allocates{Reason: clip(reason)})
		}
	}

	// Diagnostics. Budget hygiene is global (an annotation is a claim,
	// wherever it sits); per-site reports fire only on the hot set.
	for _, n := range g.Nodes {
		fi := infos[n.Obj]
		name := callpath.FuncName(n.Obj)
		switch {
		case fi.bud.malformed:
			pass.Reportf(n.Decl.Name.Pos(),
				"malformed alloc-budget on %s: want \"// alloc-budget: <n> <reason>\"", name)
		case fi.bud.ok:
			k := len(fi.sites)
			switch {
			case k == 0:
				pass.Reportf(n.Decl.Name.Pos(),
					"unused alloc-budget on %s: no allocation sites remain; delete the annotation", name)
			case k > fi.bud.n:
				pass.Reportf(n.Decl.Name.Pos(),
					"alloc-budget on %s exceeded: %d allocation site(s), budget is %d (first: %s)",
					name, k, fi.bud.n, fi.sites[0].desc)
			case k < fi.bud.n:
				pass.Reportf(n.Decl.Name.Pos(),
					"alloc-budget on %s overshoots: %d allocation site(s), budget is %d; tighten to %d",
					name, k, fi.bud.n, k)
			}
		}
		// A malformed annotation is not a budget: the sites still fire.
		tr, hot := reach[n.Obj]
		if !hot || fi.bud.ok {
			continue
		}
		for _, s := range fi.sites {
			pass.Report(analysis.Diagnostic{
				Pos: s.pos,
				Message: fmt.Sprintf("hot-path allocation: %s in %s, %s; eliminate it or add // alloc-budget: <n> <reason>",
					s.desc, name, tr.Describe()),
				SuggestedFixes: s.fix,
			})
		}
	}
	return nil, nil
}

// parseBudget reads fd's doc comment for an alloc-budget annotation.
func parseBudget(fd *ast.FuncDecl) budget {
	if fd.Doc == nil {
		return budget{}
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		// Only a line *starting* with the marker is an annotation; prose
		// mentioning alloc-budget mid-sentence is not.
		if !strings.HasPrefix(strings.TrimSpace(text), "alloc-budget") {
			continue
		}
		m := budgetRE.FindStringSubmatch(text)
		if m == nil {
			return budget{malformed: true, pos: c.Pos()}
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			return budget{malformed: true, pos: c.Pos()}
		}
		return budget{n: n, ok: true, pos: c.Pos()}
	}
	return budget{}
}

// collectSites walks fd's body (closures included — they run on their
// declarer's budget) and records every direct allocation construct.
func collectSites(pass *analysis.Pass, fd *ast.FuncDecl) []site {
	var sites []site
	add := func(pos token.Pos, desc string, fix ...analysis.SuggestedFix) {
		sites = append(sites, site{pos: pos, desc: desc, fix: fix})
	}

	// Pre-pass: which expressions sit in call position (so method values
	// used as call heads are calls, not closure allocations).
	callHeads := map[ast.Expr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			callHeads[ast.Unparen(call.Fun)] = true
		}
		return true
	})

	goLits := map[*ast.FuncLit]bool{} // go func(){...}() counted once, as the go statement
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				goLits[lit] = true
			}
			add(n.Pos(), "goroutine launch (go statement)")
		case *ast.FuncLit:
			if !goLits[n] {
				add(n.Pos(), "function literal (closure)")
			}
		case *ast.RangeStmt:
			if isMapType(pass, n.X) {
				add(n.Pos(), "map-range iteration")
			}
		case *ast.CompositeLit:
			switch pass.TypesInfo.TypeOf(n).Underlying().(type) {
			case *types.Slice:
				add(n.Pos(), "slice literal")
			case *types.Map:
				add(n.Pos(), "map literal")
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					switch pass.TypesInfo.TypeOf(lit).Underlying().(type) {
					case *types.Struct, *types.Array:
						add(n.Pos(), "heap-escaping composite literal (&T{...})")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv := pass.TypesInfo.Types[n]; tv.Value == nil && isStringType(tv.Type) {
					add(n.Pos(), "string concatenation")
				}
			}
		case *ast.SelectorExpr:
			if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal && !callHeads[n] {
				add(n.Pos(), "method value (closure over receiver)")
			}
		case *ast.CallExpr:
			collectCallSites(pass, n, add)
		}
		return true
	})
	return sites
}

// collectCallSites records the allocation behavior of one call: builtins
// (make/new/append), string conversions, fmt/errors calls, and interface
// boxing of arguments.
func collectCallSites(pass *analysis.Pass, call *ast.CallExpr, add func(token.Pos, string, ...analysis.SuggestedFix)) {
	fun := ast.Unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				add(call.Pos(), "make")
			case "new":
				add(call.Pos(), "new")
			case "append":
				add(call.Pos(), "append growth")
			}
			return
		}
	}
	tv := pass.TypesInfo.Types[call.Fun]
	if tv.IsType() {
		// Conversion: flag the string↔[]byte/[]rune pairs (they copy).
		dst := tv.Type
		if len(call.Args) == 1 {
			src := pass.TypesInfo.TypeOf(call.Args[0])
			if stringSliceConv(dst, src) || stringSliceConv(src, dst) {
				add(call.Pos(), "string conversion (copies)")
			}
		}
		return
	}
	if path, name, ok := stdQualified(pass, fun); ok && (path == "fmt" || path == "errors") {
		add(call.Pos(), fmt.Sprintf("call to %s.%s, which allocates", path, name), sprintfFix(pass, call, name)...)
		return // boxing of its variadic args is part of the same sin
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				continue // f(xs...) forwards the slice, no boxing
			}
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := pass.TypesInfo.TypeOf(arg)
		if at == nil || types.IsInterface(at) || at == types.Typ[types.UntypedNil] {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Map, *types.Signature, *types.Basic:
			if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() != types.UnsafePointer {
				add(arg.Pos(), "interface boxing of argument")
			}
		default:
			add(arg.Pos(), "interface boxing of argument")
		}
	}
}

// sprintfFix suggests strconv.Itoa for the fmt.Sprintf("%d", x) idiom on
// an int argument, when the file already imports strconv (mirroring
// floatcompare's import gate: a text edit cannot add imports).
func sprintfFix(pass *analysis.Pass, call *ast.CallExpr, name string) []analysis.SuggestedFix {
	if name != "Sprintf" || len(call.Args) != 2 {
		return nil
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Value != `"%d"` {
		return nil
	}
	at, ok := pass.TypesInfo.TypeOf(call.Args[1]).Underlying().(*types.Basic)
	if !ok || at.Kind() != types.Int {
		return nil
	}
	q, ok := importQualifier(pass, call.Pos(), "strconv")
	if !ok {
		return nil
	}
	return []analysis.SuggestedFix{{
		Message: "replace fmt.Sprintf(\"%d\", x) with strconv.Itoa(x)",
		TextEdits: []analysis.TextEdit{{
			Pos:     call.Pos(),
			End:     call.Args[1].Pos(),
			NewText: []byte(q + ".Itoa("),
		}},
	}}
}

// importQualifier returns the local name under which the file containing
// pos imports path.
func importQualifier(pass *analysis.Pass, pos token.Pos, path string) (string, bool) {
	for _, f := range pass.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			for _, imp := range f.Imports {
				if strings.Trim(imp.Path.Value, `"`) != path {
					continue
				}
				if imp.Name != nil {
					return imp.Name.Name, true
				}
				return path[strings.LastIndexByte(path, '/')+1:], true
			}
		}
	}
	return "", false
}

// stdQualified resolves fun as a qualified identifier pkg.Name and
// returns the package path.
func stdQualified(pass *analysis.Pass, fun ast.Expr) (path, name string, ok bool) {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// stringSliceConv reports a string → []byte/[]rune shape (or the
// reverse, when called with swapped arguments).
func stringSliceConv(dst, src types.Type) bool {
	if src == nil || dst == nil {
		return false
	}
	sb, ok := src.Underlying().(*types.Basic)
	if !ok || sb.Info()&types.IsString == 0 {
		return false
	}
	sl, ok := dst.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	eb, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (eb.Kind() == types.Byte || eb.Kind() == types.Rune || eb.Kind() == types.Uint8 || eb.Kind() == types.Int32)
}

func isMapType(pass *analysis.Pass, e ast.Expr) bool {
	t := pass.TypesInfo.TypeOf(e)
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
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
