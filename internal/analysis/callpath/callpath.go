// Package callpath is the shared cross-package call-reachability engine
// behind the hot-path analyzers (hotalloc, hotpanic).
//
// The serving contract of §2.2.3 — online prediction is metric
// computation plus a constant-time lookup — is only as good as the code
// actually reachable from the serving entry points. The engine gives an
// analyzer three reusable pieces:
//
//   - a RootSet: a parsed declaration of hot entry points
//     ("internal/core.Predictor.detectAllFast"), matched against *types.Func
//     objects by package-path suffix, receiver type and name, with "*"
//     wildcards for the receiver and name positions;
//
//   - a Graph: the statically resolvable intra-package call graph. Every
//     function literal is attributed to its enclosing declaration (a
//     closure runs with its creator's budget), method values and other
//     non-call references to functions are over-approximated as calls
//     (a function whose value escapes may be invoked), and interface
//     dispatch is over-approximated by method-set matching: a call
//     through interface method M adds edges to every in-package concrete
//     type implementing the interface, via its M. Calls that resolve to
//     other packages surface as cross-package edges, which analyzers
//     check against imported analysis.Facts — the same fact discipline
//     the deterministic analyzer uses, so a taint two imports away still
//     reaches the caller;
//
//   - ReachableFrom: a breadth-first walk from the in-package root
//     functions, returning for every reachable function the trace back
//     to its root (for human-readable "reachable from detectAllFast via
//     measureUnit" diagnostics).
//
// The engine itself reports nothing; it is a library, not an analyzer,
// and is exempt from the registry completeness check.
package callpath

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// DefaultHotRoots is the serving hot-root set shared by the hotalloc and
// hotpanic analyzers: the fast-path entry points of §2.2.3 serving
// (the DetectAll pool, measure, index lookup, the spelling detector's
// MPD kernel, measurement-cache probes), the /v1/batch coalescer's
// leader path, which runs once per coalesced group under request
// latency, and the streaming scan (SourceScan's per-chunk Fold and
// end-of-stream Finish, which DetectSource and the job store both
// drive, plus every colstore decoder's Next, which runs once per chunk
// of an arbitrarily long stream).
// README.md ("Development") documents how to extend it.
const DefaultHotRoots = "internal/core.Predictor.detectAllFast," +
	"internal/core.Predictor.measureUnit," +
	"internal/core.measureCache.get," +
	"internal/core.measureCache.getTable," +
	"internal/lrindex.Index.LR," +
	"internal/strdist.SpellingMPD," +
	"internal/detectors.*.MeasureColumn," +
	"internal/core.SourceScan.Fold," +
	"internal/core.SourceScan.Finish," +
	"internal/colstore.*.Next," +
	"internal/serving.coalescer.join"

// EdgeKind classifies how a call edge was resolved.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a package function or a method with
	// a concrete receiver.
	EdgeStatic EdgeKind = iota
	// EdgeValue is a non-call reference to a function (method value,
	// function passed as an argument): over-approximated as a call.
	EdgeValue
	// EdgeInterface is an interface-dispatch edge resolved by in-package
	// method-set matching.
	EdgeInterface
)

// Edge is one resolved call (or call over-approximation) out of a
// function.
type Edge struct {
	Callee *types.Func
	Pos    token.Pos
	Kind   EdgeKind
}

// Node is one declared function with its body (closures included).
type Node struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	// Lits are the function literals declared (at any depth) inside
	// Decl's body, in source order. Their bodies are part of this node:
	// walking Decl.Body visits them.
	Lits []*ast.FuncLit
}

// Graph is the intra-package call graph over statically resolvable
// edges. Edges whose callee is defined in another package are kept —
// analyzers resolve them through imported facts.
type Graph struct {
	Nodes []*Node
	byObj map[*types.Func]*Node
	edges map[*types.Func][]Edge
}

// Options configures graph construction.
type Options struct {
	// IncludeTests includes _test.go files (default: excluded — tests
	// are not on the serving path).
	IncludeTests bool
}

// Build constructs the call graph of the pass's package.
func Build(pass *analysis.Pass, opt Options) *Graph {
	g := &Graph{
		byObj: map[*types.Func]*Node{},
		edges: map[*types.Func][]Edge{},
	}
	for _, file := range pass.Files {
		if !opt.IncludeTests && isTestFile(pass, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			n := &Node{Obj: obj, Decl: fd}
			ast.Inspect(fd.Body, func(m ast.Node) bool {
				if lit, ok := m.(*ast.FuncLit); ok {
					n.Lits = append(n.Lits, lit)
				}
				return true
			})
			g.Nodes = append(g.Nodes, n)
			g.byObj[obj] = n
		}
	}
	for _, n := range g.Nodes {
		g.edges[n.Obj] = g.resolve(pass, n)
	}
	return g
}

// Node returns the graph node declaring fn, or nil for functions of
// other packages.
func (g *Graph) Node(fn *types.Func) *Node { return g.byObj[fn] }

// Callees returns fn's outgoing edges, deduplicated per callee (first
// occurrence wins, in source order).
func (g *Graph) Callees(fn *types.Func) []Edge { return g.edges[fn] }

// resolve collects the edges out of one node's body (closures included,
// since they are attributed to the declaring function).
func (g *Graph) resolve(pass *analysis.Pass, n *Node) []Edge {
	var out []Edge
	seen := map[*types.Func]bool{}
	add := func(fn *types.Func, pos token.Pos, kind EdgeKind) {
		if fn == nil || fn == n.Obj || seen[fn] {
			return
		}
		seen[fn] = true
		out = append(out, Edge{Callee: fn, Pos: pos, Kind: kind})
	}
	// ast.Inspect visits a CallExpr before its Fun child, so direct
	// calls claim their callee (EdgeStatic) before the value cases see
	// the same identifier; the seen map makes the later EdgeValue
	// attempt a no-op. A function referenced only as a value (method
	// value, argument, assignment) therefore still gets exactly one
	// edge, marked EdgeValue.
	ast.Inspect(n.Decl.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.CallExpr:
			g.resolveCall(pass, m, add)
		case *ast.Ident:
			// Package-level function referenced by name — `f := pkgFn`,
			// `helper(pkgFn)`, `f := fmt.Sprintf` (the Sel of a
			// qualified identifier is a plain use). Methods are
			// excluded here: their value uses carry a SelectorExpr
			// with a MethodVal selection, handled below.
			if fn, ok := pass.TypesInfo.Uses[m].(*types.Func); ok {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
					add(fn, m.Pos(), EdgeValue)
				}
			}
		case *ast.SelectorExpr:
			// Method value on a concrete receiver: `f := p.measure`.
			// Interface method values stay unresolved (the interface
			// dispatch over-approximation only covers call positions).
			if sel, ok := pass.TypesInfo.Selections[m]; ok && sel.Kind() == types.MethodVal && !types.IsInterface(sel.Recv()) {
				if fn, ok := pass.TypesInfo.Uses[m.Sel].(*types.Func); ok {
					add(fn, m.Pos(), EdgeValue)
				}
			}
		}
		return true
	})
	return out
}

// resolveCall adds the edges of one call expression.
func (g *Graph) resolveCall(pass *analysis.Pass, call *ast.CallExpr, add func(*types.Func, token.Pos, EdgeKind)) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			add(fn, call.Pos(), EdgeStatic)
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.TypesInfo.Selections[fun]; ok && types.IsInterface(sel.Recv()) {
			// Interface dispatch: over-approximate with the in-package
			// implementations of the interface.
			iface, _ := sel.Recv().Underlying().(*types.Interface)
			if iface == nil {
				return
			}
			for _, impl := range g.implementations(pass.Pkg, iface, fun.Sel.Name) {
				add(impl, call.Pos(), EdgeInterface)
			}
			return
		}
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			add(fn, call.Pos(), EdgeStatic)
		}
	}
}

// implementations returns the concrete method named name of every
// package-level named type in pkg (or pointer to it) implementing iface.
func (g *Graph) implementations(pkg *types.Package, iface *types.Interface, name string) []*types.Func {
	var out []*types.Func
	scope := pkg.Scope()
	for _, tn := range scope.Names() {
		obj, ok := scope.Lookup(tn).(*types.TypeName)
		if !ok || obj.IsAlias() {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		recv := types.Type(named)
		if !types.Implements(recv, iface) {
			recv = types.NewPointer(named)
			if !types.Implements(recv, iface) {
				continue
			}
		}
		ms := types.NewMethodSet(recv)
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i); m.Obj().Name() == name {
				if fn, ok := m.Obj().(*types.Func); ok {
					out = append(out, fn)
				}
			}
		}
	}
	return out
}

// Trace records how a function became reachable: its root and the
// immediate caller on the breadth-first shortest path.
type Trace struct {
	Root *types.Func
	From *types.Func // nil when the function is itself a root
	Pos  token.Pos   // call position in From (NoPos for roots)
}

// ReachableFrom walks the graph breadth-first from every in-package
// function matching isRoot and returns a trace for each reachable
// function (roots included, with From == nil).
func (g *Graph) ReachableFrom(isRoot func(*types.Func) bool) map[*types.Func]*Trace {
	reach := map[*types.Func]*Trace{}
	var queue []*types.Func
	for _, n := range g.Nodes {
		if isRoot(n.Obj) {
			reach[n.Obj] = &Trace{Root: n.Obj}
			queue = append(queue, n.Obj)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.edges[fn] {
			if _, ok := reach[e.Callee]; ok {
				continue
			}
			if g.byObj[e.Callee] == nil {
				continue // other package: handled via facts, not traversal
			}
			reach[e.Callee] = &Trace{Root: reach[fn].Root, From: fn, Pos: e.Pos}
			queue = append(queue, e.Callee)
		}
	}
	return reach
}

// Describe renders a trace as a human-readable suffix for diagnostics:
// "hot root detectAllFast" for roots, "reachable from hot root
// detectAllFast via measureUnit" otherwise.
func (t *Trace) Describe() string {
	if t.From == nil {
		return "hot root " + FuncName(t.Root)
	}
	if t.From == t.Root {
		return "reachable from hot root " + FuncName(t.Root)
	}
	return fmt.Sprintf("reachable from hot root %s via %s", FuncName(t.Root), FuncName(t.From))
}

// FuncName renders fn as "Recv.Name" for methods and "Name" for package
// functions — the form diagnostics and root specs use.
func FuncName(fn *types.Func) string {
	if r := receiverName(fn); r != "" {
		return r + "." + fn.Name()
	}
	return fn.Name()
}

// RootSet is a parsed set of hot-root declarations.
type RootSet struct {
	specs []rootSpec
}

// rootSpec is one declaration: package-path suffix, optional receiver
// type name ("*" matches any receiver, "" matches package functions),
// and function name ("*" matches any).
type rootSpec struct {
	entry string // the declaration as written, for diagnostics
	pkg   string
	recv  string
	name  string
}

// ParseRoots parses a comma-separated root declaration list. Each entry
// is "pkg/path.Func" or "pkg/path.Recv.Method"; the package part is
// matched as a whole-segment path suffix, and the receiver and name
// parts accept "*".
func ParseRoots(s string) (*RootSet, error) {
	rs := &RootSet{}
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		// The package part may contain dots only in its final segment's
		// absence; split on "." after the last "/".
		slash := strings.LastIndexByte(entry, '/')
		rest := entry[slash+1:]
		parts := strings.Split(rest, ".")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("callpath: root %q: want pkg/path.Func or pkg/path.Recv.Method", entry)
		}
		sp := rootSpec{entry: entry, pkg: entry[:slash+1] + parts[0]}
		if len(parts) == 2 {
			sp.name = parts[1]
		} else {
			sp.recv, sp.name = parts[1], parts[2]
		}
		if sp.name == "" || sp.pkg == "" {
			return nil, fmt.Errorf("callpath: root %q: empty package or function", entry)
		}
		rs.specs = append(rs.specs, sp)
	}
	if len(rs.specs) == 0 {
		return nil, fmt.Errorf("callpath: empty root set")
	}
	return rs, nil
}

// Match reports whether fn matches any root spec.
func (rs *RootSet) Match(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	for _, sp := range rs.specs {
		if sp.match(fn) {
			return true
		}
	}
	return false
}

func (sp rootSpec) match(fn *types.Func) bool {
	return pathSuffix(fn.Pkg().Path(), sp.pkg) &&
		(sp.name == "*" || sp.name == fn.Name()) &&
		(sp.recv == "*" || sp.recv == receiverName(fn))
}

// ReportStale reports, at the package clause of the pass's first file,
// every root entry without wildcards that names the pass's package but
// matches none of the functions g declares. Such a root — left behind
// when its function was renamed or deleted — matches nothing, so the hot
// set it guarded would otherwise shrink silently.
func (rs *RootSet) ReportStale(pass *analysis.Pass, g *Graph) {
	if len(pass.Files) == 0 {
		return
	}
	for _, sp := range rs.specs {
		if sp.name == "*" || sp.recv == "*" || !pathSuffix(pass.Pkg.Path(), sp.pkg) {
			continue
		}
		found := false
		for _, n := range g.Nodes {
			if sp.match(n.Obj) {
				found = true
				break
			}
		}
		if !found {
			pass.Reportf(pass.Files[0].Package,
				"hot root %s names no function declared in package %s; update the root set", sp.entry, pass.Pkg.Name())
		}
	}
}

// receiverName returns the bare (pointer-stripped) receiver type name of
// a method, or "" for package functions.
func receiverName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// pathSuffix reports whether path ends in the whole-segment suffix sfx.
func pathSuffix(path, sfx string) bool {
	return path == sfx || strings.HasSuffix(path, "/"+sfx)
}

func isTestFile(pass *analysis.Pass, pos token.Pos) bool {
	return strings.HasSuffix(pass.Fset.Position(pos).Filename, "_test.go")
}
