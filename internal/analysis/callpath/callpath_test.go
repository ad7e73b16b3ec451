package callpath_test

import (
	"strings"
	"testing"

	"golang.org/x/tools/go/analysis"

	"github.com/unidetect/unidetect/internal/analysis/analysistest"
	"github.com/unidetect/unidetect/internal/analysis/callpath"
)

// probe wraps the engine in a throwaway analyzer that reports every
// reachable function with its trace, so the graph semantics (closures,
// method values, interface dispatch, BFS traces) can be golden-tested
// with ordinary want comments.
func probe(rootSpecs string) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name: "callprobe",
		Doc:  "report hot-reachable functions (callpath engine test harness)",
		Run: func(pass *analysis.Pass) (interface{}, error) {
			roots, err := callpath.ParseRoots(rootSpecs)
			if err != nil {
				return nil, err
			}
			g := callpath.Build(pass, callpath.Options{})
			reach := g.ReachableFrom(roots.Match)
			for _, n := range g.Nodes {
				if tr, ok := reach[n.Obj]; ok {
					pass.Reportf(n.Decl.Name.Pos(), "reachable: %s", tr.Describe())
				}
			}
			return nil, nil
		},
	}
}

func TestReachability(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), probe("a.Serve,a.Server.Handle"), "a")
}

func TestParseRoots(t *testing.T) {
	for _, bad := range []string{"", "   ,  ", "justaname", "pkg.a.b.c", "pkg."} {
		if _, err := callpath.ParseRoots(bad); err == nil {
			t.Errorf("ParseRoots(%q): want error, got nil", bad)
		}
	}
	rs, err := callpath.ParseRoots("internal/core.Predictor.detectAllFast, internal/strdist.SpellingMPD")
	if err != nil {
		t.Fatalf("ParseRoots: %v", err)
	}
	if rs.Match(nil) {
		t.Error("Match(nil) = true, want false")
	}
}

func TestDefaultHotRootsParse(t *testing.T) {
	if _, err := callpath.ParseRoots(callpath.DefaultHotRoots); err != nil {
		t.Fatalf("DefaultHotRoots does not parse: %v", err)
	}
	for _, want := range []string{"detectAllFast", "measureUnit", "Index.LR", "strdist.SpellingMPD", "MeasureColumn", "SourceScan.Fold", "SourceScan.Finish", "colstore.*.Next"} {
		if !strings.Contains(callpath.DefaultHotRoots, want) {
			t.Errorf("DefaultHotRoots is missing %s", want)
		}
	}
}
