package hotpanic_test

import (
	"testing"

	"github.com/unidetect/unidetect/internal/analysis/analysistest"
	"github.com/unidetect/unidetect/internal/analysis/hotpanic"

	// The registry's init instruments the analyzer with the //lint:ignore
	// suppression layer (shared contract with every suite member).
	_ "github.com/unidetect/unidetect/internal/analysis/registry"
)

// setFlags lifts the module scoping (testdata packages live outside the
// module prefix) and points the hot-root set at the fixture packages —
// including two stale roots the "stale" fixture expects reported.
func setFlags(t *testing.T) {
	t.Helper()
	for flag, val := range map[string]string{
		"all": "true",
		"roots": "a.Serve,clean.Serve,xpkg.Probe,fixable.Render," +
			"stale.Serve,stale.Server.Handle,stale.Gone,stale.Server.Missing,stale.*.Any",
	} {
		if err := hotpanic.Analyzer.Flags.Set(flag, val); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHotpanic(t *testing.T) {
	setFlags(t)
	analysistest.Run(t, analysistest.TestData(), hotpanic.Analyzer, "a", "clean", "xpkg", "stale")
}

// TestHotpanicFixes applies the comma-ok SuggestedFix, compares the
// golden result, and proves the fixed source re-lints clean.
func TestHotpanicFixes(t *testing.T) {
	setFlags(t)
	analysistest.RunWithFixes(t, analysistest.TestData(), hotpanic.Analyzer, "fixable")
}
