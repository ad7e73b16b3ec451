package hotalloc_test

import (
	"testing"

	"github.com/unidetect/unidetect/internal/analysis/analysistest"
	"github.com/unidetect/unidetect/internal/analysis/hotalloc"

	// The registry's init instruments the analyzer with the //lint:ignore
	// suppression layer exercised by the "suppressedfix" pattern.
	_ "github.com/unidetect/unidetect/internal/analysis/registry"
)

// setFlags lifts the module scoping (testdata packages live outside the
// module prefix) and points the hot-root set at the fixture packages —
// including two stale roots the "stale" fixture expects reported.
func setFlags(t *testing.T) {
	t.Helper()
	for flag, val := range map[string]string{
		"all": "true",
		"roots": "a.Serve,budget.*,clean.Serve,xpkg.Probe,fixable.Render,suppressedfix.Render," +
			"stale.Serve,stale.Server.Handle,stale.Gone,stale.Server.Missing,stale.*.Any",
	} {
		if err := hotalloc.Analyzer.Flags.Set(flag, val); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHotalloc(t *testing.T) {
	setFlags(t)
	analysistest.Run(t, analysistest.TestData(), hotalloc.Analyzer, "a", "clean", "budget", "xpkg", "stale")
}

// TestHotallocFixes applies the Sprintf→Itoa SuggestedFix, compares the
// golden result, and proves the fixed source re-lints clean.
func TestHotallocFixes(t *testing.T) {
	setFlags(t)
	analysistest.RunWithFixes(t, analysistest.TestData(), hotalloc.Analyzer, "fixable")
}

// TestHotallocSuppressedFix proves a //lint:ignore hotalloc directive
// swallows the diagnostic AND its SuggestedFix: the suppressed call
// survives the -fix pass byte-identical (see the golden file), while the
// unsuppressed sibling is rewritten.
func TestHotallocSuppressedFix(t *testing.T) {
	setFlags(t)
	analysistest.RunWithFixes(t, analysistest.TestData(), hotalloc.Analyzer, "suppressedfix")
}
