package difftest_test

import (
	"fmt"
	"testing"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/difftest"
	"github.com/unidetect/unidetect/internal/table"
	"github.com/unidetect/unidetect/internal/testkit"
)

// TestSeedSweep is the harness's core claim: across independently
// generated corpora the fast path is byte-identical to the reference,
// and the comparison exercises several error classes (a sweep that only
// ever produced, say, uniqueness findings would leave the other
// detectors' scoring unproven).
func TestSeedSweep(t *testing.T) {
	classes := map[core.Class]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res := difftest.Run(t, difftest.Config{Seed: seed})
			if len(res.Findings) == 0 {
				t.Fatalf("seed %d: no findings; the equivalence check has no power", seed)
			}
			for cls := range res.Classes {
				classes[cls] = true
			}
		})
	}
	if len(classes) < 3 {
		t.Fatalf("sweep exercised only %d error classes (%v); want >= 3", len(classes), classes)
	}
}

// TestAblations runs the sweep unit under the paper's §2.2.2 config
// ablations, which change the model's lookup structure (global-only
// grids, point-estimate LRs) and hence stress different index layers.
func TestAblations(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"no-featurize", func(c *core.Config) { c.NoFeaturize = true }},
		{"point-estimates", func(c *core.Config) { c.PointEstimates = true }},
		{"zero-bucket-support", func(c *core.Config) { c.MinBucketSupport = 0 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			difftest.Run(t, difftest.Config{Seed: 11, Mutate: tc.mutate})
		})
	}
}

// TestCacheConfigs holds equivalence across measurement-cache budgets:
// disabled entirely, and a 2-entry cache that evicts on nearly every
// column (stressing the LRU against the pure-recompute path).
func TestCacheConfigs(t *testing.T) {
	for _, tc := range []struct {
		name string
		size int
	}{
		{"disabled", -1},
		{"tiny", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			difftest.Run(t, difftest.Config{Seed: 7, CacheSize: tc.size})
		})
	}
}

// TestEdgeTables appends hand-built degenerate tables to the eval set:
// empty columns, single-row and constant columns, and NaN/Inf-bearing
// numerics whose float semantics (NaN != NaN) are exactly where a
// rebuilt scoring path could drift.
func TestEdgeTables(t *testing.T) {
	mk := func(name string, cols ...*table.Column) *table.Table {
		tab, err := table.New(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	extra := []*table.Table{
		mk("edge/no-columns"),
		mk("edge/empty-values",
			table.NewColumn("a", []string{"", "", "", "", "", "", "", ""}),
			table.NewColumn("b", []string{"x", "", "y", "", "z", "", "w", ""})),
		mk("edge/single-row", table.NewColumn("only", []string{"v"})),
		mk("edge/constant",
			table.NewColumn("same", []string{"k", "k", "k", "k", "k", "k", "k", "k", "k", "k"})),
		mk("edge/nan-numerics",
			table.NewColumn("x", []string{"NaN", "nan", "1.5", "2.5", "NaN", "3.5", "1e309", "-1e309", "4.5", "5.5"}),
			table.NewColumn("y", []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "1000000"})),
		mk("edge/near-duplicates",
			table.NewColumn("s", []string{"alpha", "alpha", "alpah", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"})),
	}
	res := difftest.Run(t, difftest.Config{Seed: 3, Extra: extra})
	if len(res.Findings) == 0 {
		t.Fatal("no findings with edge tables appended")
	}
}

// TestSourceSweep drives the streaming-scan sweep: per eval table and
// chunk size, the fast DetectSource and the checkpointed job leg must
// match the reference DetectSource byte-for-byte, and every chunk size
// must match the in-memory DetectAll — with several error classes
// exercised so column and column-pair detectors both contribute
// evidence.
func TestSourceSweep(t *testing.T) {
	classes := map[core.Class]bool{}
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res := difftest.RunSource(t, difftest.Config{Seed: seed})
			if len(res.Findings) == 0 {
				t.Fatalf("seed %d: no streaming findings; the equivalence check has no power", seed)
			}
			for cls := range res.Classes {
				classes[cls] = true
			}
		})
	}
	if len(classes) < 3 {
		t.Fatalf("source sweep exercised only %d error classes (%v); want >= 3", len(classes), classes)
	}
}

// TestSourceEdgeTables streams the degenerate tables of TestEdgeTables
// through the chunk sweep: zero-row, single-row and empty-cell tables
// are exactly where a chunked driver could mishandle schema-only
// streams or row rebasing.
func TestSourceEdgeTables(t *testing.T) {
	mk := func(name string, cols ...*table.Column) *table.Table {
		tab, err := table.New(name, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	extra := []*table.Table{
		mk("edge/empty-values",
			table.NewColumn("a", []string{"", "", "", "", "", "", "", ""}),
			table.NewColumn("b", []string{"x", "", "y", "", "z", "", "w", ""})),
		mk("edge/zero-rows", table.NewColumn("empty", nil)),
		mk("edge/single-row", table.NewColumn("only", []string{"v"})),
		mk("edge/near-duplicates",
			table.NewColumn("s", []string{"alpha", "alpha", "alpah", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"})),
	}
	difftest.RunSource(t, difftest.Config{Seed: 3, EvalTables: 8, Extra: extra})
}

// TestSourceChaos replays a transient scan chaos schedule through
// same-seed injectors on the reference, fast and job-leg scans: each
// must degrade exactly the chunks the reference degrades, at every
// chunk size, and score the surviving chunks identically.
func TestSourceChaos(t *testing.T) {
	for _, seed := range testkit.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			difftest.RunSource(t, difftest.Config{
				Seed:       21,
				EvalTables: 10,
				Chaos:      testkit.ScanChaos(0.2),
				ChaosSeed:  seed,
			})
		})
	}
}

// TestChaosSchedule replays the predict chaos schedule through
// same-seed injectors on both paths: the fast pipeline must degrade on
// exactly the tables the reference pipeline degrades on, and score the
// survivors identically.
func TestChaosSchedule(t *testing.T) {
	for _, seed := range testkit.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			res := difftest.Run(t, difftest.Config{
				Seed:      21,
				Chaos:     testkit.PredictChaos(0.3),
				ChaosSeed: seed,
			})
			if len(res.Findings) == 0 {
				t.Fatalf("chaos seed %d dropped every finding; schedule too aggressive for equivalence evidence", seed)
			}
		})
	}
}
