// Package difftest is the differential harness that proves the fast
// prediction path — compact LR index (internal/lrindex), column-granular
// batching, pooled scratch buffers, measurement memoization, all behind
// one scoring kernel — produces byte-identical findings to the plain
// reference scorer, the oracle behind core.Predictor.Reference (each
// detector's own Measure, the model's map-backed LR, string dedup keys).
//
// Equivalence here is exact, not approximate: every Finding field must
// match, with float fields compared via math.Float64bits so that even a
// last-ulp drift in LR or θ computation fails the harness. A run trains
// a fresh model on a seeded synthetic corpus, scores an error-injected
// eval set through both predictors' entry points — DetectAll and
// DetectSource — and diffs the outputs, streams also against the
// in-memory DetectAll at every chunk size. With a chaos schedule
// configured, both sides carry a same-seed fault injector so the
// degraded table or chunk set must agree too.
package difftest

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/faultinject"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/table"
)

// Config parameterizes one differential run. The zero value (plus a
// Seed) is a sensible small sweep unit.
type Config struct {
	// Seed drives corpus generation; the eval set uses Seed+1 so test
	// tables are disjoint from training tables.
	Seed int64
	// TrainTables is the training corpus size (default 100).
	TrainTables int
	// EvalTables is the error-injected eval set size (default 30).
	EvalTables int
	// ErrorRate is the eval injection rate (default 1.5 per table).
	ErrorRate float64
	// Extra tables are appended to the eval set — the hook for
	// hand-built edge cases (empty columns, NaN numerics, ...).
	Extra []*table.Table
	// Chaos, when non-empty, arms both predictors with fault injectors
	// built from the same ChaosSeed, asserting the fast path degrades
	// exactly the tables or chunks the reference degrades.
	Chaos     []faultinject.Rule
	ChaosSeed int64
	// CacheSize is passed to the fast predictor (0 = default budget,
	// negative disables the measurement cache).
	CacheSize int
	// Mutate, when non-nil, adjusts the training/scoring config before
	// use — the hook for sweeping ablations (NoFeaturize,
	// PointEstimates) through the harness.
	Mutate func(*core.Config)
}

// Result reports what a successful (equivalent) run produced, so tests
// can assert the comparison had power.
type Result struct {
	// Findings is the fast path's ranked output (== the reference's).
	Findings []core.Finding
	// Classes counts findings per error class.
	Classes map[core.Class]int
	// IndexLookups is how many measurements the fast path scored
	// through the LR index — zero means the run proved nothing.
	IndexLookups float64
}

// Run trains a model for cfg.Seed, scores the eval set through the
// reference and fast paths, and fails t unless the outputs are
// byte-identical. Without chaos it additionally diffs each eval table
// scored alone — the single-table DetectAll call /v1/detect makes.
func Run(t testing.TB, cfg Config) Result {
	t.Helper()
	ctx := context.Background()
	ref, fast, eval := setup(t, &cfg)

	want := ref.DetectAll(ctx, eval)
	got := fast.DetectAll(ctx, eval)
	diffFindings(t, fmt.Sprintf("seed %d DetectAll", cfg.Seed), want, got)

	if len(cfg.Chaos) == 0 {
		for _, tab := range eval {
			one := []*table.Table{tab}
			diffFindings(t, fmt.Sprintf("seed %d DetectAll(%q)", cfg.Seed, tab.Name),
				ref.DetectAll(ctx, one), fast.DetectAll(ctx, one))
		}
	}

	res := Result{Findings: got, Classes: map[core.Class]int{}}
	for _, f := range got {
		res.Classes[f.Class]++
	}
	res.IndexLookups = counterTotal(t, fast.Obs, "unidetect_predict_index_lookups_total")
	if res.IndexLookups == 0 {
		t.Fatalf("difftest: seed %d: fast path scored nothing through the LR index; the comparison has no power", cfg.Seed)
	}
	return res
}

// setup applies Config defaults, trains the shared model and builds the
// reference and fast predictors plus the eval set — the common front
// half of Run and RunSource.
func setup(t testing.TB, cfg *Config) (ref, fast *core.Predictor, eval []*table.Table) {
	t.Helper()
	if cfg.TrainTables == 0 {
		cfg.TrainTables = 100
	}
	if cfg.EvalTables == 0 {
		cfg.EvalTables = 30
	}
	if cfg.ErrorRate == 0 {
		cfg.ErrorRate = 1.5
	}
	ctx := context.Background()

	bg := corpus.New("difftest", datagen.Generate(datagen.Spec{
		Name: "difftest", Profile: datagen.ProfileWeb, NumTables: cfg.TrainTables,
		AvgRows: 16, AvgCols: 4, Seed: cfg.Seed,
	}).Tables)
	cc := core.DefaultConfig()
	cc.Workers = 4 // exercise the training and DetectAll worker pools even on 1-CPU machines
	if cfg.Mutate != nil {
		cfg.Mutate(&cc)
	}
	dets := detectors.All(cc, detectors.Options{})
	model, err := core.Train(ctx, cc, bg, dets)
	if err != nil {
		t.Fatalf("difftest: train seed %d: %v", cfg.Seed, err)
	}

	eval = datagen.Generate(datagen.Spec{
		Name: "difftest-eval", Profile: datagen.ProfileWeb, NumTables: cfg.EvalTables,
		AvgRows: 20, AvgCols: 4, ErrorRate: cfg.ErrorRate, Seed: cfg.Seed + 1,
	}).Tables
	eval = append(eval, cfg.Extra...)

	env := &core.Env{Index: bg.Index()}
	ref = core.NewPredictor(model, dets, env)
	ref.Reference = true
	fast = core.NewPredictor(model, dets, env)
	fast.CacheSize = cfg.CacheSize
	fast.Obs = obs.NewRegistry()
	if len(cfg.Chaos) > 0 {
		ref.Inject = faultinject.New(cfg.ChaosSeed, cfg.Chaos...)
		fast.Inject = faultinject.New(cfg.ChaosSeed, cfg.Chaos...)
	}
	return ref, fast, eval
}

// ChunkSizes is the streaming sweep RunSource drives each eval table
// through: row-at-a-time, a prime stride, a coarse chunk, and the whole
// table as a single chunk (the in-memory anchor).
var ChunkSizes = []int{1, 7, 64, colstore.WholeTable}

// RunSource proves the chunked streaming scan: every eval table is
// streamed at each ChunkSizes entry through core.Predictor.DetectSource
// on the reference and the fast path, which must agree byte-for-byte at
// every size. Without chaos, they must also equal the in-memory
// DetectAll of the same table, on the reference and the fast path, at
// every size: a stream's findings do not depend on how it is chunked.
// With a chaos schedule, same-seed injectors gate every chunk on both,
// which must degrade the same chunks (per-size outputs then
// legitimately differ; path equivalence must not).
func RunSource(t testing.TB, cfg Config) Result {
	t.Helper()
	ctx := context.Background()
	ref, fast, eval := setup(t, &cfg)

	res := Result{Classes: map[core.Class]int{}}
	for _, tab := range eval {
		var inMemory []core.Finding
		if len(cfg.Chaos) == 0 {
			one := []*table.Table{tab}
			inMemory = ref.DetectAll(ctx, one)
			diffFindings(t, fmt.Sprintf("seed %d DetectAll(%q)", cfg.Seed, tab.Name), inMemory, fast.DetectAll(ctx, one))
		}
		for _, rows := range ChunkSizes {
			what := fmt.Sprintf("seed %d DetectSource(%q, chunk=%d)", cfg.Seed, tab.Name, rows)
			opts := colstore.Options{ChunkRows: rows}
			want, err := ref.DetectSource(ctx, colstore.NewSliceSource(tab, opts))
			if err != nil {
				t.Fatalf("difftest: %s: reference: %v", what, err)
			}
			got, err := fast.DetectSource(ctx, colstore.NewSliceSource(tab, opts))
			if err != nil {
				t.Fatalf("difftest: %s: fast: %v", what, err)
			}
			diffFindings(t, what, want, got)
			if len(cfg.Chaos) == 0 {
				diffFindings(t, what+" vs in-memory DetectAll", inMemory, want)
			}
			if rows == colstore.WholeTable {
				res.Findings = append(res.Findings, got...)
				for _, f := range got {
					res.Classes[f.Class]++
				}
			}
		}
	}

	res.IndexLookups = counterTotal(t, fast.Obs, "unidetect_predict_index_lookups_total")
	if res.IndexLookups == 0 {
		t.Fatalf("difftest: seed %d: streaming fast path scored nothing through the LR index; the comparison has no power", cfg.Seed)
	}
	if chunks := counterTotal(t, fast.Obs, "unidetect_scan_chunks_total"); chunks == 0 {
		t.Fatalf("difftest: seed %d: no chunks streamed", cfg.Seed)
	}
	if len(cfg.Chaos) > 0 {
		if degraded := counterTotal(t, fast.Obs, "unidetect_scan_degraded_chunks_total"); degraded == 0 {
			t.Fatalf("difftest: seed %d: chaos schedule degraded no chunks; the chaos sweep has no power", cfg.Seed)
		}
	}
	return res
}

// diffFindings fails t with a field-precise message on the first
// mismatch between the oracle's findings and the fast path's.
func diffFindings(t testing.TB, what string, want, got []core.Finding) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("difftest: %s: reference produced %d findings, fast path %d", what, len(want), len(got))
	}
	for i := range want {
		if d := findingDiff(want[i], got[i]); d != "" {
			t.Fatalf("difftest: %s: finding %d differs: %s\nreference: %+v\nfast:      %+v",
				what, i, d, want[i], got[i])
		}
	}
}

// findingDiff returns "" when a and b are byte-identical, else the name
// of the first differing field. Floats compare by bits: NaN == NaN,
// +0 != -0 — stricter than ==.
func findingDiff(a, b core.Finding) string {
	switch {
	case a.Class != b.Class:
		return "Class"
	case a.Table != b.Table:
		return "Table"
	case a.Column != b.Column:
		return "Column"
	case !equalInts(a.Rows, b.Rows):
		return "Rows"
	case !equalStrings(a.Values, b.Values):
		return "Values"
	case math.Float64bits(a.LR) != math.Float64bits(b.LR):
		return fmt.Sprintf("LR bits (%x vs %x)", math.Float64bits(a.LR), math.Float64bits(b.LR))
	case math.Float64bits(a.Theta1) != math.Float64bits(b.Theta1):
		return "Theta1 bits"
	case math.Float64bits(a.Theta2) != math.Float64bits(b.Theta2):
		return "Theta2 bits"
	case a.Support != b.Support:
		return "Support"
	case a.Detail != b.Detail:
		return "Detail"
	}
	return ""
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// counterTotal sums every sample of one counter family from the
// registry's own text exposition, validating the format on the way.
func counterTotal(t testing.TB, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePromText(&sb); err != nil {
		t.Fatalf("difftest: write exposition: %v", err)
	}
	fams, err := obs.ParseProm(sb.String())
	if err != nil {
		t.Fatalf("difftest: invalid exposition: %v", err)
	}
	fam := fams[name]
	if fam == nil {
		return 0
	}
	var total float64
	for _, s := range fam.Samples {
		total += s.Value
	}
	return total
}
