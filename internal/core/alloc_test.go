package core_test

import (
	"context"
	"testing"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/table"
)

// TestDetectAllocBudget is the runtime counterpart of the hotalloc
// analyzer: the static pass proves every allocation site reachable from
// the DetectAll pool is budgeted, and this test pins what those budgets
// cost on the call /v1/detect makes — DetectAll over one table — with
// one worker, so the count does not depend on the host's CPUs. Warm
// means the LR index is compiled, the metric children and measurement
// cache are resolved, the pooled scratch has grown to the table's shape,
// and every column of the table is a cache hit — the steady state of a
// daemon serving repeated column content.
func TestDetectAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun counts race-detector instrumentation")
	}
	trained, bg := trainSmall(t)
	m := *trained
	m.Config.Workers = 1
	pred := core.NewPredictor(&m, detectors.All(m.Config, detectors.Options{}), &core.Env{Index: bg.Index()})
	spec := datagen.Spec{Name: "alloc", Profile: datagen.ProfileWeb, NumTables: 1,
		AvgRows: 20, AvgCols: 4.6, ErrorRate: 0, Seed: 11}
	tables := []*table.Table{datagen.Generate(spec).Tables[0]}
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		pred.DetectAll(ctx, tables)
	}

	// The budget covers the per-call pipeline: the admission and unit
	// layout, result buffers, feeder and worker goroutines, the returned
	// findings and the occasional scratch the pool dropped across a GC
	// cycle. Lower the budget when the path sheds allocations, never
	// raise it.
	const budget = 14.0
	avg := testing.AllocsPerRun(200, func() { pred.DetectAll(ctx, tables) })
	if avg > budget {
		t.Errorf("warm DetectAll allocates %.1f per run, budget %.0f", avg, budget)
	}
	t.Logf("warm DetectAll: %.1f allocs/run (budget %.0f)", avg, budget)
}
