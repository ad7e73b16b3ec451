package core

import (
	"github.com/unidetect/unidetect/internal/strdist"
	"github.com/unidetect/unidetect/internal/table"
)

// Scratch bundles the per-worker reusable buffers of the measurement
// path. One Scratch is owned by exactly one goroutine at a time; reusing
// it across measurement units keeps the detectors' per-column state
// (value tables, rune arenas, DP rows) allocated once per worker.
type Scratch struct {
	// MPD holds the spelling detector's MPD kernel state: the column's
	// distinct values, per-row codes and distance buffers.
	MPD *strdist.Scratch
	// F64 is a general float64 buffer (the outlier detector's drop-one
	// resample).
	F64 []float64
	// score is the dedup state of DetectAll's assembly pass, reset per
	// table.
	score scoreState
}

// NewScratch returns a ready-to-use scratch.
//
// alloc-budget: 2 per-worker (or per-table, off the fast path) scratch construction, amortized over every unit it measures
func NewScratch() *Scratch {
	return &Scratch{MPD: &strdist.Scratch{}}
}

// Floats returns a zero-length float64 buffer with capacity >= n.
func (s *Scratch) Floats(n int) []float64 {
	if cap(s.F64) < n {
		s.F64 = make([]float64, 0, n)
	}
	return s.F64[:0]
}

// ColumnMeasurer is the column-granular refinement of Detector: detectors
// whose measurements are per-column (spelling, outlier, uniqueness — as
// opposed to the column-pair FD detectors) expose each column as an
// independently schedulable unit, so the batched prediction pipeline can
// spread one wide table across its worker pool and memoize per-column
// results across requests.
//
// MeasureColumn must be a pure function of (table, pos, env): the
// measurement cache replays its results for identical column content,
// and the scratch only saves allocations. Implementations must NOT
// report measurement counts to env — the caller counts once per unit,
// keeping totals identical between the reference (per-table) and fast
// (per-column) paths.
type ColumnMeasurer interface {
	Detector
	// MeasureColumn computes the measurements of the single column at
	// position pos, exactly the subsequence of Measure's output that this
	// column contributes.
	MeasureColumn(t *table.Table, pos int, env *Env, sc *Scratch) []Measurement
}

// MeasureColumns is Detector.Measure for a column-granular detector:
// every column in position order through one fresh scratch, with the
// table's measurement count reported to env once.
func MeasureColumns(cmr ColumnMeasurer, t *table.Table, env *Env) []Measurement {
	sc := NewScratch()
	var out []Measurement
	for pos := range t.Columns {
		out = append(out, cmr.MeasureColumn(t, pos, env, sc)...)
	}
	env.CountMeasurements(cmr.Class(), len(out))
	return out
}
