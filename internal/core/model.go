package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/stats"
)

// ClassModel holds the learned evidence for one error class: per-bucket
// grids plus a whole-corpus grid used for the no-featurization ablation
// and as a fallback for sparse buckets.
type ClassModel struct {
	Dirs    evidence.Directions
	Buckets map[feature.Key]*evidence.Grid
	Global  *evidence.Grid
}

// finalize builds all prefix sums so lookups are read-only (and hence
// safe for concurrent prediction).
func (cm *ClassModel) finalize() {
	for _, g := range cm.Buckets {
		g.Finalize()
	}
	if cm.Global != nil {
		cm.Global.Finalize()
	}
}

// Samples returns the total number of (θ1, θ2) observations learned.
func (cm *ClassModel) Samples() int64 {
	if cm.Global == nil {
		return 0
	}
	return cm.Global.Total
}

// lookup returns the grid to score a measurement in bucket key against:
// the full bucket when the *query's denominator* has enough support
// there, else the first backoff bucket (leftness wildcard, then row
// count, then both) whose denominator does, else the whole-corpus grid.
// Grid totals are not enough — a bucket with thousands of samples can
// still have near-empty conditional slices, and an LR estimated on a
// handful of denominators is noise. NoFeaturize short-circuits to the
// global grid — the §2.2.2 ablation.
//
// alloc-budget: 1 a grid read finalizes an unfinalized grid's prefix sums once; trained, merged and loaded models are already finalized
func (cm *ClassModel) lookup(key feature.Key, cfg Config, b2 int) *evidence.Grid {
	if cfg.NoFeaturize {
		return cm.Global
	}
	if g, ok := cm.Buckets[key]; ok && g.Denominator(cm.Dirs, b2) >= cfg.MinBucketSupport {
		return g
	}
	for _, k := range backoffKeys(key) {
		if g, ok := cm.Buckets[k]; ok && g.Denominator(cm.Dirs, b2) >= cfg.MinBucketSupport {
			return g
		}
	}
	return cm.Global
}

// Model is a trained Uni-Detect model: evidence for every class, plus the
// corpus metadata needed to reproduce featurization at prediction time.
type Model struct {
	Classes map[Class]*ClassModel
	Config  Config
	// CorpusTables records the size of the training corpus T.
	CorpusTables int
	// CorpusColumns records the number of columns scanned.
	CorpusColumns int
}

// LR scores one measurement of class c, returning the likelihood ratio and
// the denominator support. Missing classes score 1 (no evidence, not
// surprising). It is PAPER.md §1's LR evaluated from the model's maps,
// the reference the compact lrindex.Index reproduces bit for bit.
//
// alloc-budget: 3 grid reads finalize an unfinalized grid's prefix sums once; trained, merged and loaded models are already finalized
func (m *Model) LR(c Class, det Detector, meas Measurement) (lr float64, support int64) {
	cm := m.Classes[c]
	if cm == nil {
		return 1, 0
	}
	q := det.Quantizer()
	b1, b2 := q.Bin(meas.Theta1), q.Bin(meas.Theta2)
	g := cm.lookup(meas.Key, m.Config, b2)
	if g == nil {
		return 1, 0
	}
	if m.Config.PointEstimates {
		return g.PointLR(b1, b2), g.Denominator(cm.Dirs, b2)
	}
	return g.LR(cm.Dirs, b1, b2), g.Denominator(cm.Dirs, b2)
}

// SortFindings orders findings by ascending LR, breaking ties by larger
// evidence support, then lexicographically by (table, column, rows,
// class). The row comparison is the *full* lexicographic order over the
// row sets, not just the first row: equal-LR findings from different
// DetectAll shards that agree on their first flagged row (e.g. two
// duplicate groups both starting at row 0) would otherwise compare
// "equal", and sort.Slice — which is unstable — would order them by
// worker arrival, making batch output nondeterministic.
//
// alloc-budget: 2 sort.Slice boxing and comparator; the unstable sort's tie permutation is pinned by difftest
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if !stats.SameFloat(a.LR, b.LR) {
			return a.LR < b.LR
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		if a.Table != b.Table {
			return a.Table < b.Table
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if c := compareRows(a.Rows, b.Rows); c != 0 {
			return c < 0
		}
		return a.Class < b.Class
	})
}

// compareRows orders row sets lexicographically, shorter prefix first.
func compareRows(a, b []int) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// modelWire is the gob wire format of a Model. evidence.Grid's exported
// fields carry all persistent state; derived prefix sums are rebuilt on
// load. Classes and buckets are sorted slices, not maps: gob encodes
// maps in Go's randomized iteration order, and the checkpoint/resume
// protocol promises that resuming a killed training run reproduces the
// uninterrupted run's model byte for byte.
type modelWire struct {
	Classes       []classWire
	Config        Config
	CorpusTables  int
	CorpusColumns int
}

type classWire struct {
	Class   Class
	Dirs    evidence.Directions
	Buckets []bucketWire
	Global  *evidence.Grid
}

type bucketWire struct {
	Key  feature.Key
	Grid *evidence.Grid
}

// keyLess orders feature keys lexicographically over their dimensions.
func keyLess(a, b feature.Key) bool {
	if a.Type != b.Type {
		return a.Type < b.Type
	}
	if a.Rows != b.Rows {
		return a.Rows < b.Rows
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Save writes the model to w (gob). The encoding is deterministic: two
// saves of equal models produce identical bytes.
func (m *Model) Save(w io.Writer) error {
	wire := modelWire{
		Config:        m.Config,
		CorpusTables:  m.CorpusTables,
		CorpusColumns: m.CorpusColumns,
		Classes:       make([]classWire, 0, len(m.Classes)),
	}
	for cls, cm := range m.Classes {
		cw := classWire{
			Class:   cls,
			Dirs:    cm.Dirs,
			Global:  cm.Global,
			Buckets: make([]bucketWire, 0, len(cm.Buckets)),
		}
		for k, g := range cm.Buckets {
			cw.Buckets = append(cw.Buckets, bucketWire{Key: k, Grid: g})
		}
		sort.Slice(cw.Buckets, func(i, j int) bool { return keyLess(cw.Buckets[i].Key, cw.Buckets[j].Key) })
		wire.Classes = append(wire.Classes, cw)
	}
	sort.Slice(wire.Classes, func(i, j int) bool { return wire.Classes[i].Class < wire.Classes[j].Class })
	return gob.NewEncoder(w).Encode(wire)
}

// LoadModel reads a model written by Save and finalizes its grids.
func LoadModel(r io.Reader) (*Model, error) {
	var w modelWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	m := &Model{
		Classes:       make(map[Class]*ClassModel, len(w.Classes)),
		Config:        w.Config,
		CorpusTables:  w.CorpusTables,
		CorpusColumns: w.CorpusColumns,
	}
	for _, cw := range w.Classes {
		cm := &ClassModel{
			Dirs:    cw.Dirs,
			Global:  cw.Global,
			Buckets: make(map[feature.Key]*evidence.Grid, len(cw.Buckets)),
		}
		for _, bw := range cw.Buckets {
			cm.Buckets[bw.Key] = bw.Grid
		}
		m.Classes[cw.Class] = cm
	}
	for _, cm := range m.Classes {
		cm.finalize()
	}
	return m, nil
}
