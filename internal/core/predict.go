package core

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/unidetect/unidetect/internal/faultinject"
	"github.com/unidetect/unidetect/internal/lrindex"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/stats"
	"github.com/unidetect/unidetect/internal/table"
)

// Predictor pairs a trained model with the detector instantiations it was
// trained with, and scores new tables at interactive speed (§2.2.3: online
// prediction is metric computation plus a lookup).
//
// It has one detect path, detectTables: a column-granular worker pool
// (fastpath.go) scoring through one kernel, Predictor.score, or
// referenceScore under Reference. DetectAll runs it over in-memory
// tables; a stream (SourceScan, scan.go, which DetectSource and the
// async job store both drive) only folds its chunks into a sketch and
// runs it once over the table the sketch decodes to.
type Predictor struct {
	Model     *Model
	Detectors []Detector
	Env       *Env
	// Inject, when non-nil, enables chaos testing of the batch predict
	// path: DetectAll hits the site "core/predict/table=<name>" per
	// table, and degrades gracefully — an injected error or panic drops
	// that table's findings (logged via Logf) instead of aborting or
	// crashing the scan.
	Inject *faultinject.Injector
	// Logf receives degradation messages; nil discards them.
	Logf func(format string, args ...any)
	// Obs, when non-nil, receives prediction metrics: per-detector
	// latency and LR histograms, finding and degraded-table counters.
	Obs *obs.Registry
	// Reference swaps the scoring kernel for referenceScore, the plain
	// oracle of the differential harness (internal/difftest): each
	// detector's own Measure, the model's map-backed LR and string dedup
	// keys, with no LR index, measurement cache, worker pool or shared
	// scratch. Chaos admission, the stream sketch and row rebasing stay
	// the same, and the fast path must produce byte-identical findings.
	Reference bool
	// CacheSize overrides the per-column measurement cache budget
	// (total entries across shards): 0 means the default, negative
	// disables memoization. Ignored on the reference path.
	CacheSize int

	metricsOnce sync.Once
	// metricsReady flips once pm is built, so the hot-path metrics()
	// never enters Once.Do (whose closure would allocate per call).
	metricsReady atomic.Bool
	// pm is built from Obs on first use; all children are no-ops when
	// Obs is nil.
	pm predictMetrics

	indexOnce sync.Once
	// index is compiled from Model on first fast-path use and published
	// through the atomic pointer for allocation-free resolution.
	index     atomic.Pointer[lrindex.Index]
	cacheOnce sync.Once
	// cacheReady flips once cache is resolved (it may resolve to nil:
	// negative CacheSize disables memoization).
	cacheReady atomic.Bool
	// cache is resolved from CacheSize on first fast-path use.
	cache *measureCache
	// scratches pools the scratch buffers of detectAllFast's workers
	// and assembly pass.
	scratches sync.Pool
}

// NewPredictor builds a predictor. env may carry a token index built over
// the training corpus; featurization at predict time must use the same
// index the learner used.
func NewPredictor(m *Model, detectors []Detector, env *Env) *Predictor {
	return &Predictor{Model: m, Detectors: detectors, Env: env}
}

// DetectAll scores many tables and returns all findings ranked by
// ascending LR. Only measurements with a valid perturbation and
// LR <= Alpha become findings.
//
// One underlying error can surface through several candidates — a
// duplicated key value violates the candidate FD from the key to every
// other column — so findings of the same class flagging the same row set
// within one table are deduplicated, keeping the most confident
// (smallest LR).
//
// Chaos admission runs first, table by table; detectTables then scores
// the admitted tables.
func (p *Predictor) DetectAll(ctx context.Context, tables []*table.Table) []Finding {
	sp := obs.StartSpan(ctx, "core/detect_all")
	sp.Tag("tables", len(tables))
	defer sp.End()
	if p.Inject != nil {
		admitted := make([]*table.Table, 0, len(tables))
		for _, t := range tables {
			if p.admitTable(ctx, t) {
				admitted = append(admitted, t)
			}
		}
		tables = admitted
	}
	return p.detectTables(ctx, tables)
}

// detectTables is the one detect path, shared by DetectAll and
// SourceScan.Finish: the fast path batches the column-granular units of
// every table through a bounded worker pool (fastpath.go); Reference
// scores the tables one after another with referenceScore. Findings come
// back ranked. The column profiles and fingerprint memos the detectors
// and the cache built live for this call only: it drops them when it
// returns, so tables the caller keeps do not keep them.
//
// alloc-budget: 1 the reference path's result growth; the fast path allocates in detectAllFast
func (p *Predictor) detectTables(ctx context.Context, tables []*table.Table) []Finding {
	defer releaseTables(tables)
	if !p.Reference {
		return p.detectAllFast(ctx, tables)
	}
	var out []Finding
	var st scoreState
	for _, t := range tables {
		if ctx.Err() != nil {
			break
		}
		p.metrics().tables.Inc()
		st.reset()
		for _, det := range p.Detectors {
			p.referenceScore(&st, t, det)
		}
		out = append(out, st.findings()...)
	}
	SortFindings(out)
	return out
}

// releaseTables drops the profiles and fingerprint memos of tables.
func releaseTables(tables []*table.Table) {
	for _, t := range tables {
		t.Release()
	}
}

// referenceScore is the plain reference of PAPER.md §2.2.3's online
// step, the oracle detectTables scores with under Reference: measure t
// with det's own Measure, evaluate each valid measurement's LR from the
// model's maps (Model.LR), keep those with LR <= Alpha, and fold them
// into st by plain dedupKey strings.
//
// alloc-budget: 1 key order growth; the oracle allocates freely by design and is hot only through the Reference branch of detectTables
func (p *Predictor) referenceScore(st *scoreState, t *table.Table, det Detector) {
	cls := det.Class()
	for _, meas := range det.Measure(t, p.Env) {
		if !meas.Valid {
			continue
		}
		lr, support := p.Model.LR(cls, det, meas)
		if lr > p.Model.Config.Alpha {
			continue
		}
		f := Finding{
			Class:   cls,
			Table:   t.Name,
			Column:  meas.Column,
			Rows:    meas.Rows,
			Values:  meas.Values,
			LR:      lr,
			Theta1:  meas.Theta1,
			Theta2:  meas.Theta2,
			Support: support,
			Detail:  meas.Detail,
		}
		key := dedupKey(cls, meas.Rows)
		prev, seen := st.best[key]
		if !seen {
			st.order = append(st.order, key)
		}
		if !seen || f.LR < prev.LR || (stats.SameFloat(f.LR, prev.LR) && f.Column < prev.Column) {
			st.best[key] = f
		}
	}
}

// dedupKey renders the (class, row set) dedup key as a string.
//
// alloc-budget: 1 the key string the reference scorer dedups by
func dedupKey(cls Class, rows []int) string {
	return string(appendDedupKey(nil, cls, rows))
}

// appendDedupKey renders the (class, row set) dedup key into b, growing
// it as needed. The fast path hands it a per-scratch buffer and interns
// the result only when the key is first seen.
//
// alloc-budget: 2 appends extend the caller's reusable key buffer to steady state
func appendDedupKey(b []byte, cls Class, rows []int) []byte {
	b = append(b, byte(cls), ':')
	for _, r := range rows {
		b = appendInt(b, r)
		b = append(b, ',')
	}
	return b
}

// alloc-budget: 2 appends spill into the caller's reusable key buffer; tmp stays on the stack
func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// metrics resolves the predictor's metric children once; cheap and
// concurrency-safe thereafter (DetectAll shares one Predictor across
// workers). The ready flag keeps the steady state allocation-free:
// entering Once.Do would materialize its closure on every call.
func (p *Predictor) metrics() *predictMetrics {
	if p.metricsReady.Load() {
		return &p.pm
	}
	return p.metricsInit()
}

// metricsInit performs the one-time construction behind metrics.
//
// alloc-budget: 1 sync.Once closure, entered only until the ready flag flips
func (p *Predictor) metricsInit() *predictMetrics {
	p.metricsOnce.Do(func() {
		p.pm = newPredictMetrics(p.Obs)
		p.metricsReady.Store(true)
	})
	return &p.pm
}

func (p *Predictor) logf(format string, args ...any) {
	if p.Logf != nil {
		p.Logf(format, args...)
	}
}
