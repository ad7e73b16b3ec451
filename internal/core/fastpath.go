package core

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/unidetect/unidetect/internal/lrindex"
	"github.com/unidetect/unidetect/internal/stats"
	"github.com/unidetect/unidetect/internal/table"
)

// This file implements the serving fast path: the compact LR index in
// place of nested map lookups, column-granular work units in place of
// table shards, pooled scratch buffers, the per-column measurement
// cache, and score, the one scoring kernel of detectTables, which
// DetectAll and SourceScan.Finish share. Predictor.Reference swaps the
// kernel for the plain referenceScore (predict.go), and internal/difftest
// holds the two to byte-identical findings.

// BuildIndex compiles a trained model into the compact serving index
// (internal/lrindex). The model's grids must already be finalized —
// trained, merged and loaded models are; Build finalizes stragglers,
// which is not safe against concurrent builders sharing the grids.
//
// alloc-budget: 6 one-time model compilation, once per predictor lifetime
func BuildIndex(m *Model) *lrindex.Index {
	srcs := make([]lrindex.Source, 0, len(m.Classes))
	for cls, cm := range m.Classes {
		srcs = append(srcs, lrindex.Source{
			Class:   int(cls),
			Dirs:    cm.Dirs,
			Buckets: cm.Buckets,
			Global:  cm.Global,
		})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].Class < srcs[j].Class })
	return lrindex.Build(NumClasses, srcs, lrindex.Params{
		MinBucketSupport: m.Config.MinBucketSupport,
		NoFeaturize:      m.Config.NoFeaturize,
		PointEstimates:   m.Config.PointEstimates,
	})
}

// Warm forces the predictor's one-time lazy setup — the compiled LR
// index, the measurement cache and the metric children — so a serving
// process can ready a freshly loaded model off the request path and then
// swap it in atomically without the first request paying compilation.
func (p *Predictor) Warm() {
	p.lrIndex()
	p.measureCacheLazy()
	p.metrics()
}

// lrIndex compiles the model's bucket maps into the flat index once per
// predictor; concurrent DetectAll workers share the compiled result
// through the atomic pointer, so steady-state resolution is a single
// load with no Once.Do closure.
func (p *Predictor) lrIndex() *lrindex.Index {
	if ix := p.index.Load(); ix != nil {
		return ix
	}
	return p.lrIndexInit()
}

// lrIndexInit performs the one-time compilation behind lrIndex.
//
// alloc-budget: 1 sync.Once closure, entered only until the index pointer is published
func (p *Predictor) lrIndexInit() *lrindex.Index {
	p.indexOnce.Do(func() { p.index.Store(BuildIndex(p.Model)) })
	return p.index.Load()
}

// measureCacheLazy resolves the per-column measurement cache once.
// CacheSize 0 means the default budget; negative disables memoization
// (the resolved cache is nil, which is why readiness is a separate flag
// rather than a pointer test).
func (p *Predictor) measureCacheLazy() *measureCache {
	if p.cacheReady.Load() {
		return p.cache
	}
	return p.measureCacheInit()
}

// measureCacheInit performs the one-time resolution behind
// measureCacheLazy.
//
// alloc-budget: 1 sync.Once closure, entered only until the ready flag flips
func (p *Predictor) measureCacheInit() *measureCache {
	p.cacheOnce.Do(func() {
		size := p.CacheSize
		if size == 0 {
			size = defaultCacheSize
		}
		p.cache = newMeasureCache(size)
		p.cacheReady.Store(true)
	})
	return p.cache
}

// getScratch hands out a worker scratch, reusing a pooled one when the
// pool has any.
func (p *Predictor) getScratch() *Scratch {
	if sc, ok := p.scratches.Get().(*Scratch); ok {
		p.metrics().scratchReuse.Inc()
		return sc
	}
	return NewScratch()
}

// scoreState accumulates one table's findings with the cross-candidate
// dedup of DetectAll: per (class, row set), keep the most confident
// finding. detectAllFast's assembly pass borrows the one in a pooled
// Scratch and resets it per table, carrying its map buckets, key order
// and key buffer from table to table; the reference path keeps a local
// one.
type scoreState struct {
	best   map[string]Finding
	order  []string
	keyBuf []byte
}

// reset prepares st for a new table.
//
// alloc-budget: 1 dedup map allocated on first use per scratch, then cleared and reused
func (st *scoreState) reset() {
	if st.best == nil {
		st.best = make(map[string]Finding, 16)
	}
	clear(st.best)
	st.order = st.order[:0]
}

// score is the scoring kernel: it looks up the LR of every valid
// measurement of det (taken on table name) in the compact index, keeps
// those with LR <= Alpha, and folds them into st with DetectAll's dedup
// preference. referenceScore is its oracle.
//
// alloc-budget: 4 dedup keys intern on first sight or on a better finding; map probes convert without copying
func (p *Predictor) score(st *scoreState, name string, det Detector, ms []Measurement) {
	if len(ms) == 0 {
		return
	}
	pm := p.metrics()
	ix := p.lrIndex()
	cls := det.Class()
	q := det.Quantizer()
	alpha := p.Model.Config.Alpha
	for _, meas := range ms {
		if !meas.Valid {
			continue
		}
		b1, b2 := q.Bin(meas.Theta1), q.Bin(meas.Theta2)
		lr, support, oc := ix.LR(int(cls), meas.Key, b1, b2)
		pm.ixLookups.With(oc.String()).Inc()
		pm.lr.With(cls.String()).Observe(lr)
		if lr > alpha {
			continue
		}
		pm.findings.With(cls.String()).Inc()
		f := Finding{
			Class:   cls,
			Table:   name,
			Column:  meas.Column,
			Rows:    meas.Rows,
			Values:  meas.Values,
			LR:      lr,
			Theta1:  meas.Theta1,
			Theta2:  meas.Theta2,
			Support: support,
			Detail:  meas.Detail,
		}
		st.keyBuf = appendDedupKey(st.keyBuf[:0], cls, meas.Rows)
		prev, seen := st.best[string(st.keyBuf)]
		switch {
		case !seen:
			key := string(st.keyBuf)
			st.order = append(st.order, key)
			st.best[key] = f
		case f.LR < prev.LR || (stats.SameFloat(f.LR, prev.LR) && f.Column < prev.Column):
			st.best[string(st.keyBuf)] = f
		}
	}
}

// findings returns the deduplicated findings in first-seen order.
//
// alloc-budget: 2 result slice is returned to the caller and cannot be pooled
func (st *scoreState) findings() []Finding {
	out := make([]Finding, 0, len(st.order))
	for _, k := range st.order {
		out = append(out, st.best[k])
	}
	return out
}

// measureColumn measures one column of a column-granular detector,
// consulting the memoization cache first. Measurement counts are
// reported here, once per column, whether served from cache or
// computed — keeping the per-class totals identical to the reference
// path, where Detector.Measure counts per table.
func (p *Predictor) measureColumn(cmr ColumnMeasurer, t *table.Table, pos int, sc *Scratch) []Measurement {
	cls := cmr.Class()
	c := t.Columns[pos]
	cache := p.measureCacheLazy()
	if ms, ok := cache.get(cls, pos, c); ok {
		p.metrics().cacheOps.With("hit").Inc()
		p.Env.CountMeasurements(cls, len(ms))
		return ms
	}
	ms := cmr.MeasureColumn(t, pos, p.Env, sc)
	if cache != nil {
		cache.put(cls, pos, c, ms)
		p.metrics().cacheOps.With("miss").Inc()
	}
	p.Env.CountMeasurements(cls, len(ms))
	return ms
}

// measureTable measures one table-level (pair) detector, consulting the
// memoization cache first. Unlike ColumnMeasurer.MeasureColumn, Measure
// reports its own measurement count internally, so only the cache-hit
// replay counts here — keeping per-class totals identical to the
// reference path either way.
func (p *Predictor) measureTable(det Detector, t *table.Table) []Measurement {
	cls := det.Class()
	cache := p.measureCacheLazy()
	if ms, ok := cache.getTable(cls, t); ok {
		p.metrics().cacheOps.With("hit").Inc()
		p.Env.CountMeasurements(cls, len(ms))
		return ms
	}
	ms := det.Measure(t, p.Env)
	if cache != nil {
		cache.putTable(cls, t, ms)
		p.metrics().cacheOps.With("miss").Inc()
	}
	return ms
}

// fastUnit is one schedulable measurement of the batched pipeline: a
// single column of a column-granular detector, or a whole table for
// pair detectors (col == -1).
type fastUnit struct {
	ti  int // table index
	di  int // detector index
	col int // column position, or -1 for a table-level unit
}

// admitTable runs the per-table chaos gate of DetectAll. Both scorers
// sit behind it, and it runs over the call's tables in order before any
// measuring, so a chaos schedule hits each site with the same per-site
// ordinals and drops the same tables on both.
//
// alloc-budget: 4 chaos admission gate: recover shield and degradation logging, called only under fault injection
func (p *Predictor) admitTable(ctx context.Context, t *table.Table) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.logf("core: predict table %q panicked: %v; skipping", t.Name, r)
			p.metrics().degraded.Inc()
			ok = false
		}
	}()
	if err := p.Inject.Hit(ctx, "core/predict/table="+t.Name); err != nil {
		p.logf("core: predict table %q failed: %v; skipping", t.Name, err)
		p.metrics().degraded.Inc()
		return false
	}
	return true
}

// detectAllFast is the batched fast path of detectTables: every table
// is decomposed into column-granular units, a bounded worker pool
// measures them with pooled scratch (so one wide table spreads across
// the pool, and /v1/batch requests coalesced into one call batch columns
// across requests), and a sequential assembly pass scores the results
// through the kernel in declared detector and column order. Findings are
// therefore byte-identical to the reference regardless of worker
// interleaving.
//
// alloc-budget: 10 per-batch pipeline setup: unit layout, result buffers, worker pool and assembly output, amortized over every column of the call
func (p *Predictor) detectAllFast(ctx context.Context, tables []*table.Table) []Finding {
	pm := p.metrics()

	// Units are laid out table-major, detectors in declared order,
	// columns in position order — the order the reference measures in —
	// so assembly is a single forward walk.
	var units []fastUnit
	for ti, t := range tables {
		for di, det := range p.Detectors {
			if _, ok := det.(ColumnMeasurer); ok {
				for pos := range t.Columns {
					units = append(units, fastUnit{ti: ti, di: di, col: pos})
				}
			} else {
				units = append(units, fastUnit{ti: ti, di: di, col: -1})
			}
		}
	}

	workers := p.Model.Config.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if workers > len(units) {
		workers = len(units)
	}
	results := make([][]Measurement, len(units))
	durs := make([]float64, len(units))
	poisoned := make([]atomic.Bool, len(tables))
	next := make(chan int)
	var wg sync.WaitGroup
	// The feeder joins the same WaitGroup as the workers, so the fast
	// path never returns with it live after a context cancellation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(next)
		for i := range units {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := p.getScratch()
			defer p.scratches.Put(sc)
			first := true
			for ui := range next {
				if first {
					first = false
				} else {
					pm.scratchReuse.Inc()
				}
				u := units[ui]
				start := p.Obs.Now()
				results[ui] = p.measureUnit(tables[u.ti], u, sc, &poisoned[u.ti])
				durs[ui] = (p.Obs.Now() - start).Seconds()
			}
		}()
	}
	wg.Wait()

	// Sequential assembly: walk the unit layout per table, score through
	// the kernel, dedup exactly as the reference does. One pooled score
	// state serves every table of the batch, reset between them.
	var out []Finding
	sc := p.getScratch()
	defer p.scratches.Put(sc)
	st := &sc.score
	ui := 0
	for ti, t := range tables {
		pm.tables.Inc()
		bad := poisoned[ti].Load()
		if bad {
			pm.degraded.Inc()
		}
		st.reset()
		for _, det := range p.Detectors {
			var sec float64
			consume := func() {
				if !bad {
					p.score(st, t.Name, det, results[ui])
				}
				sec += durs[ui]
				ui++
			}
			if _, ok := det.(ColumnMeasurer); ok {
				for range t.Columns {
					consume()
				}
			} else {
				consume()
			}
			if !bad {
				pm.detSeconds.With(det.Class().String()).Observe(sec)
			}
		}
		if !bad {
			out = append(out, st.findings()...)
		}
	}
	SortFindings(out)
	return out
}

// measureUnit measures one unit, shielding the batch from detector
// panics when chaos injection is live: the panicking table is poisoned
// and yields no findings instead of crashing the scan.
//
// alloc-budget: 2 panic shield closure and its log boxing, armed only under fault injection
func (p *Predictor) measureUnit(t *table.Table, u fastUnit, sc *Scratch, poison *atomic.Bool) (ms []Measurement) {
	if p.Inject != nil {
		defer func() {
			if r := recover(); r != nil {
				p.logf("core: predict table %q panicked: %v; skipping", t.Name, r)
				poison.Store(true)
				ms = nil
			}
		}()
	}
	det := p.Detectors[u.di]
	if u.col < 0 {
		return p.measureTable(det, t)
	}
	cmr, ok := det.(ColumnMeasurer)
	if !ok {
		// Unreachable by construction — column units are laid out only
		// for ColumnMeasurer detectors — but yielding no measurements
		// keeps the assembly walk aligned rather than crashing the batch.
		return nil
	}
	return p.measureColumn(cmr, t, u.col, sc)
}
