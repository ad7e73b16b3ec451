package core

import (
	"context"

	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/mapreduce"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/table"
)

// GlobalKey is the pseudo feature bucket holding whole-corpus statistics.
var GlobalKey = feature.GlobalKey

// WildRows and WildB mark wildcard buckets; see feature.WildRows. The
// wildcard/backoff scheme lives in the feature package so the compact LR
// index (internal/lrindex) can mirror the learner's bucket chain without
// importing core; these aliases keep the historical core names working.
const (
	WildRows = feature.WildRows
	WildB    = feature.WildB
)

// wildRowsKey returns key with its row bucket wildcarded.
func wildRowsKey(k feature.Key) feature.Key { return feature.WildRowsKey(k) }

// backoffKeys returns the bucket lookup chain for a key, most specific
// first (excluding the full key itself and the global grid).
func backoffKeys(k feature.Key) [3]feature.Key { return feature.Backoff(k) }

// bucketID identifies one reduce bucket of the learning job: an error
// class plus a feature bucket (or a wildcard/global pseudo-bucket).
type bucketID struct {
	class Class
	key   feature.Key
}

// binPair is one quantized (θ1, θ2) observation.
type binPair struct{ b1, b2 uint16 }

// TrainOptions carries the fault-tolerance and checkpointing knobs of
// the offline pass. The zero value trains exactly like Train always has:
// no retries, fail-fast, no checkpoint.
type TrainOptions struct {
	// FT configures per-shard retry, the failure policy and fault
	// injection of the underlying MapReduce job.
	FT mapreduce.FT
	// CheckpointPath, when non-empty, makes the job durably record each
	// completed reduce bucket there so a killed run can resume: a rerun
	// with the same corpus, config and path skips the recorded buckets
	// and produces a byte-identical model. The file is removed once
	// training completes.
	CheckpointPath string
}

// Train runs the offline learning pass: a MapReduce-like job over the
// background corpus T that, per error class and per feature bucket,
// materializes the joint (θ1, θ2) distribution (§2.2.3). The resulting
// Model answers online predictions by lookup.
func Train(ctx context.Context, cfg Config, bg *corpus.Corpus, detectors []Detector) (*Model, error) {
	return TrainWith(ctx, cfg, TrainOptions{}, bg, detectors)
}

// TrainWith is Train with fault tolerance: retry/skip policies from
// opts.FT and, when opts.CheckpointPath is set, checkpoint/resume of
// completed reduce buckets.
func TrainWith(ctx context.Context, cfg Config, opts TrainOptions, bg *corpus.Corpus, detectors []Detector) (*Model, error) {
	reg := opts.FT.Obs
	tm := newTrainMetrics(reg)
	tm.runs.Inc()
	sp := obs.StartSpan(ctx, "core/train")
	sp.Tag("tables", bg.NumTables())
	trainStart := reg.Now()
	defer func() {
		tm.seconds.Observe((reg.Now() - trainStart).Seconds())
		sp.End()
	}()

	env := &Env{Index: bg.Index(), Obs: reg}

	mapper := func(t *table.Table, emit func(bucketID, binPair)) error {
		// The column profiles the detectors share live for this task:
		// the corpus keeps its tables for the whole job.
		defer t.Release()
		for _, det := range detectors {
			q := det.Quantizer()
			cls := det.Class()
			for _, meas := range det.Measure(t, env) {
				p := binPair{uint16(q.Bin(meas.Theta1)), uint16(q.Bin(meas.Theta2))}
				emit(bucketID{cls, meas.Key}, p)
				for _, k := range backoffKeys(meas.Key) {
					emit(bucketID{cls, k}, p)
				}
				emit(bucketID{cls, GlobalKey}, p)
			}
		}
		return nil
	}
	reducer := func(id bucketID, pairs []binPair) (*evidence.Grid, error) {
		var bins int
		for _, det := range detectors {
			if det.Class() == id.class {
				bins = det.Quantizer().Bins()
				break
			}
		}
		g := evidence.NewGrid(bins)
		for _, p := range pairs {
			g.Add(int(p.b1), int(p.b2))
		}
		return g, nil
	}

	mrCfg := mapreduce.Config{Workers: cfg.Workers, FT: opts.FT}

	// With a checkpoint path, already-reduced buckets from a previous
	// (killed) run are restored and skipped; every newly completed
	// bucket is appended to the checkpoint before the job moves on.
	var ckpt *checkpointFile
	done := map[bucketID]*evidence.Grid{}
	if opts.CheckpointPath != "" {
		var err error
		ckpt, done, err = openCheckpoint(opts.CheckpointPath, fingerprint(cfg, bg, detectors), opts.FT.Logf)
		if err != nil {
			return nil, err
		}
		defer func() {
			if ckpt != nil {
				// Abandoned mid-job (error path): keep the file for resume.
				_ = ckpt.Close()
			}
		}()
	}

	if len(done) > 0 {
		tm.resumes.Inc()
		tm.ckResume.Add(int64(len(done)))
		sp.Tag("resumed_buckets", len(done))
	}

	groups, err := mapreduce.MapShuffle(ctx, mrCfg, bg.Tables, mapper)
	if err != nil {
		return nil, err
	}
	for id := range done {
		delete(groups, id)
	}
	var observe func(bucketID, *evidence.Grid) error
	if ckpt != nil {
		observe = func(id bucketID, g *evidence.Grid) error {
			if err := ckpt.append(id, g); err != nil {
				return err
			}
			tm.ckWrites.Inc()
			return nil
		}
	}
	grids, err := mapreduce.ReduceObserved(ctx, mrCfg, groups, reducer, observe)
	if err != nil {
		return nil, err
	}
	for id, g := range done {
		grids[id] = g
	}
	if ckpt != nil {
		if err := ckpt.CloseAndRemove(); err != nil {
			return nil, err
		}
		ckpt = nil
	}

	m := &Model{
		Classes:       make(map[Class]*ClassModel, len(detectors)),
		Config:        cfg,
		CorpusTables:  bg.NumTables(),
		CorpusColumns: bg.NumColumns(),
	}
	for _, det := range detectors {
		m.Classes[det.Class()] = &ClassModel{
			Dirs:    det.Directions(),
			Buckets: make(map[feature.Key]*evidence.Grid),
			Global:  evidence.NewGrid(det.Quantizer().Bins()),
		}
	}
	for id, g := range grids {
		cm := m.Classes[id.class]
		if cm == nil {
			continue
		}
		if id.key == GlobalKey {
			cm.Global.Merge(g)
		} else {
			cm.Buckets[id.key] = g
		}
	}
	for _, cm := range m.Classes {
		cm.finalize()
	}
	return m, nil
}
