package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
)

// This file implements distributed training: partitioned multi-shard
// learning (TrainSharded), the merge algebra that folds partial models
// (Merge), and incremental growth of an existing model (TrainIncremental).
//
// The whole design rests on one algebraic fact: a trained model is a
// collection of per-bucket (θ1, θ2) count grids, and counts are additive
// over disjoint table sets. Merging shard models by summing grids is
// therefore associative, commutative, has the empty model as identity,
// and — when every shard featurizes against the shared full-corpus token
// index (corpus.Partition guarantees this) — byte-identical to one
// monolithic pass over the whole corpus. internal/difftest's merge tier
// holds all four properties exactly.

// Merge folds partial models trained with the same configuration and
// detector set over disjoint corpus partitions into one model, as if
// trained on the concatenated corpus: per-bucket and global evidence
// counts are summed, and CorpusTables/CorpusColumns accumulate. It
// errors on models whose Config, class sets, directions or grid shapes
// disagree — those were not shards of one job.
func Merge(models ...*Model) (*Model, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("core: merge of zero models")
	}
	first := models[0]
	out := &Model{
		Classes: make(map[Class]*ClassModel, len(first.Classes)),
		Config:  first.Config,
	}
	for i, m := range models {
		if m.Config != first.Config {
			return nil, fmt.Errorf("core: model %d was trained under a different config", i)
		}
		if len(m.Classes) != len(first.Classes) {
			return nil, fmt.Errorf("core: merging models with different class sets (%d vs %d)",
				len(first.Classes), len(m.Classes))
		}
		out.CorpusTables += m.CorpusTables
		out.CorpusColumns += m.CorpusColumns
	}
	for cls, cf := range first.Classes {
		merged := &ClassModel{
			Dirs:    cf.Dirs,
			Buckets: make(map[feature.Key]*evidence.Grid, len(cf.Buckets)),
		}
		for i, m := range models {
			cm := m.Classes[cls]
			if cm == nil {
				return nil, fmt.Errorf("core: class %v missing from model %d", cls, i)
			}
			if cm.Dirs != cf.Dirs {
				return nil, fmt.Errorf("core: class %v direction mismatch in model %d", cls, i)
			}
			var err error
			if merged.Global, err = addGrid(merged.Global, cm.Global); err != nil {
				return nil, fmt.Errorf("core: class %v global grid: %w", cls, err)
			}
			for k, g := range cm.Buckets {
				if merged.Buckets[k], err = addGrid(merged.Buckets[k], g); err != nil {
					return nil, fmt.Errorf("core: class %v bucket %v: %w", cls, k, err)
				}
			}
		}
		merged.finalize()
		out.Classes[cls] = merged
	}
	return out, nil
}

// addGrid folds src's counts into acc and returns the accumulator,
// allocating it on first use. acc is always a fresh grid owned by the
// merge (never one of the input models'), so inputs stay untouched.
func addGrid(acc, src *evidence.Grid) (*evidence.Grid, error) {
	if src == nil {
		return acc, nil
	}
	if acc == nil {
		acc = evidence.NewGrid(src.N)
	}
	if acc.N != src.N {
		return nil, fmt.Errorf("grid bin mismatch (%d vs %d)", acc.N, src.N)
	}
	for i, c := range src.Counts {
		acc.Counts[i] += c
	}
	acc.Total += src.Total
	return acc, nil
}

// NewEmptyModel returns the identity element of Merge for a given
// configuration and detector set: a model with zero evidence whose merge
// into any same-shaped model reproduces that model byte for byte.
func NewEmptyModel(cfg Config, detectors []Detector) *Model {
	m := &Model{Classes: make(map[Class]*ClassModel, len(detectors)), Config: cfg}
	for _, det := range detectors {
		cm := &ClassModel{
			Dirs:    det.Directions(),
			Buckets: make(map[feature.Key]*evidence.Grid),
			Global:  evidence.NewGrid(det.Quantizer().Bins()),
		}
		cm.finalize()
		m.Classes[det.Class()] = cm
	}
	return m
}

// ShardedOptions parameterizes TrainSharded.
type ShardedOptions struct {
	TrainOptions
	// Shards is the number of corpus partitions trained independently;
	// values below 2 degenerate to a single monolithic pass. Clamped to
	// the corpus size.
	Shards int
	// Dir, when non-empty, makes the pass crash-safe: each shard
	// checkpoints its reduce buckets there (TrainOptions.CheckpointPath
	// semantics, one file per shard), and each completed shard persists
	// its partial model, keyed by the shard's job fingerprint. A rerun
	// with the same corpus, config and Dir reloads finished shards,
	// resumes the interrupted one from its checkpoint, and produces a
	// byte-identical model. All shard files are removed once the merged
	// model is assembled.
	Dir string
}

// TrainSharded runs the offline learning pass as k independent jobs over
// contiguous corpus partitions and merges the partial models — the
// paper's "MapReduce-like jobs to crunch T" (§2.2.3) at the granularity
// above single-process mapreduce. Every shard shares the full corpus's
// token-prevalence index (corpus.Partition), so the merged model is
// byte-identical to TrainWith over the whole corpus.
//
// Shards run sequentially, not concurrently: fault-injection sites
// ("mapreduce/map/shard=N", reduce keys) recur across shard jobs, and
// sequential execution keeps each site's hit ordinals — and therefore
// every chaos schedule — deterministic. Shard-level parallelism is the
// multi-process deployment's concern; in-process parallelism stays
// inside each job's worker pool.
func TrainSharded(ctx context.Context, cfg Config, opts ShardedOptions, bg *corpus.Corpus, detectors []Detector) (*Model, error) {
	k := opts.Shards
	if k < 1 {
		k = 1
	}
	if n := bg.NumTables(); k > n && n > 0 {
		k = n
	}
	tm := newTrainMetrics(opts.FT.Obs)
	parts := bg.Partition(k)
	shards := make([]*Model, len(parts))
	for i, part := range parts {
		fp := fingerprint(cfg, part, detectors)
		var modelPath string
		if opts.Dir != "" {
			modelPath = filepath.Join(opts.Dir, fmt.Sprintf("shard-%d-of-%d.model", i, len(parts)))
			if m, ok := loadShardModel(modelPath, fp, opts.FT.Logf); ok {
				shards[i] = m
				tm.shardResumes.Inc()
				continue
			}
		}
		topts := opts.TrainOptions
		if opts.Dir != "" {
			topts.CheckpointPath = filepath.Join(opts.Dir, fmt.Sprintf("shard-%d-of-%d.ckpt", i, len(parts)))
		}
		m, err := TrainWith(ctx, cfg, topts, part, detectors)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d/%d: %w", i, len(parts), err)
		}
		tm.shardRuns.Inc()
		if modelPath != "" {
			if err := saveShardModel(modelPath, fp, m); err != nil {
				return nil, err
			}
		}
		shards[i] = m
	}
	merged, err := Merge(shards...)
	if err != nil {
		return nil, err
	}
	tm.merges.Inc()
	if opts.Dir != "" {
		for i := range parts {
			_ = os.Remove(filepath.Join(opts.Dir, fmt.Sprintf("shard-%d-of-%d.model", i, len(parts))))
		}
	}
	return merged, nil
}

// TrainIncremental folds newly arrived tables into an existing model
// without re-scanning the old corpus: the delta corpus is trained alone
// and merged into base. The result is byte-identical to retraining from
// scratch exactly when base and delta share one frozen featurization
// index spanning the union corpus (corpus.WithSharedIndex); a delta
// trained against its own index drifts by whatever its token prevalences
// differ from the union's.
func TrainIncremental(ctx context.Context, cfg Config, opts TrainOptions, base *Model, delta *corpus.Corpus, detectors []Detector) (*Model, error) {
	dm, err := TrainWith(ctx, cfg, opts, delta, detectors)
	if err != nil {
		return nil, err
	}
	merged, err := Merge(base, dm)
	if err != nil {
		return nil, err
	}
	newTrainMetrics(opts.FT.Obs).merges.Inc()
	return merged, nil
}

// Shard model file layout: magic, 8-byte big-endian job fingerprint,
// then the model in Model.Save's format. The fingerprint ties the file
// to one (config, partition, detectors) job exactly as checkpoints do,
// so a stale file from a different partitioning is retrained, never
// merged.
var shardMagic = []byte("UNIDETECT-SHARD\x01")

// saveShardModel durably persists a completed shard's partial model:
// written to a temp file and renamed into place, so a crash mid-write
// leaves no file that could pass the magic check.
func saveShardModel(path string, fp uint64, m *Model) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("core: create shard model: %w", err)
	}
	err = func() error {
		if _, err := f.Write(shardMagic); err != nil {
			return err
		}
		var fpb [8]byte
		binary.BigEndian.PutUint64(fpb[:], fp)
		if _, err := f.Write(fpb[:]); err != nil {
			return err
		}
		return m.Save(f)
	}()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return fmt.Errorf("core: write shard model %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("core: commit shard model: %w", err)
	}
	return nil
}

// loadShardModel restores a completed shard's model if path holds one
// for the job identified by fp. Any mismatch — missing file, wrong
// magic, foreign fingerprint, torn payload — reports false and the shard
// retrains (its checkpoint, if any, still resumes the fine-grained way).
func loadShardModel(path string, fp uint64, logf func(string, ...any)) (*Model, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	header := make([]byte, len(shardMagic)+8)
	if _, err := io.ReadFull(f, header); err != nil {
		return nil, false
	}
	if !bytes.Equal(header[:len(shardMagic)], shardMagic) {
		return nil, false
	}
	if got := binary.BigEndian.Uint64(header[len(shardMagic):]); got != fp {
		if logf != nil {
			logf("core: shard model %s belongs to a different job (fingerprint %x != %x); retraining", path, got, fp)
		}
		return nil, false
	}
	m, err := LoadModel(f)
	if err != nil {
		if logf != nil {
			logf("core: shard model %s unreadable (%v); retraining", path, err)
		}
		return nil, false
	}
	if logf != nil {
		logf("core: resuming completed shard model %s", path)
	}
	return m, true
}
