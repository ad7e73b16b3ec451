package core

import (
	"github.com/unidetect/unidetect/internal/obs"
)

// trainMetrics bundles the offline-pass metric children. Fields are nil
// (no-op) without a registry.
type trainMetrics struct {
	runs         *obs.Counter
	resumes      *obs.Counter
	seconds      *obs.Histogram
	ckWrites     *obs.Counter
	ckResume     *obs.Counter
	shardRuns    *obs.Counter
	shardResumes *obs.Counter
	merges       *obs.Counter
}

// newTrainMetrics resolves the training metric children from r (nil-safe).
// Every training metric name literal lives here and nowhere else.
func newTrainMetrics(r *obs.Registry) trainMetrics {
	return trainMetrics{
		runs: r.Counter("unidetect_train_runs_total",
			"Offline learning passes started."),
		resumes: r.Counter("unidetect_train_resumes_total",
			"Learning passes that resumed work from a checkpoint."),
		seconds: r.Histogram("unidetect_train_seconds",
			"Wall time of the offline learning pass.", nil),
		ckWrites: r.Counter("unidetect_train_checkpoint_buckets_written_total",
			"Reduce buckets durably appended to the checkpoint."),
		ckResume: r.Counter("unidetect_train_checkpoint_buckets_resumed_total",
			"Reduce buckets restored from a checkpoint instead of recomputed."),
		shardRuns: r.Counter("unidetect_train_shards_total",
			"Corpus shards trained to completion by sharded learning passes."),
		shardResumes: r.Counter("unidetect_train_shard_models_resumed_total",
			"Completed shard models restored from disk instead of retrained."),
		merges: r.Counter("unidetect_train_merges_total",
			"Partial-model merges folding shard or incremental models."),
	}
}

// predictMetrics bundles the online-path metric children.
type predictMetrics struct {
	tables     *obs.Counter
	degraded   *obs.Counter
	detSeconds *obs.HistogramVec
	lr         *obs.HistogramVec
	findings   *obs.CounterVec
	// Fast-path instrumentation. ixLookups is deterministic for a given
	// corpus (one increment per scored measurement); cacheOps and
	// scratchReuse depend on worker interleaving and are excluded from
	// the benchmark baseline scrape.
	ixLookups    *obs.CounterVec
	cacheOps     *obs.CounterVec
	scratchReuse *obs.Counter
	// Streaming-scan instrumentation (SourceScan, so DetectSource and
	// jobs alike). Chunk and byte counters count every consumed chunk,
	// folded or degraded, and are deterministic for a given source; the
	// latency histogram times Fold's sketch fold, is wall-clock, and its
	// buckets and sum are excluded from baselines.
	chunksScanned    *obs.Counter
	scanBytes        *obs.Counter
	scanDegraded     *obs.Counter
	scanChunkSeconds *obs.Histogram
}

// newPredictMetrics resolves the prediction metric children from r
// (nil-safe). Every prediction metric name literal lives here.
func newPredictMetrics(r *obs.Registry) predictMetrics {
	return predictMetrics{
		tables: r.Counter("unidetect_predict_tables_total",
			"Tables scored by the predictor."),
		degraded: r.Counter("unidetect_predict_degraded_tables_total",
			"Tables whose findings were dropped by graceful degradation."),
		detSeconds: r.HistogramVec("unidetect_predict_detector_seconds",
			"Per-table prediction latency by detector (measure plus LR lookups).",
			"detector", nil),
		lr: r.HistogramVec("unidetect_predict_lr",
			"Likelihood ratios of valid measurements by detector.",
			"detector", obs.ScoreBuckets),
		findings: r.CounterVec("unidetect_predict_findings_total",
			"Findings emitted (before cross-candidate dedup) by detector.",
			"detector"),
		ixLookups: r.CounterVec("unidetect_predict_index_lookups_total",
			"Compact-index LR lookups by which backoff layer answered.",
			"outcome"),
		cacheOps: r.CounterVec("unidetect_predict_measure_cache_total",
			"Per-column measurement cache lookups by result.",
			"result"),
		scratchReuse: r.Counter("unidetect_predict_scratch_reuse_total",
			"Measurement units served by a reused worker scratch buffer."),
		chunksScanned: r.Counter("unidetect_scan_chunks_total",
			"Chunks consumed by streaming scans (DetectSource and jobs), folded or degraded."),
		scanBytes: r.Counter("unidetect_scan_bytes_total",
			"Cell payload bytes streamed out of chunked sources."),
		scanDegraded: r.Counter("unidetect_scan_degraded_chunks_total",
			"Chunks dropped by graceful degradation during streaming scans."),
		scanChunkSeconds: r.Histogram("unidetect_scan_chunk_seconds",
			"Per-chunk streaming scan latency of folded chunks (the sketch fold only; detection runs once at end of stream).", nil),
	}
}

// CountMeasurements records n measurements produced by a detector of
// class cls. Detectors call this at the end of Measure; the single call
// chain keeps the metric name at one registration site. Safe on a nil
// Env or an Env with no registry.
func (e *Env) CountMeasurements(cls Class, n int) {
	if e == nil || e.Obs == nil || n <= 0 {
		return
	}
	e.Obs.CounterVec("unidetect_detector_measurements_total",
		"Measurements produced by each detector's Measure.", "detector").
		With(cls.String()).Add(int64(n))
}
