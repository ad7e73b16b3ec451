package testkit_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/faultinject"
	"github.com/unidetect/unidetect/internal/mapreduce"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/testkit"
)

// chaosCorpus generates a small training corpus; chaos tests iterate
// seeds, so it stays cheap.
func chaosCorpus(seed int64) *corpus.Corpus {
	spec := datagen.Spec{Name: "chaos", Profile: datagen.ProfileWeb, NumTables: 120,
		AvgRows: 16, AvgCols: 4, Seed: seed}
	return corpus.New(spec.Name, datagen.Generate(spec).Tables)
}

// evalTables generates tables with injected errors to score models on.
func evalTables(seed int64) *datagen.Result {
	return datagen.Generate(datagen.Spec{Name: "chaos-eval", Profile: datagen.ProfileWeb,
		NumTables: 40, AvgRows: 20, AvgCols: 4, ErrorRate: 1.5, Seed: seed})
}

func saveBytes(t *testing.T, m *core.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// retry is the policy the transient schedules are designed against (see
// TrainChaos): enough attempts that a fail-fast job always completes.
func retry() mapreduce.RetryPolicy {
	return mapreduce.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond,
		MaxDelay: 8 * time.Millisecond, Jitter: 0.5}
}

// parseRegistry round-trips a registry through its own text exposition,
// so every metric assertion in the chaos suite also validates the
// format end to end.
func parseRegistry(t *testing.T, reg *obs.Registry) map[string]*obs.PromFamily {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePromText(&sb); err != nil {
		t.Fatalf("write exposition: %v", err)
	}
	fams, err := obs.ParseProm(sb.String())
	if err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, sb.String())
	}
	return fams
}

// TestChaosTrainMatchesClean is the central metamorphic property of the
// fault-tolerant trainer: a run whose every fault is transient (absorbed
// by retries, no shard loss) must produce the *byte-identical* model of a
// fault-free run — retries, backoff, panics and injected delays must
// leave no trace in the learned statistics.
func TestChaosTrainMatchesClean(t *testing.T) {
	bg := chaosCorpus(3)
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	dets := detectors.All(cfg, detectors.Options{})
	ctx := context.Background()

	clean, err := core.Train(ctx, cfg, bg, dets)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := saveBytes(t, clean)
	evals := evalTables(9)
	cleanFindings := core.NewPredictor(clean, dets, &core.Env{Index: bg.Index()}).
		DetectAll(ctx, evals.Tables)
	if len(cleanFindings) == 0 {
		t.Fatal("clean model found nothing on error-injected tables; test has no power")
	}

	for _, seed := range testkit.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clock := &testkit.VirtualClock{}
			inj := faultinject.New(seed, testkit.TrainChaos(0.04)...).WithClock(clock)
			testkit.DumpTranscriptOnFailure(t, seed, inj)
			// Full instrumentation on the virtual clock: metrics, spans
			// and phase timings must leave the learned bytes untouched.
			reg := obs.NewRegistry().WithClock(clock)
			tracer := obs.NewTracer(reg, 64)
			stats := &mapreduce.Stats{}
			m, err := core.TrainWith(obs.WithTracer(ctx, tracer), cfg, core.TrainOptions{FT: mapreduce.FT{
				Retry: retry(), Seed: seed, Inject: inj, Clock: clock,
				Stats: stats, Logf: t.Logf, Obs: reg,
			}}, bg, dets)
			if err != nil {
				t.Fatalf("transient chaos killed a retrying train: %v", err)
			}
			if inj.Fires() == 0 {
				t.Fatal("schedule fired no faults; test has no power")
			}
			if stats.MapRetries == 0 {
				t.Error("no map retries recorded despite every shard's first attempt failing")
			}
			// The registry's view must agree with the Stats the job
			// reported through the legacy channel.
			fams := parseRegistry(t, reg)
			if s, ok := obs.Sample(fams, "unidetect_mapreduce_retries_total",
				map[string]string{"phase": "map"}); !ok || int(s.Value) != stats.MapRetries {
				t.Errorf("map retries metric = %+v, want %d", s, stats.MapRetries)
			}
			if spans, total := tracer.Finished(); total < 3 || len(spans) == 0 {
				t.Errorf("expected train + both phase spans, got %d", total)
			}
			if stats.Lost() != 0 {
				t.Errorf("transient schedule lost work: %+v", stats)
			}
			if !bytes.Equal(saveBytes(t, m), cleanBytes) {
				t.Error("chaos-trained model differs from clean model")
			}
			// LR agreement on error-injected tables: same model bytes must
			// mean same findings, checked end to end through the predictor.
			got := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()}).
				DetectAll(ctx, evals.Tables)
			if len(got) != len(cleanFindings) {
				t.Fatalf("chaos model found %d findings, clean %d", len(got), len(cleanFindings))
			}
			for i := range got {
				c, g := cleanFindings[i], got[i]
				if c.Table != g.Table || c.Column != g.Column || c.LR != g.LR {
					t.Fatalf("finding %d disagrees: clean %s/%s LR=%g vs chaos %s/%s LR=%g",
						i, c.Table, c.Column, c.LR, g.Table, g.Column, g.LR)
				}
			}
		})
	}
}

// TestChaosResumeEqualsRestart is the multi-seed metamorphic form of the
// checkpoint acceptance test: kill training mid-reduce under each seed's
// schedule, resume from the checkpoint, and require byte-identity with
// the uninterrupted run.
func TestChaosResumeEqualsRestart(t *testing.T) {
	bg := chaosCorpus(5)
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	dets := detectors.All(cfg, detectors.Options{})
	ctx := context.Background()

	clean, err := core.Train(ctx, cfg, bg, dets)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := saveBytes(t, clean)

	for _, seed := range testkit.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed, testkit.TrainKill(0.5)...)
			testkit.DumpTranscriptOnFailure(t, seed, inj)
			// One registry and tracer across kill and resume, as a
			// long-lived process would have: spans enabled end to end.
			reg := obs.NewRegistry()
			ctx := obs.WithTracer(ctx, obs.NewTracer(reg, 64))
			ckpt := filepath.Join(t.TempDir(), "train.ckpt")
			_, err := core.TrainWith(ctx, cfg, core.TrainOptions{
				FT:             mapreduce.FT{Inject: inj, Seed: seed, Logf: t.Logf, Obs: reg},
				CheckpointPath: ckpt,
			}, bg, dets)
			if err == nil {
				t.Fatal("lethal schedule did not kill the run")
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("run died of %v, not an injected fault", err)
			}
			killFams := parseRegistry(t, reg)
			killWritten, _ := obs.Sample(killFams, "unidetect_train_checkpoint_buckets_written_total", nil)
			resumed, err := core.TrainWith(ctx, cfg, core.TrainOptions{
				FT:             mapreduce.FT{Logf: t.Logf, Obs: reg},
				CheckpointPath: ckpt,
			}, bg, dets)
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if !bytes.Equal(saveBytes(t, resumed), cleanBytes) {
				t.Error("resumed model differs from uninterrupted model")
			}
			// Every bucket the killed run durably wrote — and only those —
			// must come back from the checkpoint on resume.
			fams := parseRegistry(t, reg)
			resumedN, _ := obs.Sample(fams, "unidetect_train_checkpoint_buckets_resumed_total", nil)
			if resumedN.Value != killWritten.Value {
				t.Errorf("resumed %v buckets, but the killed run wrote %v", resumedN.Value, killWritten.Value)
			}
			wantResumes := 0.0
			if killWritten.Value > 0 {
				wantResumes = 1
			}
			if s, ok := obs.Sample(fams, "unidetect_train_resumes_total", nil); !ok || s.Value != wantResumes {
				t.Errorf("resumes metric = %v, want %v", s.Value, wantResumes)
			}
		})
	}
}

// TestChaosShardKillResumeMerge extends the resume property to
// partitioned training: kill a sharded run under each seed's lethal
// schedule, resume it against the same shard directory, and require the
// merged model to be byte-identical to an uninterrupted run. Completed
// shards must come back from their persisted models (counted against
// the .model files the killed run left behind), not from retraining.
func TestChaosShardKillResumeMerge(t *testing.T) {
	bg := chaosCorpus(21)
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	dets := detectors.All(cfg, detectors.Options{})
	ctx := context.Background()
	const shards = 3

	clean, err := core.TrainSharded(ctx, cfg, core.ShardedOptions{Shards: shards}, bg, dets)
	if err != nil {
		t.Fatal(err)
	}
	cleanBytes := saveBytes(t, clean)
	mono, err := core.Train(ctx, cfg, bg, dets)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cleanBytes, saveBytes(t, mono)) {
		t.Fatal("sharded training differs from monolithic before any chaos; merge tier broken")
	}

	countShardModels := func(dir string) int {
		t.Helper()
		models, err := filepath.Glob(filepath.Join(dir, "shard-*.model"))
		if err != nil {
			t.Fatal(err)
		}
		return len(models)
	}

	for _, seed := range testkit.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed, testkit.TrainKill(0.5)...)
			testkit.DumpTranscriptOnFailure(t, seed, inj)
			reg := obs.NewRegistry()
			dir := t.TempDir()
			_, err := core.TrainSharded(ctx, cfg, core.ShardedOptions{
				TrainOptions: core.TrainOptions{FT: mapreduce.FT{
					Inject: inj, Seed: seed, Logf: t.Logf, Obs: reg,
				}},
				Shards: shards, Dir: dir,
			}, bg, dets)
			if err == nil {
				t.Fatal("lethal schedule did not kill the sharded run")
			}
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("run died of %v, not an injected fault", err)
			}
			persisted := countShardModels(dir)

			resumed, err := core.TrainSharded(ctx, cfg, core.ShardedOptions{
				TrainOptions: core.TrainOptions{FT: mapreduce.FT{Logf: t.Logf, Obs: reg}},
				Shards:       shards, Dir: dir,
			}, bg, dets)
			if err != nil {
				t.Fatalf("resume failed: %v", err)
			}
			if !bytes.Equal(saveBytes(t, resumed), cleanBytes) {
				t.Error("resumed sharded model differs from the uninterrupted run")
			}
			if countShardModels(dir) != 0 {
				t.Error("shard models left behind after a successful merge")
			}
			// Exactly the shards the killed run persisted come back from
			// disk; the rest train, and exactly one merge folds them.
			fams := parseRegistry(t, reg)
			if s, _ := obs.Sample(fams, "unidetect_train_shard_models_resumed_total", nil); int(s.Value) != persisted {
				t.Errorf("shard models resumed = %v, but the killed run persisted %d", s.Value, persisted)
			}
			if s, _ := obs.Sample(fams, "unidetect_train_merges_total", nil); s.Value != 1 {
				t.Errorf("merges = %v, want 1 (only the resumed run merges)", s.Value)
			}
			if s, _ := obs.Sample(fams, "unidetect_train_shards_total", nil); int(s.Value) < shards {
				t.Errorf("shards trained = %v across kill+resume, want >= %d", s.Value, shards)
			}
		})
	}

	// A fixed schedule that kills exactly the second shard job's map
	// phase: shard 0 completes and must resume from its persisted model.
	t.Run("dead-second-shard", func(t *testing.T) {
		inj := faultinject.New(1, faultinject.Rule{
			Site: "mapreduce/map/shard=2", Hits: []int{2},
			Fault: faultinject.Fault{Err: errors.New("chaos: dead map")},
		})
		testkit.DumpTranscriptOnFailure(t, 1, inj)
		reg := obs.NewRegistry()
		dir := t.TempDir()
		_, err := core.TrainSharded(ctx, cfg, core.ShardedOptions{
			TrainOptions: core.TrainOptions{FT: mapreduce.FT{Inject: inj, Seed: 1, Obs: reg}},
			Shards:       shards, Dir: dir,
		}, bg, dets)
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("want an injected death, got %v", err)
		}
		if got := countShardModels(dir); got != 1 {
			t.Fatalf("killed run persisted %d shard models, want exactly shard 0", got)
		}
		resumed, err := core.TrainSharded(ctx, cfg, core.ShardedOptions{
			TrainOptions: core.TrainOptions{FT: mapreduce.FT{Obs: reg}},
			Shards:       shards, Dir: dir,
		}, bg, dets)
		if err != nil {
			t.Fatalf("resume failed: %v", err)
		}
		if !bytes.Equal(saveBytes(t, resumed), cleanBytes) {
			t.Error("resumed sharded model differs from the uninterrupted run")
		}
		fams := parseRegistry(t, reg)
		if s, _ := obs.Sample(fams, "unidetect_train_shard_models_resumed_total", nil); s.Value != 1 {
			t.Errorf("shard models resumed = %v, want exactly 1 (shard 0)", s.Value)
		}
	})
}

// TestChaosLossBudget exercises graceful degradation end to end: a
// permanently dead shard under skip-and-log yields a model that still
// detects errors, and the loss is visible in Stats rather than silent.
func TestChaosLossBudget(t *testing.T) {
	bg := chaosCorpus(7)
	cfg := core.DefaultConfig()
	dets := detectors.All(cfg, detectors.Options{})
	ctx := context.Background()

	for _, seed := range testkit.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			shard := int(seed) % bg.NumTables()
			inj := faultinject.New(seed, testkit.DeadShard(shard))
			testkit.DumpTranscriptOnFailure(t, seed, inj)
			stats := &mapreduce.Stats{}
			m, err := core.TrainWith(ctx, cfg, core.TrainOptions{FT: mapreduce.FT{
				Retry:   mapreduce.RetryPolicy{MaxAttempts: 2},
				Policy:  mapreduce.SkipAndLog,
				MaxLost: 3,
				Seed:    seed,
				Inject:  inj,
				Stats:   stats,
				Logf:    t.Logf,
			}}, bg, dets)
			if err != nil {
				t.Fatalf("within-budget loss aborted training: %v", err)
			}
			if len(stats.LostShards) != 1 || stats.LostShards[0] != shard {
				t.Errorf("LostShards = %v, want [%d]", stats.LostShards, shard)
			}
			evals := evalTables(11)
			found := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()}).
				DetectAll(ctx, evals.Tables)
			if len(found) == 0 {
				t.Error("degraded model detects nothing; degradation is not graceful")
			}
		})
	}
}

// TestGoldenTranscript pins the exact fault schedule seed 1 produces on
// a fixed job. The schedule is a pure function of (seed, site, ordinal),
// so the sorted transcript is reproducible across runs, interleavings
// and platforms — any drift means the hash chain changed and every
// recorded chaos run's meaning silently shifted.
func TestGoldenTranscript(t *testing.T) {
	bg := chaosCorpus(3)
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	dets := detectors.All(cfg, detectors.Options{})
	clock := &testkit.VirtualClock{}
	inj := faultinject.New(1, testkit.TrainChaos(0.04)...).WithClock(clock)
	if _, err := core.TrainWith(context.Background(), cfg, core.TrainOptions{FT: mapreduce.FT{
		Retry: retry(), Seed: 1, Inject: inj, Clock: clock,
	}}, bg, dets); err != nil {
		t.Fatal(err)
	}
	events := inj.Transcript()
	faultinject.SortEvents(events)
	testkit.Golden(t, filepath.Join("testdata", "golden", "train-seed1-transcript.txt"),
		faultinject.FormatTranscript(events))
}

// TestChaosPredictDegradation pins the accounting of graceful
// degradation on the batch predict path: the degraded-table counter and
// the set of logged sites must match the faultinject transcript exactly
// — every injected fault degrades exactly one table, every degradation
// is logged, and nothing degrades without an injected cause.
func TestChaosPredictDegradation(t *testing.T) {
	bg := chaosCorpus(13)
	cfg := core.DefaultConfig()
	cfg.Workers = 4
	dets := detectors.All(cfg, detectors.Options{})
	ctx := context.Background()
	m, err := core.Train(ctx, cfg, bg, dets)
	if err != nil {
		t.Fatal(err)
	}
	evals := evalTables(17)

	for _, seed := range testkit.Seeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inj := faultinject.New(seed, testkit.PredictChaos(0.2)...)
			testkit.DumpTranscriptOnFailure(t, seed, inj)
			reg := obs.NewRegistry()
			var mu sync.Mutex
			var logged []string // guarded by mu
			p := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()})
			p.Inject = inj
			p.Obs = reg
			p.Logf = func(format string, args ...any) {
				mu.Lock()
				logged = append(logged, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			p.DetectAll(ctx, evals.Tables)

			events := inj.Transcript()
			if len(events) == 0 {
				t.Fatal("schedule fired no faults; test has no power")
			}
			wantSites := make([]string, len(events))
			for i, e := range events {
				wantSites[i] = e.Site
			}
			sort.Strings(wantSites)

			// Every log line names the degraded table; rebuild the site
			// set from the logs and require exact equality.
			gotSites := make([]string, 0, len(logged))
			for _, line := range logged {
				name, ok := degradedTable(line)
				if !ok {
					t.Fatalf("unparseable degradation log %q", line)
				}
				gotSites = append(gotSites, "core/predict/table="+name)
			}
			sort.Strings(gotSites)
			if !slices.Equal(gotSites, wantSites) {
				t.Errorf("logged sites diverge from transcript:\nlogged: %v\ntranscript: %v",
					gotSites, wantSites)
			}

			fams := parseRegistry(t, reg)
			if s, ok := obs.Sample(fams, "unidetect_predict_degraded_tables_total", nil); !ok || int(s.Value) != len(events) {
				t.Errorf("degraded counter = %v, want %d (one per transcript event)", s.Value, len(events))
			}
			if s, ok := obs.Sample(fams, "unidetect_predict_tables_total", nil); !ok ||
				int(s.Value) != len(evals.Tables)-len(events) {
				t.Errorf("scored tables = %v, want %d of %d (rest degraded)",
					s.Value, len(evals.Tables)-len(events), len(evals.Tables))
			}
		})
	}
}

// degradedTable extracts the quoted table name from an admitTable
// degradation log line.
func degradedTable(line string) (string, bool) {
	const prefix = `core: predict table "`
	if !strings.HasPrefix(line, prefix) {
		return "", false
	}
	rest := line[len(prefix):]
	end := strings.Index(rest, `"`)
	if end < 0 {
		return "", false
	}
	return rest[:end], true
}

// TestVirtualClock pins the clock's contract: sleeps accumulate without
// blocking and a cancelled context short-circuits.
func TestVirtualClock(t *testing.T) {
	c := &testkit.VirtualClock{}
	ctx := context.Background()
	if err := c.Sleep(ctx, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Sleep(ctx, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if c.Elapsed() != 5*time.Second {
		t.Errorf("Elapsed = %v, want 5s", c.Elapsed())
	}
	if got := c.Sleeps(); len(got) != 2 || got[0] != 3*time.Second {
		t.Errorf("Sleeps = %v", got)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := c.Sleep(cancelled, time.Second); err == nil {
		t.Error("Sleep on cancelled context returned nil")
	}
	if c.Elapsed() != 5*time.Second {
		t.Error("cancelled Sleep advanced the clock")
	}
}
