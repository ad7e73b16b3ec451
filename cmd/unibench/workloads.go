package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/table"
)

// sizes are a run's input sizes. Scale 1 is the benchmark; the smoke test
// shrinks the corpus and the jobs.
type sizes struct {
	corpus   int // background corpus tables
	setups   int // set-ups timed for setup_s
	pool     int // serve_hot's recurring tables
	batch    int // tables per DetectAll call
	verify   int // tables checked against the oracle before timing
	replay   int // tables the traced run replays through the layers
	jobRows  int // rows per jobs_large CSV
	checkJob int // rows of the job checked against the oracle
	traceJob int // rows of the job the traced run replays
}

func sizesFor(scale float64) sizes {
	at := func(n int, floor int) int { return max(floor, int(math.Round(float64(n)*scale))) }
	return sizes{
		corpus:   at(2000, 20),
		setups:   at(3, 1),
		pool:     at(48, 8),
		batch:    32,
		verify:   at(64, 8),
		replay:   at(48, 8),
		jobRows:  at(16384, 600),
		checkJob: at(4096, 300),
		traceJob: at(8192, 300),
	}
}

const (
	// conns is the client's connection (and caller) budget: the load of
	// one process on this 2-core box.
	conns = 2
	// hotRate and freshRate are the open-loop reference rates (req/s)
	// at which serve_hot and serve_fresh latency is reported.
	hotRate   = 1000
	freshRate = 100
	// openShare is the part of a serving phase spent at the reference
	// rate; the rest measures saturation throughput.
	openShare = 2.0 / 3
	// jobChunkRows is the job tier's default chunk geometry.
	jobChunkRows = 256
	// jobPoll is how often a job client asks for its job's state.
	jobPoll = 10 * time.Millisecond
	// hotPerSecond and freshPerSecond bound the requests a saturation
	// phase may send per second; past them the phase ends early rather
	// than repeat a fresh table.
	hotPerSecond   = 20000
	freshPerSecond = 800
	// batchesPerSecond and jobsPerSecond bound the batch_fresh and
	// jobs_large inputs generated per second of phase the same way; all
	// are generated before the phase, so the phase times no generation.
	batchesPerSecond = 20
	jobsPerSecond    = 2.2
)

// bench is the state one workload run shares.
type bench struct {
	ctx    context.Context
	st     *stack
	orc    *oracle
	tr     *tracer
	client *http.Client
	seed   int64
	sz     sizes
	diag   map[string]float64
}

// measured is one timed phase of a workload.
type measured struct {
	cellsPerS float64
	lat       []float64 // the samples p50_ms and p99_ms come from
	late      []float64 // generator lateness at the reference rate
	ops       int
	failed    int
	wrong     []string
	cost      float64 // the headline cost trace.overhead_ratio compares
}

// workload is one traffic mix of the benchmark.
type workload interface {
	// verify sends the fixed verification subset through the path under
	// test and compares the outputs with the reference predictor.
	verify(b *bench) error
	// measure runs the timed phase for d. Fresh inputs continue where
	// the previous call stopped, so no input repeats within a run.
	measure(b *bench, d time.Duration) measured
	// units are the inputs the traced run replays through the layers.
	units(b *bench) []unit
}

// unit is one input of the traced replay: a table, or a CSV that is
// streamed in chunks like a job.
type unit struct {
	name   string
	csv    []byte
	stream bool
}

func tableUnits(gs []genTable) []unit {
	out := make([]unit, len(gs))
	for i, g := range gs {
		out[i] = unit{name: g.t.Name, csv: g.csv}
	}
	return out
}

// workloads lists the benchmark's workloads; BENCHMARK.json and README.md
// record why each exists.
var workloads = []struct {
	name string
	make func() workload
}{
	{"batch_fresh", func() workload { return &batchFresh{} }},
	{"serve_hot", func() workload { return &serveHot{} }},
	{"serve_fresh", func() workload { return &serveFresh{} }},
	{"jobs_large", func() workload { return &jobsLarge{} }},
}

// verifyBatch compares DetectAll over tables with the reference and
// records precision@100 of the ranked result against the planted labels.
func verifyBatch(b *bench, gs []genTable) error {
	tables := make([]*table.Table, len(gs))
	var labels []datagen.Label
	for i, g := range gs {
		tables[i] = g.t
		labels = append(labels, g.labels...)
	}
	want := b.orc.detectAll(b.ctx, tables)
	if err := diffFindings(want, fromPublic(b.st.model.DetectAll(b.ctx, tables))); err != nil {
		return fmt.Errorf("DetectAll: %w", err)
	}
	b.diag["precision_at_100"] = precisionAt100(want, labels)
	return nil
}

// verifyServed posts every table to /v1/detect and compares each reply
// with the reference; it returns the replies.
func verifyServed(b *bench, gs []genTable) ([][]byte, error) {
	replies := make([][]byte, len(gs))
	tables := make([]*table.Table, len(gs))
	var labels []datagen.Label
	for i, g := range gs {
		code, reply, err := post(b.ctx, b.client, b.st.detectURL(g.t.Name), "text/csv", g.csv, 0)
		if err != nil || code != http.StatusOK {
			return nil, fmt.Errorf("POST %s: status %d: %v", g.t.Name, code, err)
		}
		got, err := decodeDetect(reply)
		if err != nil {
			return nil, err
		}
		if err := diffFindings(b.orc.detectAll(b.ctx, []*table.Table{g.t}), got); err != nil {
			return nil, fmt.Errorf("/v1/detect %s: %w", g.t.Name, err)
		}
		replies[i] = reply
		tables[i] = g.t
		labels = append(labels, g.labels...)
	}
	b.diag["precision_at_100"] = precisionAt100(b.orc.detectAll(b.ctx, tables), labels)
	return replies, nil
}

// batchFresh: closed loop, one caller, DetectAll on batches of fresh
// in-memory tables, each batch generated outside the timed call.
type batchFresh struct {
	live *tableStream
}

func (w *batchFresh) verify(b *bench) error {
	return verifyBatch(b, newTableStream(b.seed, "verify", false).take(b.sz.verify))
}

func (w *batchFresh) measure(b *bench, d time.Duration) measured {
	if w.live == nil {
		w.live = newTableStream(b.seed, "batch", false)
	}
	type batch struct {
		tables []*table.Table
		names  map[string]bool
		cells  int64
	}
	batches := make([]batch, int(math.Ceil(batchesPerSecond*d.Seconds())))
	for i := range batches {
		bt := batch{names: map[string]bool{}}
		for _, g := range w.live.take(b.sz.batch) {
			bt.tables = append(bt.tables, g.t)
			bt.names[g.t.Name] = true
			bt.cells += g.cells()
		}
		batches[i] = bt
	}
	settle()
	ph := closedLoop(b.ctx, b.tr, 1, d, len(batches), func(ctx context.Context, i, _ int) (int64, error) {
		bt := batches[i]
		if err := checkRanked(fromPublic(b.st.model.DetectAll(ctx, bt.tables)), bt.names); err != nil {
			return 0, err
		}
		return bt.cells, nil
	})
	m := measured{
		cellsPerS: float64(ph.cells) / ph.elapsed.Seconds(),
		lat:       ph.lat,
		ops:       ph.ops,
		failed:    ph.failed,
		wrong:     ph.wrong,
	}
	m.cost = 1 / m.cellsPerS
	return m
}

func (w *batchFresh) units(b *bench) []unit {
	return tableUnits(newTableStream(b.seed, "replay", true).take(b.sz.replay))
}

// checkRanked is the in-phase output check of a batch: findings ranked
// by score and drawn from the batch's own tables.
func checkRanked(fs []finding, names map[string]bool) error {
	for i, f := range fs {
		if !names[f.Table] {
			return fmt.Errorf("%w: finding for table %q outside the batch", errWrong, f.Table)
		}
		if i > 0 && f.Score < fs[i-1].Score {
			return fmt.Errorf("%w: findings not ranked by score at %d", errWrong, i)
		}
	}
	return nil
}

// servePhase runs a serving workload's timed phase: open loop at the
// reference rate for openShare of d, then closed-loop saturation with
// conns callers for the rest, using at most perSecond requests per second
// of it. next(n) returns the workload's next n requests.
func servePhase(b *bench, d time.Duration, rate, perSecond float64, next func(n int) []request) measured {
	satur := time.Duration(float64(d) * (1 - openShare))
	open := next(int(math.Round(rate * d.Seconds() * openShare)))
	reqs := next(int(math.Ceil(perSecond * satur.Seconds())))
	settle()
	lo := openLoop(b.ctx, b.tr, len(open), rate, conns, sendAll(b, open))
	cl := closedLoop(b.ctx, b.tr, conns, satur, len(reqs), sendAll(b, reqs))
	b.diag["max_rate_rps"] = float64(cl.ops) / cl.elapsed.Seconds()
	b.diag["reference_rate_rps"] = rate
	b.diag["requests_at_reference_rate"] = float64(lo.ops)
	m := measured{
		cellsPerS: float64(cl.cells) / cl.elapsed.Seconds(),
		lat:       lo.lat,
		late:      lo.late,
		ops:       lo.ops + cl.ops,
		failed:    lo.failed + cl.failed,
		wrong:     append(lo.wrong, cl.wrong...),
	}
	m.cost = median(m.lat)
	return m
}

// request is one /v1/detect call and the check its reply must pass.
type request struct {
	name  string
	body  []byte
	cells int64
	check func(reply []byte) bool
}

func sendAll(b *bench, reqs []request) op {
	return func(ctx context.Context, i, span int) (int64, error) {
		r := reqs[i]
		code, reply, err := post(ctx, b.client, b.st.detectURL(r.name), "text/csv", r.body, span)
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("POST %s: status %d", r.name, code)
		}
		if !r.check(reply) {
			return 0, fmt.Errorf("%w: reply for %s fails its check", errWrong, r.name)
		}
		return r.cells, nil
	}
}

// serveHot: POST /v1/detect drawn round-robin from a small pool of
// tables whose measurements are all cached before timing.
type serveHot struct {
	pool    []genTable
	replies [][]byte
	n       int
}

// verify checks the pool cold, then again on the cache-hit path the phase
// measures: both replies must match the reference byte for byte.
func (w *serveHot) verify(b *bench) error {
	w.pool = newTableStream(b.seed, "pool", true).take(b.sz.pool)
	cold, err := verifyServed(b, w.pool)
	if err != nil {
		return err
	}
	for i, g := range w.pool {
		code, reply, err := post(b.ctx, b.client, b.st.detectURL(g.t.Name), "text/csv", g.csv, 0)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("POST %s: status %d: %v", g.t.Name, code, err)
		}
		if !bytes.Equal(reply, cold[i]) {
			return fmt.Errorf("/v1/detect %s: cached reply differs from the first", g.t.Name)
		}
	}
	w.replies = cold
	return nil
}

func (w *serveHot) measure(b *bench, d time.Duration) measured {
	return servePhase(b, d, hotRate, hotPerSecond, func(n int) []request {
		out := make([]request, n)
		for i := range out {
			k := w.n % len(w.pool)
			w.n++
			want := w.replies[k]
			out[i] = request{name: w.pool[k].t.Name, body: w.pool[k].csv, cells: w.pool[k].cells(),
				check: func(reply []byte) bool { return bytes.Equal(reply, want) }}
		}
		return out
	})
}

func (w *serveHot) units(b *bench) []unit { return tableUnits(w.pool) }

// serveFresh: the serve_hot path with a table never seen before on every
// request.
type serveFresh struct {
	live *tableStream
}

func (w *serveFresh) verify(b *bench) error {
	_, err := verifyServed(b, newTableStream(b.seed, "verify", true).take(b.sz.verify))
	return err
}

func (w *serveFresh) measure(b *bench, d time.Duration) measured {
	if w.live == nil {
		w.live = newTableStream(b.seed, "live", true)
	}
	return servePhase(b, d, freshRate, freshPerSecond, func(n int) []request {
		out := make([]request, n)
		for i := range out {
			g := w.live.next()
			name, _ := json.Marshal(g.t.Name)
			prefix := append([]byte(`{"table":`), name...)
			out[i] = request{name: g.t.Name, body: g.csv, cells: g.cells(),
				check: func(reply []byte) bool { return bytes.HasPrefix(reply, prefix) }}
		}
		return out
	})
}

func (w *serveFresh) units(b *bench) []unit {
	return tableUnits(newTableStream(b.seed, "replay", true).take(b.sz.replay))
}

// jobsLarge: closed loop with two jobs outstanding, each a large CSV
// submitted to /v1/jobs and polled until it finishes.
type jobsLarge struct {
	n int
}

func (w *jobsLarge) verify(b *bench) error {
	g := jobTable(b.seed, "verify", 0, b.sz.checkJob)
	want, err := b.orc.detectCSV(b.ctx, g.t.Name, g.csv, jobChunkRows)
	if err != nil {
		return err
	}
	got, _, err := b.st.runJob(b.ctx, b.client, g.t.Name, g.csv, jobPoll)
	if err != nil {
		return err
	}
	if err := diffFindings(want, got); err != nil {
		return fmt.Errorf("job %s: %w", g.t.Name, err)
	}
	b.diag["precision_at_100"] = precisionAt100(want, g.labels)
	return nil
}

func (w *jobsLarge) measure(b *bench, d time.Duration) measured {
	type job struct {
		name  string
		csv   []byte
		cells int64
	}
	jobs := make([]job, int(math.Ceil(jobsPerSecond*d.Seconds()))+conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(jobs); i += conns {
				g := jobTable(b.seed, "live", w.n+i, b.sz.jobRows)
				jobs[i] = job{name: g.t.Name, csv: g.csv, cells: g.cells()}
			}
		}(c)
	}
	wg.Wait()
	w.n += len(jobs)
	settle()
	ph := closedLoop(b.ctx, b.tr, conns, d, len(jobs), func(ctx context.Context, i, span int) (int64, error) {
		j := jobs[i]
		fs, _, err := b.st.runJob(ctx, b.client, j.name, j.csv, jobPoll)
		if err != nil {
			return 0, err
		}
		if err := checkRanked(fs, map[string]bool{j.name: true}); err != nil {
			return 0, err
		}
		return j.cells, nil
	})
	m := measured{
		cellsPerS: float64(ph.cells) / ph.elapsed.Seconds(),
		lat:       ph.lat,
		ops:       ph.ops,
		failed:    ph.failed,
		wrong:     ph.wrong,
	}
	m.cost = 1 / m.cellsPerS
	return m
}

func (w *jobsLarge) units(b *bench) []unit {
	g := jobTable(b.seed, "replay", 0, b.sz.traceJob)
	return []unit{{name: g.t.Name, csv: g.csv, stream: true}}
}
