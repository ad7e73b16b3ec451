// Command unibench is the repository's benchmark. It sets up the real
// Uni-Detect stack — a model trained on a fixed synthetic corpus, the
// daemon's handler behind a loopback listener, the async job tier —
// drives it with one of four seeded workloads, checks the outputs against
// the reference predictor, and prints every metric by name with its unit.
// The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"p50_ms":{"value":1.02,"unit":"ms"},...}}
//
// With -trace 0 the metrics are the end-to-end ones; -trace 1 makes a
// separate traced run that prints the per-layer ones. Run it from the
// repository root; run.sh builds it into .bench_build/ first:
//
//	bash cmd/unibench/run.sh -workload serve_hot -seed 1 -seconds 15 -trace 0
//	bash cmd/unibench/run.sh -workload all -seed 1 -out runs/A
//	bash cmd/unibench/run.sh compare runs/A runs/B
//
// README.md describes the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"syscall"
	"time"
)

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd are the metrics an untraced run prints, on every workload.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"cells_per_s", "cells/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run prints, on every workload.
var perLayer = func() []metric {
	ms := []metric{
		{"setup.train_s", "s"}, {"setup.warm_s", "s"},
		{"mapreduce.map_s", "s"}, {"mapreduce.reduce_s", "s"},
		{"colstore.parse_s", "s"}, {"colstore.parse_mb_per_s", "MB/s"},
		{"table.infer_s", "s"},
	}
	for _, cls := range []string{"spelling", "outlier", "uniqueness", "fd", "fd-synthesis"} {
		ms = append(ms, metric{"detectors." + cls + ".measure_s", "s"}, metric{"detectors." + cls + ".measurements", "count"})
	}
	return append(ms,
		metric{"lrindex.lr_s", "s"}, metric{"lrindex.lookups", "count"},
		metric{"lrindex.outcome.bucket", "count"}, metric{"lrindex.outcome.backoff", "count"},
		metric{"lrindex.outcome.global", "count"},
		metric{"core.detect_s", "s"}, metric{"core.detect_hit_s", "s"}, metric{"core.self_s", "s"},
		metric{"core.sort_s", "s"}, metric{"core.findings", "count"}, metric{"core.cache.hit_ratio", "fraction"},
		metric{"core.scan.fold_s", "s"}, metric{"core.scan.save_s", "s"}, metric{"core.scan.finish_s", "s"},
		metric{"core.scan.checkpoint_bytes_per_input_byte", "ratio"},
		metric{"serving.handler_s", "s"}, metric{"serving.self_s", "s"},
		metric{"jobstore.submit_s", "s"}, metric{"jobstore.queue_wait_s", "s"}, metric{"jobstore.run_s", "s"},
		metric{"trace.overhead_ratio", "ratio"}, metric{"trace.residual_ratio", "fraction"},
	)
}()

// Validity limits: a run outside them did not measure what its workload
// is for, and fails.
const (
	hotHitFloor  = 0.99 // serve_hot must be served from the cache
	freshHitCeil = 0.05 // batch_fresh and serve_fresh must measure cold
	// The generator has fallen behind, and the run is generator-bound, when
	// in some run of samples (cut as for p99_ms) it sent half its requests
	// more than lateLimit ms late (Go's timer granularity is about 1 ms),
	// or one gap between two requests where that is longer. Lateness in
	// the tail alone is the wait for a core that a request arriving then
	// would also have; the latency, timed from the due time, counts it,
	// and loadgen.late_p99_ms records it.
	lateLimit      = 2.0
	lateMinSamples = 1000
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
	out      string
	scale    float64
	workdir  string
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run: the printed result plus what -out keeps for
// compare and for reading a run afterwards.
type record struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     float64            `json:"seconds"`
	Trace       bool               `json:"trace"`
	Started     time.Time          `json:"started"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Metrics     map[string]value   `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics"`
	Problems    []string           `json:"problems,omitempty"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: batch_fresh, serve_hot, serve_fresh, jobs_large or all")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the workload's inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1: traced run printing the per-layer metrics")
	flag.StringVar(&o.spans, "spans", "", "traced run: write the spans to this JSON file")
	flag.StringVar(&o.out, "out", "", "write the run record into this directory")
	flag.Float64Var(&o.scale, "scale", 1, "input size factor (the smoke test uses 0.01)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for the job spools")
	flag.Parse()
	if flag.Arg(0) == "compare" {
		if err := compare(flag.Args()[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "unibench compare:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 || o.seconds <= 0 || o.scale <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "unibench: -trace must be 0 or 1, -seconds and -scale positive, and the only command is compare")
		os.Exit(2)
	}
	if o.workload == "all" {
		if err := runAll(); err != nil {
			fmt.Fprintln(os.Stderr, "unibench:", err)
			os.Exit(1)
		}
		return
	}
	// A run that overstays its budget is broken; end it rather than hang.
	watchdog := time.AfterFunc(time.Minute+time.Duration(6*o.seconds*float64(time.Second)), func() {
		fmt.Fprintln(os.Stderr, "unibench: the run overstayed its time budget")
		os.Exit(3)
	})
	defer watchdog.Stop()
	rec, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unibench:", err)
		os.Exit(1)
	}
	if err := report(rec, o.out); err != nil {
		fmt.Fprintln(os.Stderr, "unibench:", err)
		os.Exit(1)
	}
	if !rec.Correct || len(rec.Problems) > 0 {
		os.Exit(1)
	}
}

// runAll runs every workload, each in its own process so peak memory is
// one workload's.
func runAll() error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, w := range workloads {
		var args []string
		flag.Visit(func(f *flag.Flag) {
			if f.Name != "workload" {
				args = append(args, "-"+f.Name+"="+f.Value.String())
			}
		})
		cmd := exec.Command(self, append(args, "-workload="+w.name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

// report prints the metrics with their units on standard error, keeps the
// record under dir, and prints the result line on standard output.
func report(rec *record, dir string) error {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "unibench %s seed %d trace %v: correct=%v attempted=%d failed=%d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Correct, rec.Attempted, rec.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-44s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(os.Stderr, "  problem:", p)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		b, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		kind := "run"
		if rec.Trace {
			kind = "trace"
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s-%d.json", rec.Workload, rec.Seed, kind, rec.Started.UnixNano()))
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// run sets the stack up, verifies the workload's outputs, measures it and
// returns the record.
func run(ctx context.Context, o options) (*record, error) {
	var w workload
	for _, cand := range workloads {
		if cand.name == o.workload {
			w = cand.make()
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Started: time.Now(), Metrics: map[string]value{}, Diagnostics: map[string]float64{}}
	sz := sizesFor(o.scale)
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if o.trace {
		tr = newTracer()
		wrap = tr.wrap
	}

	// Set up several times and keep the last stack: setup_s is the median.
	var st *stack
	var setup, train, warm, mapS, redS []float64
	for i := 0; i < sz.setups; i++ {
		if st != nil {
			st.close()
		}
		st, err = setUp(ctx, sz.corpus, filepath.Join(dir, fmt.Sprintf("jobs-%d", i)), wrap)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		reg, err := scrape(st.reg)
		if err != nil {
			st.close()
			return nil, err
		}
		setup = append(setup, st.total.Seconds())
		train = append(train, st.train.Seconds())
		warm = append(warm, st.warm.Seconds())
		mapS = append(mapS, reg[mapSeconds])
		redS = append(redS, reg[redSeconds])
	}
	defer st.close()

	orc, err := newOracle(st.model)
	if err != nil {
		return nil, err
	}
	b := &bench{ctx: ctx, st: st, orc: orc, tr: tr, client: newClient(conns), seed: o.seed, sz: sz, diag: rec.Diagnostics}
	defer b.client.CloseIdleConnections()
	if err := w.verify(b); err != nil {
		rec.Problems = append(rec.Problems, "oracle: "+err.Error())
		rec.Attempted = 1
		return rec, nil
	}

	before, err := scrape(st.reg)
	if err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds * float64(time.Second))
	var m measured
	if !o.trace {
		m = w.measure(b, d)
	} else {
		// The traced run measures the workload half untraced and half
		// traced; the ratio of the two headline costs is the tracing
		// overhead.
		plain := w.measure(b, d/2)
		tr.on.Store(true)
		traced := w.measure(b, d/2)
		rec.Diagnostics["trace.untraced_cost"] = plain.cost
		rec.Diagnostics["trace.traced_cost"] = traced.cost
		m = measured{
			lat:    append(plain.lat, traced.lat...),
			late:   append(plain.late, traced.late...),
			ops:    plain.ops + traced.ops,
			failed: plain.failed + traced.failed,
			wrong:  append(plain.wrong, traced.wrong...),
			cost:   traced.cost / plain.cost,
		}
	}
	after, err := scrape(st.reg)
	if err != nil {
		return nil, err
	}

	rec.Attempted, rec.Failed = m.ops, m.failed
	rec.Correct = len(m.wrong) == 0
	for i, msg := range m.wrong {
		if i == 3 {
			rec.Problems = append(rec.Problems, fmt.Sprintf("... %d wrong outputs in all", len(m.wrong)))
			break
		}
		rec.Problems = append(rec.Problems, msg)
	}
	hits, misses := after[cacheHits]-before[cacheHits], after[cacheMisses]-before[cacheMisses]
	hitRatio := hits / max(1, hits+misses)
	behind := slices.Max(runQuantiles(m.late, 0.5))
	rec.Diagnostics["core.cache.hit_ratio"] = hitRatio
	rec.Diagnostics["loadgen.late_p50_ms"] = quantile(m.late, 0.5)
	rec.Diagnostics["loadgen.late_p99_ms"] = p99(m.late)
	rec.Diagnostics["loadgen.behind_ms"] = behind
	rec.Diagnostics["latency_samples"] = float64(len(m.lat))
	rec.Diagnostics["p99_ms_pooled"] = quantile(m.lat, 0.99)
	rec.Problems = append(rec.Problems, validity(o.workload, hitRatio, behind, len(m.late))...)

	if !o.trace {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
			return nil, fmt.Errorf("getrusage: %w", err)
		}
		put(rec, endToEnd, map[string]float64{
			"setup_s":     median(setup),
			"cells_per_s": m.cellsPerS,
			"p50_ms":      median(m.lat),
			"p99_ms":      p99(m.lat),
			"peak_rss_mb": float64(ru.Maxrss) / 1024, // Linux reports KiB
		})
		return rec, nil
	}

	layers, err := replay(b, w.units(b), o.workload == "serve_hot")
	if err != nil {
		return nil, err
	}
	layers["setup.train_s"] = median(train)
	layers["setup.warm_s"] = median(warm)
	layers["mapreduce.map_s"] = median(mapS)
	layers["mapreduce.reduce_s"] = median(redS)
	layers["core.cache.hit_ratio"] = hitRatio
	layers["trace.overhead_ratio"] = m.cost
	put(rec, perLayer, layers)
	if o.spans != "" {
		if err := writeSpans(o.spans, tr.snapshot()); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// put copies the named metrics into the record with their units.
func put(rec *record, ms []metric, vals map[string]float64) {
	for _, m := range ms {
		rec.Metrics[m.name] = value{Value: vals[m.name], Unit: m.unit}
	}
}

// validity returns why a run did not measure what its workload is for.
func validity(workload string, hitRatio, behind float64, lateSamples int) []string {
	var out []string
	limit := lateLimit
	switch workload {
	case "serve_hot":
		if hitRatio < hotHitFloor {
			out = append(out, fmt.Sprintf("invalid: cache hit ratio %.4f < %.2f, serve_hot did not run warm", hitRatio, hotHitFloor))
		}
		limit = max(limit, 1000.0/hotRate)
	case "batch_fresh", "serve_fresh":
		if hitRatio > freshHitCeil {
			out = append(out, fmt.Sprintf("invalid: cache hit ratio %.4f > %.2f, %s did not run cold", hitRatio, freshHitCeil, workload))
		}
		limit = max(limit, 1000.0/freshRate)
	}
	if lateSamples >= lateMinSamples && behind > limit {
		out = append(out, fmt.Sprintf("invalid: the generator sent half the requests of a run %.2f ms late > %.1f ms, the run is generator-bound", behind, limit))
	}
	return out
}
