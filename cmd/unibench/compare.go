package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords loads the untraced run records under dir, grouped by
// workload in the order they ran.
func readRecords(dir string) (map[string][]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string][]record{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	for _, rs := range out {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Started.Before(rs[j].Started) })
	}
	return out, nil
}

// compare implements `unibench compare [-bench BENCHMARK.json] A/ B/`:
// for every workload and end-to-end metric it prints each side's median
// and quartiles, the share of pairs B won, and a verdict against the
// metric's bound.
func compare(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: unibench compare [-bench BENCHMARK.json] A/ B/")
	}
	bf, err := readBenchmark(*benchPath)
	if err != nil {
		return err
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	var names []string
	for wl := range a {
		if len(b[wl]) > 0 {
			names = append(names, wl)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %-12s %-34s %-34s %-7s %s\n", "workload", "metric", "A median [q1 q3] (n)", "B median [q1 q3] (n)", "B won", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			av, bv := metricValues(a[wl], m.Name), metricValues(b[wl], m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			v := judge(av, bv, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-12s %-12s %-34s %-34s %-7s %s\n", wl, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g] (%d)", v.a[1], v.a[0], v.a[2], len(av)),
				fmt.Sprintf("%.4g [%.4g %.4g] (%d)", v.b[1], v.b[0], v.b[2], len(bv)),
				fmt.Sprintf("%d/%d", v.won, v.pairs), v.verdict)
		}
	}
	return nil
}

func metricValues(rs []record, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4), the method the
// spread of a metric is judged with.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// verdict is one workload × metric comparison.
type verdict struct {
	a, b       [3]float64
	won, pairs int
	verdict    string
}

// judge compares B (the change) with A (the parent). B improved when it
// wins nine tenths of the run pairs and the medians differ by more than
// A's own spread; it regressed when its median is worse by more than the
// bound; a metric whose spread is wider than the bound is unresolved
// unless every B run beats every A run.
func judge(a, b []float64, higher bool, bound float64) verdict {
	v := verdict{a: quartiles(a), b: quartiles(b), pairs: min(len(a), len(b))}
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	for i := 0; i < v.pairs; i++ {
		if better(b[i], a[i]) {
			v.won++
		}
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	worse := (v.b[1] - v.a[1]) / math.Abs(v.a[1])
	if higher {
		worse = -worse
	}
	spread := math.Max((v.a[2]-v.a[0])/math.Abs(v.a[1]), (v.b[2]-v.b[0])/math.Abs(v.b[1]))
	gain := v.won*10 >= 9*v.pairs && math.Abs(v.b[1]-v.a[1]) > v.a[2]-v.a[0] && worse < 0
	switch {
	case spread > bound && !allBetter:
		v.verdict = "unresolved"
	case worse > bound:
		v.verdict = "regressed"
	case gain:
		v.verdict = "improved"
	default:
		v.verdict = "unchanged"
	}
	return v
}
