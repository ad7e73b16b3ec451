package main

import (
	"context"
	"math"
	"slices"
	"testing"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/table"
)

// TestSmoke runs every workload, untraced and traced, at a hundredth of
// the benchmark's size and checks that each run prints exactly the
// metrics BENCHMARK.json names, with their units, and that nothing failed.
func TestSmoke(t *testing.T) {
	bf, err := readBenchmark("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := run(context.Background(), options{
				workload: w.name, seed: 1, seconds: 0.2, trace: traced, scale: 0.01, workdir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 || len(rec.Problems) > 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%q",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not printed", w.name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.name, traced, m.Name, got.Value)
				}
			}
		}
	}
}

// TestOracleRejectsPlantedMismatch checks that the output check passes the
// path under test as it is and fails it once a finding is planted wrong.
func TestOracleRejectsPlantedMismatch(t *testing.T) {
	ctx := context.Background()
	model, err := unidetect.Train(ctx, unidetect.SyntheticCorpus(unidetect.WebProfile, 60, corpusSeed), nil)
	if err != nil {
		t.Fatal(err)
	}
	orc, err := newOracle(model)
	if err != nil {
		t.Fatal(err)
	}
	var tables []*table.Table
	for _, g := range newTableStream(7, "oracle", false).take(40) {
		tables = append(tables, g.t)
	}
	want := orc.detectAll(ctx, tables)
	if len(want) == 0 {
		t.Fatal("reference found nothing; the check has no power")
	}
	got := fromPublic(model.DetectAll(ctx, tables))
	if err := diffFindings(want, got); err != nil {
		t.Fatalf("path under test differs from the reference: %v", err)
	}
	plants := map[string]func([]finding) []finding{
		"score off by one ulp": func(fs []finding) []finding {
			fs[0].Score = math.Nextafter(fs[0].Score, 1)
			return fs
		},
		"row moved": func(fs []finding) []finding {
			fs[0].Rows = append([]int{fs[0].Rows[0] + 1}, fs[0].Rows[1:]...)
			return fs
		},
		"finding dropped": func(fs []finding) []finding { return fs[1:] },
		"class swapped": func(fs []finding) []finding {
			fs[len(fs)-1].Class += "x"
			return fs
		},
	}
	for name, plant := range plants {
		planted := plant(fromPublic(model.DetectAll(ctx, tables)))
		if diffFindings(want, planted) == nil {
			t.Errorf("%s: planted mismatch passed the output check", name)
		}
	}
}

// TestP99IgnoresOneSlowSpell checks that a second in which the machine runs
// at half speed does not move p99, and that a slower program does.
func TestP99IgnoresOneSlowSpell(t *testing.T) {
	// 100 requests a second for 10 s, taking 5 to 6 ms, twice that in the
	// fourth second.
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = 5 + float64(i%100)/100
		if i/100 == 3 {
			lat[i] *= 2
		}
	}
	normal := quantile(lat[:100], 0.99)
	if got := p99(lat); got != normal {
		t.Errorf("p99 = %v ms, want that of a normal second, %v (pooled: %v)", got, normal, quantile(lat, 0.99))
	}
	for i := range lat {
		lat[i] *= 1.1
	}
	if got := p99(lat); math.Abs(got-1.1*normal) > 1e-9 {
		t.Errorf("p99 of a program 10%% slower = %v ms, want %v", got, 1.1*normal)
	}
	if got, want := p99(lat[:90]), quantile(lat[:90], 0.99); got != want {
		t.Errorf("p99 of 90 samples = %v, want the plain 99th percentile %v", got, want)
	}
}

// TestValidityTellsBacklogFromJitter checks that a generator that is late
// in its tail alone passes, and one that falls further behind fails.
func TestValidityTellsBacklogFromJitter(t *testing.T) {
	jitter, backlog := make([]float64, 10000), make([]float64, 10000)
	for i := range jitter {
		jitter[i] = 0.5
		if i%20 == 0 {
			jitter[i] = 5
		}
		backlog[i] = float64(i) / 1000
	}
	if p := validity("serve_hot", 1, slices.Max(runQuantiles(jitter, 0.5)), len(jitter)); len(p) > 0 {
		t.Errorf("jitter with a 5 ms tail: %q", p)
	}
	if p := validity("serve_hot", 1, slices.Max(runQuantiles(backlog, 0.5)), len(backlog)); len(p) != 1 {
		t.Errorf("growing backlog: problems %q, want one", p)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", base, false, "unchanged"},
		{"faster", scale(0.8), false, "improved"},
		{"slower", scale(1.2), false, "regressed"},
		{"slower within bound", scale(1.05), false, "unchanged"},
		{"more throughput", scale(1.2), true, "improved"},
		{"less throughput", scale(0.8), true, "regressed"},
		{"noisy", []float64{60, 140, 70, 130, 100, 80, 120, 90, 110, 100}, false, "unresolved"},
	} {
		if got := judge(base, tc.b, tc.higher, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
