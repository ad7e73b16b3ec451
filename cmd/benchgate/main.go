// Command benchgate compares a fresh benchjson report against the
// committed BENCH_core.json baseline and fails if the detect-path
// benchmarks regressed. It is the CI teeth behind the fast-path work:
// the committed baseline records the serving speed the repo has already
// demonstrated, and a change that gives a meaningful slice of it back
// should not merge silently.
//
//	benchgate -baseline BENCH_core.json -candidate /tmp/bench.json
//	benchgate -pattern Detect,Ingest -max-regress 0.20 ...
//
// Only ns/op gates (timings compare within one host, which is how CI
// runs it; the threshold absorbs scheduler noise). Alloc counts are
// reported for context but fail only on -max-allocs-regress, which is
// stricter to enable than the timing gate since allocs/op are stable.
//
// When the baseline carries a counters block (BENCH_core.json does), the
// block gates exactly: every baseline counter must be present in the
// candidate with the same value, since the counters are deterministic
// for the report's corpus seed. An empty block gates nothing and fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"

	"github.com/unidetect/unidetect/internal/stats"
)

// benchmark mirrors cmd/benchjson's per-benchmark record.
type benchmark struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	Benchmarks []benchmark `json:"benchmarks"`
	// Counters is nil when the report has no counters block.
	Counters map[string]float64 `json:"counters"`
}

func load(path string) (map[string]benchmark, map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]benchmark, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		out[b.Name] = b
	}
	return out, rep.Counters, nil
}

// gateCounters logs every baseline counter the candidate lacks or
// reports with a different value, and returns how many there were.
func gateCounters(baseline, candidate map[string]float64) int {
	if len(baseline) == 0 {
		log.Printf("FAIL counters: the baseline block is empty; it gates nothing")
		return 1
	}
	keys := make([]string, 0, len(baseline))
	for k := range baseline {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	failed := 0
	for _, k := range keys {
		got, ok := candidate[k]
		switch {
		case !ok:
			log.Printf("FAIL counter %s: present in baseline, missing from candidate", k)
			failed++
		case !stats.SameFloat(got, baseline[k]):
			log.Printf("FAIL counter %s: %v -> %v", k, baseline[k], got)
			failed++
		}
	}
	if failed == 0 {
		log.Printf("ok   counters: all %d match the baseline exactly", len(keys))
	}
	return failed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_core.json", "committed baseline report")
	candidatePath := flag.String("candidate", "", "fresh report to gate (required)")
	pattern := flag.String("pattern", "Detect", "gate benchmarks whose name contains any of these comma-separated substrings")
	maxRegress := flag.Float64("max-regress", 0.20, "maximum tolerated ns/op regression (0.20 = +20%)")
	maxAllocsRegress := flag.Float64("max-allocs-regress", 0.20, "maximum tolerated allocs/op regression")
	flag.Parse()
	if *candidatePath == "" {
		log.Fatal("benchgate: -candidate is required")
	}

	baseline, baseCounters, err := load(*baselinePath)
	if err != nil {
		log.Fatal(err)
	}
	candidate, candCounters, err := load(*candidatePath)
	if err != nil {
		log.Fatal(err)
	}

	pats := strings.Split(*pattern, ",")
	match := func(name string) bool {
		for _, p := range pats {
			if p != "" && strings.Contains(name, p) {
				return true
			}
		}
		return false
	}

	gated, failed := 0, 0
	for name, base := range baseline {
		if !match(name) {
			continue
		}
		cand, ok := candidate[name]
		if !ok {
			// A gated benchmark that vanished is a silent hole in the
			// baseline, not an improvement.
			log.Printf("FAIL %s: present in baseline, missing from candidate", name)
			failed++
			continue
		}
		gated++
		nsRatio := cand.NsPerOp / base.NsPerOp
		status := "ok  "
		if nsRatio > 1+*maxRegress {
			status = "FAIL"
			failed++
		}
		log.Printf("%s %s: ns/op %.0f -> %.0f (%+.1f%%, limit +%.0f%%)",
			status, name, base.NsPerOp, cand.NsPerOp, (nsRatio-1)*100, *maxRegress*100)
		if base.AllocsPerOp > 0 {
			allocRatio := float64(cand.AllocsPerOp) / float64(base.AllocsPerOp)
			status = "ok  "
			if allocRatio > 1+*maxAllocsRegress {
				status = "FAIL"
				failed++
			}
			log.Printf("%s %s: allocs/op %d -> %d (%+.1f%%, limit +%.0f%%)",
				status, name, base.AllocsPerOp, cand.AllocsPerOp, (allocRatio-1)*100, *maxAllocsRegress*100)
		}
	}
	if gated == 0 {
		log.Fatalf("benchgate: no baseline benchmark matches %q; the gate is vacuous", *pattern)
	}
	if baseCounters != nil {
		failed += gateCounters(baseCounters, candCounters)
	}
	if failed > 0 {
		log.Fatalf("benchgate: %d check(s) failed", failed)
	}
	log.Printf("benchgate: %d benchmark(s) within limits", gated)
}
