package main

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// errWrong marks a reply that arrived but failed its output check.
var errWrong = errors.New("wrong output")

// op performs request i of a load loop under client span id and returns
// the input cells it carried.
type op func(ctx context.Context, i, span int) (int64, error)

// phase is what one load loop observed.
type phase struct {
	lat     []float64 // per-request latency, ms; open loop: from the due time
	late    []float64 // open loop: how late the generator issued each request, ms
	ops     int
	failed  int
	wrong   []string
	cells   int64
	elapsed time.Duration
}

func (p *phase) record(cells int64, err error) {
	switch {
	case err == nil:
		p.cells += cells
	case errors.Is(err, errWrong):
		p.wrong = append(p.wrong, err.Error())
	default:
		p.failed++
	}
}

// openLoop sends n requests at a fixed rate over conns connections,
// whether or not earlier ones have finished: the arrivals of independent
// users. Request i is due at start + i/rate, and its latency is timed
// from that due time, so a stall also charges the requests that queued
// behind it.
func openLoop(ctx context.Context, tr *tracer, n int, rate float64, conns int, do op) *phase {
	ph := &phase{lat: make([]float64, n), late: make([]float64, n), ops: n}
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(interval)
	due := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }
	queue := make(chan int, n) // one slot per request: the generator never waits on a busy connection
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				id := tr.begin("unibench.call", 0, i)
				cells, err := do(ctx, i, id)
				tr.end(id)
				lat := ms(time.Since(due(i)))
				mu.Lock()
				ph.lat[i] = lat
				ph.record(cells, err)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		ph.late[i] = ms(time.Since(due(i)))
		queue <- i
	}
	close(queue)
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// closedLoop runs conns callers that each send their next request only
// when the previous one has returned, starting new requests until d has
// passed or limit requests were started; requests in flight at the
// deadline finish and count.
func closedLoop(ctx context.Context, tr *tracer, conns int, d time.Duration, limit int, do op) *phase {
	ph := &phase{}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				if i >= limit {
					return
				}
				t0 := time.Now()
				id := tr.begin("unibench.call", 0, i)
				cells, err := do(ctx, i, id)
				tr.end(id)
				lat := ms(time.Since(t0))
				mu.Lock()
				ph.ops++
				ph.lat = append(ph.lat, lat)
				ph.record(cells, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	return ph
}

// settle collects the garbage input generation left behind, so a timed
// phase does not pay for it.
func settle() { runtime.GC() }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// On a shared host the machine's speed changes from second to second. A
// spell of a few seconds at two thirds of the usual speed is common, and a
// 99th percentile over a whole phase is set by such spells. So p99 takes
// the 99th percentile of each of up to tailRuns consecutive runs of at
// least tailSamples samples and reports their median: a spell moves a few
// runs and not the median, while a change in the program moves every run.
const (
	tailSamples = 50
	tailRuns    = 10
)

// runQuantiles cuts samples, in the order they were due or completed, into
// as many equal consecutive runs as hold tailSamples each, at most
// tailRuns and at least one, and returns the q-quantile of each run.
func runQuantiles(xs []float64, q float64) []float64 {
	k := min(tailRuns, max(1, len(xs)/tailSamples))
	out := make([]float64, k)
	for j := range out {
		out[j] = quantile(xs[j*len(xs)/k:(j+1)*len(xs)/k], q)
	}
	return out
}

// p99 returns the 99th-percentile latency of samples in the order they
// were due or completed. A phase with fewer than 2*tailSamples samples gets
// its plain 99th percentile.
func p99(lat []float64) float64 { return median(runQuantiles(lat, 0.99)) }
