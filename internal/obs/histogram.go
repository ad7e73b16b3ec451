package obs

import (
	"math"
	"sync/atomic"
)

// Power-of-two bucket schemes. Fixed log-scale bounds mean Observe is a
// frexp plus two atomic adds — no search, no allocation — and exposition
// never allocates per sample either.
var (
	// DurationBuckets spans ~1µs (2^-20 s) to 64 s (2^6 s) — the range
	// from a single grid lookup to a full offline training pass.
	DurationBuckets = PowerOfTwoBuckets(-20, 6)
	// ScoreBuckets spans 2^-40 to 1, covering likelihood ratios: LR
	// values live in (0, 1] and the interesting ones are tiny.
	ScoreBuckets = PowerOfTwoBuckets(-40, 0)
)

// PowerOfTwoBuckets returns upper bounds 2^minExp .. 2^maxExp inclusive.
func PowerOfTwoBuckets(minExp, maxExp int) []float64 {
	if maxExp < minExp {
		panic("obs: bucket exponent range inverted")
	}
	out := make([]float64, 0, maxExp-minExp+1)
	for e := minExp; e <= maxExp; e++ {
		out = append(out, math.Ldexp(1, e))
	}
	return out
}

// numShards is the shard count of a histogram: enough to spread the
// cache-line traffic of concurrent Observes (detect workers, daemon
// requests) without bloating exposition, which folds shards back
// together.
const numShards = 8

// histShard is one independently updated copy of the bucket counts.
// Shards are separate allocations, so concurrent writers on different
// shards touch different cache lines.
type histShard struct {
	counts  []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64   // float64 bits of the shard's value sum
}

// Histogram is a fixed-bucket, lock-sharded histogram. Writers never
// take a lock: Observe picks a shard from the value's bits and does two
// atomic operations. The nil *Histogram is a no-op.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is implicit
	minExp int       // exponent of bounds[0] when power-of-two, else 0
	pow2   bool      // bounds are PowerOfTwoBuckets (O(1) indexing)
	shards [numShards]histShard
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	h := &Histogram{bounds: bounds}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds not ascending")
		}
	}
	h.pow2, h.minExp = powerOfTwoShape(bounds)
	for s := range h.shards {
		h.shards[s].counts = make([]atomic.Uint64, len(bounds)+1)
	}
	return h
}

// powerOfTwoShape detects bounds produced by PowerOfTwoBuckets, enabling
// frexp-based O(1) bucket indexing.
func powerOfTwoShape(bounds []float64) (bool, int) {
	frac, exp := math.Frexp(bounds[0])
	if frac != 0.5 { //lint:ignore floatcompare exact representation test: 2^k has fraction exactly 0.5
		return false, 0
	}
	minExp := exp - 1
	for i, b := range bounds {
		if b != math.Ldexp(1, minExp+i) { //lint:ignore floatcompare exact power-of-two identity, no arithmetic involved
			return false, 0
		}
	}
	return true, minExp
}

// bucket returns the index of the first bound >= v (len(bounds) for the
// +Inf bucket).
func (h *Histogram) bucket(v float64) int {
	if v <= h.bounds[0] {
		return 0
	}
	if v > h.bounds[len(h.bounds)-1] {
		return len(h.bounds)
	}
	if h.pow2 {
		// v = f·2^exp with f ∈ (0.5, 1] ⇒ smallest power-of-two bound
		// ≥ v is 2^exp, except v exactly 2^(exp-1).
		_, exp := math.Frexp(v)
		if v <= math.Ldexp(1, exp-1) {
			exp--
		}
		return exp - h.minExp
	}
	lo, hi := 0, len(h.bounds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	s := &h.shards[splitmix64(math.Float64bits(v))&(numShards-1)]
	s.counts[h.bucket(v)].Add(1)
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot folds the shards into cumulative bucket counts, the total
// count, and the value sum. Concurrent Observes may straddle the reads;
// the snapshot is a consistent-enough monitoring view, not a barrier.
func (h *Histogram) snapshot() (cumulative []uint64, count uint64, sum float64) {
	cumulative = make([]uint64, len(h.bounds)+1)
	for s := range h.shards {
		sh := &h.shards[s]
		for i := range sh.counts {
			cumulative[i] += sh.counts[i].Load()
		}
		sum += math.Float64frombits(sh.sumBits.Load())
	}
	var running uint64
	for i := range cumulative {
		running += cumulative[i]
		cumulative[i] = running
	}
	count = running
	return cumulative, count, sum
}

// Count returns the total number of observations; 0 for nil.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	_, n, _ := h.snapshot()
	return n
}

// Sum returns the sum of observed values; 0 for nil.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	_, _, s := h.snapshot()
	return s
}
