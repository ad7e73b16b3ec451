// Package evidence implements Uni-Detect's materialized statistics: for
// every (error class, feature bucket) it stores the joint distribution of
// (θ1, θ2) = (metric before perturbation, metric after the natural
// perturbation) observed across the background corpus, quantized onto a
// 2-D grid with precomputed prefix sums so the smoothed range-based counts
// of §3.1 (Equation 12) answer in O(1). This is the "memorization" that
// makes online prediction a lookup (§2.2.3, System Architecture).
package evidence

import (
	"fmt"
	"math"
)

// Quantizer maps a metric value monotonically onto grid bins [0, Bins).
type Quantizer interface {
	Bins() int
	Bin(x float64) int
}

// LinearQuantizer bins [Min, Max] into N equal cells, clamping outside
// values. Suitable for UR and FR in [0, 1] when uniform resolution is
// enough.
type LinearQuantizer struct {
	Min, Max float64
	N        int
}

// Bins returns the bin count.
func (q LinearQuantizer) Bins() int { return q.N }

// Bin quantizes x.
func (q LinearQuantizer) Bin(x float64) int {
	if math.IsNaN(x) || x <= q.Min {
		return 0
	}
	if x >= q.Max {
		return q.N - 1
	}
	i := int(float64(q.N) * (x - q.Min) / (q.Max - q.Min))
	if i >= q.N {
		i = q.N - 1
	}
	return i
}

// RatioQuantizer bins [0,1] with resolution concentrated near 1, where the
// interesting UR/FR mass lives: the bottom half of the bins cover [0, 0.9]
// linearly, the top half cover (0.9, 1].
type RatioQuantizer struct{ N int }

// Bins returns the bin count.
func (q RatioQuantizer) Bins() int { return q.N }

// Bin quantizes x.
func (q RatioQuantizer) Bin(x float64) int {
	if math.IsNaN(x) || x <= 0 {
		return 0
	}
	if x >= 1 {
		return q.N - 1
	}
	half := q.N / 2
	if x <= 0.9 {
		i := int(float64(half) * x / 0.9)
		if i >= half {
			i = half - 1
		}
		return i
	}
	i := half + int(float64(q.N-half)*(x-0.9)/0.1)
	if i >= q.N {
		i = q.N - 1
	}
	return i
}

// LogQuantizer bins [0, ∞) on a log1p scale with the given resolution:
// bin = floor(Scale · ln(1+x)). Suitable for unbounded dispersion scores
// (max-MAD), where ratios matter more than differences.
type LogQuantizer struct {
	Scale float64
	N     int
}

// Bins returns the bin count.
func (q LogQuantizer) Bins() int { return q.N }

// Bin quantizes x.
func (q LogQuantizer) Bin(x float64) int {
	if math.IsNaN(x) || x <= 0 {
		return 0
	}
	if math.IsInf(x, 1) {
		return q.N - 1
	}
	i := int(q.Scale * math.Log1p(x))
	if i < 0 {
		i = 0
	}
	if i >= q.N {
		i = q.N - 1
	}
	return i
}

// IntQuantizer bins non-negative integers directly, clamping at N-1.
// Suitable for MPD (edit distances).
type IntQuantizer struct{ N int }

// Bins returns the bin count.
func (q IntQuantizer) Bins() int { return q.N }

// Bin quantizes x.
func (q IntQuantizer) Bin(x float64) int {
	if math.IsNaN(x) || x <= 0 {
		return 0
	}
	if x >= float64(q.N) { // clamp before int conversion; avoids overflow
		return q.N - 1
	}
	return int(x)
}

// Directions declares how "at least as extreme" reads for a class's
// smoothed predicates (§3.1–3.4 use different orientations per metric):
//
//   - numerator counts samples with θ1ᵢ ≤ a (T1LE) or θ1ᵢ ≥ a, and
//     θ2ᵢ ≥ b (T2GE) or θ2ᵢ ≤ b;
//   - denominator counts samples with θ1ᵢ ≥ b (DenGE) or θ1ᵢ ≤ b.
type Directions struct {
	T1LE  bool
	T2GE  bool
	DenGE bool
}

// Canonical directions per the paper's formulas:
var (
	// OutlierDirections: Equation 12 — num {max-MAD ≥ θ1, perturbed ≤ θ2},
	// den {max-MAD ≥ θ2}.
	OutlierDirections = Directions{T1LE: false, T2GE: false, DenGE: true}
	// SpellingDirections: §3.2 — num {MPD ≤ θ1, perturbed ≥ θ2},
	// den {MPD ≤ θ2}.
	SpellingDirections = Directions{T1LE: true, T2GE: true, DenGE: false}
	// RatioDirections (UR §3.3, FR §3.4): num {m ≤ θ1, perturbed ≥ θ2};
	// the denominator follows Example 2 ("columns that are unique"),
	// counting {m ≥ θ2}.
	RatioDirections = Directions{T1LE: true, T2GE: true, DenGE: true}
)

// Grid accumulates quantized (θ1, θ2) samples and answers directional
// range counts. Build with NewGrid, add samples with Add, then call
// Finalize before querying; Add after Finalize panics.
type Grid struct {
	N      int     // bins per axis
	Counts []int64 // N×N raw sample counts, row-major [θ1*N + θ2]
	Total  int64

	pre       []int64 // (N+1)×(N+1) 2-D prefix sums
	finalized bool
}

// NewGrid creates an empty grid with n bins per axis.
func NewGrid(n int) *Grid {
	return &Grid{N: n, Counts: make([]int64, n*n)}
}

// Add records one (θ1, θ2) sample by bin index.
func (g *Grid) Add(b1, b2 int) {
	if g.finalized {
		panic("evidence: Add after Finalize")
	}
	g.Counts[clampBin(b1, g.N)*g.N+clampBin(b2, g.N)]++
	g.Total++
}

// Merge adds all samples of other (same shape) into g.
func (g *Grid) Merge(other *Grid) {
	if g.finalized {
		panic("evidence: Merge after Finalize")
	}
	if other.N != g.N {
		panic(fmt.Sprintf("evidence: merging grids of different sizes %d vs %d", other.N, g.N))
	}
	for i, c := range other.Counts {
		g.Counts[i] += c
	}
	g.Total += other.Total
}

// Finalize builds the prefix sums. Idempotent.
func (g *Grid) Finalize() {
	if g.finalized {
		return
	}
	n := g.N
	g.pre = make([]int64, (n+1)*(n+1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// Inclusion–exclusion over the already-built prefix rows;
			// pre is a monotone 2D prefix sum, so this cannot underflow.
			inc := g.pre[i*(n+1)+(j+1)] + g.pre[(i+1)*(n+1)+j] - g.pre[i*(n+1)+j]
			g.pre[(i+1)*(n+1)+(j+1)] = g.Counts[i*n+j] + inc
		}
	}
	g.finalized = true
}

// PrefixSums exposes the finalized (N+1)×(N+1) 2-D prefix-sum array,
// row-major, finalizing the grid if needed. The compact LR index
// (internal/lrindex) aliases this array instead of copying it; callers
// must treat it as read-only.
func (g *Grid) PrefixSums() []int64 {
	if !g.finalized {
		g.Finalize()
	}
	return g.pre
}

// rect returns the number of samples with θ1 bin in [l1, h1] and θ2 bin in
// [l2, h2], inclusive.
func (g *Grid) rect(l1, h1, l2, h2 int) int64 {
	if !g.finalized {
		g.Finalize()
	}
	if l1 > h1 || l2 > h2 {
		return 0
	}
	l1, h1 = clampBin(l1, g.N), clampBin(h1, g.N)
	l2, h2 = clampBin(l2, g.N), clampBin(h2, g.N)
	n := g.N + 1
	return g.pre[(h1+1)*n+(h2+1)] - g.pre[l1*n+(h2+1)] - g.pre[(h1+1)*n+l2] + g.pre[l1*n+l2]
}

// Numerator returns the count of samples matching the numerator predicate
// for observed bins (b1, b2) under dirs.
func (g *Grid) Numerator(dirs Directions, b1, b2 int) int64 {
	l1, h1 := 0, g.N-1
	if dirs.T1LE {
		h1 = b1
	} else {
		l1 = b1
	}
	l2, h2 := 0, g.N-1
	if dirs.T2GE {
		l2 = b2
	} else {
		h2 = b2
	}
	return g.rect(l1, h1, l2, h2)
}

// Denominator returns the count of samples whose θ1 bin satisfies the
// denominator predicate for observed bin b2 under dirs.
func (g *Grid) Denominator(dirs Directions, b2 int) int64 {
	if dirs.DenGE {
		return g.rect(b2, g.N-1, 0, g.N-1)
	}
	return g.rect(0, b2, 0, g.N-1)
}

// LR returns the add-one-smoothed likelihood ratio for observed bins
// (b1, b2): (num+1)/(den+1). Smoothing keeps the ratio finite and positive
// while preserving Theorem 1's monotonicity.
func (g *Grid) LR(dirs Directions, b1, b2 int) float64 {
	num := g.Numerator(dirs, b1, b2)
	den := g.Denominator(dirs, b2)
	return float64(num+1) / float64(den+1)
}

// PointLR returns the likelihood ratio estimated from *exact* bin counts
// — the non-smoothed point estimate of Equation 11 that §3.1 argues
// against: numerator #{θ1ᵢ in bin b1 ∧ θ2ᵢ in bin b2}, denominator
// #{θ1ᵢ in bin b2}. Kept for the smoothing ablation; it suffers exactly
// the sparsity §3.1 describes.
func (g *Grid) PointLR(b1, b2 int) float64 {
	num := g.rect(b1, b1, b2, b2)
	den := g.rect(b2, b2, 0, g.N-1)
	return float64(num+1) / float64(den+1)
}

func clampBin(b, n int) int {
	if b < 0 {
		return 0
	}
	if b >= n {
		return n - 1
	}
	return b
}
