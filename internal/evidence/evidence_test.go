package evidence

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLinearQuantizer(t *testing.T) {
	q := LinearQuantizer{Min: 0, Max: 10, N: 10}
	cases := map[float64]int{-1: 0, 0: 0, 0.5: 0, 1: 1, 9.99: 9, 10: 9, 11: 9}
	for x, want := range cases {
		if got := q.Bin(x); got != want {
			t.Errorf("Bin(%v) = %d, want %d", x, got, want)
		}
	}
	if q.Bin(math.NaN()) != 0 {
		t.Error("NaN should map to bin 0")
	}
}

func TestRatioQuantizerResolutionNearOne(t *testing.T) {
	q := RatioQuantizer{N: 100}
	if q.Bin(0) != 0 || q.Bin(1) != 99 {
		t.Errorf("endpoints: %d, %d", q.Bin(0), q.Bin(1))
	}
	// 0.99 and 0.999 must land in different bins (1% vs 0.1% unique).
	if q.Bin(0.99) == q.Bin(0.999) {
		t.Errorf("0.99 and 0.999 collide in bin %d", q.Bin(0.99))
	}
	// Bins are monotone.
	prev := -1
	for x := 0.0; x <= 1.0; x += 0.001 {
		b := q.Bin(x)
		if b < prev {
			t.Fatalf("RatioQuantizer not monotone at %v: %d < %d", x, b, prev)
		}
		prev = b
	}
}

func TestLogQuantizer(t *testing.T) {
	q := LogQuantizer{Scale: 8, N: 64}
	if q.Bin(0) != 0 || q.Bin(-5) != 0 {
		t.Error("non-positive should map to 0")
	}
	if q.Bin(math.Inf(1)) != 63 {
		t.Error("+Inf should map to last bin")
	}
	if q.Bin(2) >= q.Bin(20) || q.Bin(20) >= q.Bin(2000) {
		t.Error("log bins should separate magnitudes")
	}
	if q.Bin(1e18) != 63 {
		t.Error("huge values clamp to last bin")
	}
}

func TestIntQuantizer(t *testing.T) {
	q := IntQuantizer{N: 32}
	cases := map[float64]int{-1: 0, 0: 0, 1: 1, 9: 9, 31: 31, 32: 31, 1000: 31}
	for x, want := range cases {
		if got := q.Bin(x); got != want {
			t.Errorf("Bin(%v) = %d, want %d", x, got, want)
		}
	}
}

// brute computes numerator/denominator counts directly from samples.
type sample struct{ b1, b2 int }

func bruteNum(samples []sample, d Directions, b1, b2 int) int64 {
	var n int64
	for _, s := range samples {
		ok1 := s.b1 >= b1
		if d.T1LE {
			ok1 = s.b1 <= b1
		}
		ok2 := s.b2 <= b2
		if d.T2GE {
			ok2 = s.b2 >= b2
		}
		if ok1 && ok2 {
			n++
		}
	}
	return n
}

func bruteDen(samples []sample, d Directions, b2 int) int64 {
	var n int64
	for _, s := range samples {
		ok := s.b1 >= b2
		if !d.DenGE {
			ok = s.b1 <= b2
		}
		if ok {
			n++
		}
	}
	return n
}

func TestGridMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const N = 16
	g := NewGrid(N)
	var samples []sample
	for i := 0; i < 500; i++ {
		s := sample{rng.Intn(N), rng.Intn(N)}
		samples = append(samples, s)
		g.Add(s.b1, s.b2)
	}
	g.Finalize()
	dirsList := []Directions{OutlierDirections, SpellingDirections, RatioDirections,
		{T1LE: false, T2GE: true, DenGE: false}}
	for _, d := range dirsList {
		for b1 := 0; b1 < N; b1++ {
			for b2 := 0; b2 < N; b2++ {
				if got, want := g.Numerator(d, b1, b2), bruteNum(samples, d, b1, b2); got != want {
					t.Fatalf("Numerator(%+v,%d,%d) = %d, want %d", d, b1, b2, got, want)
				}
				if got, want := g.Denominator(d, b2), bruteDen(samples, d, b2); got != want {
					t.Fatalf("Denominator(%+v,%d) = %d, want %d", d, b2, got, want)
				}
			}
		}
	}
}

// Theorem 1 (monotonicity): a more extreme (θ1, θ2) pair never yields a
// larger LR. For OutlierDirections: b1' >= b1 and b2' <= b2 implies
// LR(b1', b2') <= LR(b1, b2).
func TestLRMonotonicityOutlier(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const N = 12
	g := NewGrid(N)
	for i := 0; i < 400; i++ {
		g.Add(rng.Intn(N), rng.Intn(N))
	}
	g.Finalize()
	for b1 := 0; b1 < N; b1++ {
		for b2 := 0; b2 < N; b2++ {
			lr := g.LR(OutlierDirections, b1, b2)
			for b1p := b1; b1p < N; b1p++ {
				for b2p := 0; b2p <= b2; b2p++ {
					if lrp := g.LR(OutlierDirections, b1p, b2p); lrp > lr+1e-12 {
						t.Fatalf("monotonicity violated: LR(%d,%d)=%v > LR(%d,%d)=%v",
							b1p, b2p, lrp, b1, b2, lr)
					}
				}
			}
		}
	}
}

// Same property for the spelling orientation: smaller θ1, larger θ2 is
// more extreme.
func TestLRMonotonicitySpelling(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const N = 12
	g := NewGrid(N)
	for i := 0; i < 400; i++ {
		g.Add(rng.Intn(N), rng.Intn(N))
	}
	g.Finalize()
	for b1 := 0; b1 < N; b1++ {
		for b2 := 0; b2 < N; b2++ {
			lr := g.LR(SpellingDirections, b1, b2)
			for b1p := 0; b1p <= b1; b1p++ {
				for b2p := b2; b2p < N; b2p++ {
					if lrp := g.LR(SpellingDirections, b1p, b2p); lrp > lr+1e-12 {
						t.Fatalf("monotonicity violated: LR(%d,%d)=%v > LR(%d,%d)=%v",
							b1p, b2p, lrp, b1, b2, lr)
					}
				}
			}
		}
	}
}

func TestGridAddAfterFinalizePanics(t *testing.T) {
	g := NewGrid(4)
	g.Finalize()
	defer func() {
		if recover() == nil {
			t.Error("Add after Finalize should panic")
		}
	}()
	g.Add(0, 0)
}

func TestGridMerge(t *testing.T) {
	a, b := NewGrid(4), NewGrid(4)
	a.Add(1, 2)
	b.Add(1, 2)
	b.Add(3, 0)
	a.Merge(b)
	if a.Total != 3 {
		t.Errorf("Total = %d", a.Total)
	}
	if a.Counts[1*4+2] != 2 {
		t.Errorf("merged count = %d", a.Counts[1*4+2])
	}
	defer func() {
		if recover() == nil {
			t.Error("merging different sizes should panic")
		}
	}()
	a.Merge(NewGrid(5))
}

func TestPointLR(t *testing.T) {
	g := NewGrid(8)
	g.Add(3, 1)
	g.Add(3, 1)
	g.Add(1, 0) // θ1 bin 1: denominator mass for b2=1
	g.Add(1, 5)
	g.Finalize()
	// Observed (3,1): num = #{θ1=3 ∧ θ2=1} = 2; den = #{θ1=1} = 2.
	if got := g.PointLR(3, 1); got != 3.0/3.0 {
		t.Errorf("PointLR = %v, want 1", got)
	}
	// Unseen exact combination: num 0, den 0 -> 1 (no evidence).
	if got := g.PointLR(7, 7); got != 1 {
		t.Errorf("PointLR unseen = %v", got)
	}
}

func TestLRSmoothed(t *testing.T) {
	g := NewGrid(4)
	g.Finalize()
	// Empty grid: LR = (0+1)/(0+1) = 1 — no evidence, not surprising.
	if lr := g.LR(OutlierDirections, 3, 0); lr != 1 {
		t.Errorf("empty-grid LR = %v, want 1", lr)
	}
	g2 := NewGrid(4)
	for i := 0; i < 99; i++ {
		g2.Add(0, 0) // 99 mundane samples
	}
	g2.Finalize()
	// Observed (3,0) with OutlierDirections: num = {b1>=3,b2<=0} = 0,
	// den = {b1>=0} = 99 -> LR = 1/100.
	if lr := g2.LR(OutlierDirections, 3, 0); lr != 0.01 {
		t.Errorf("LR = %v, want 0.01", lr)
	}
}

// Property: quantizers are monotone.
func TestQuantizersMonotoneProperty(t *testing.T) {
	qs := []Quantizer{
		LinearQuantizer{Min: 0, Max: 100, N: 32},
		RatioQuantizer{N: 64},
		LogQuantizer{Scale: 8, N: 64},
		IntQuantizer{N: 32},
	}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		for _, q := range qs {
			if q.Bin(a) > q.Bin(b) {
				return false
			}
			if q.Bin(a) < 0 || q.Bin(a) >= q.Bins() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
