package strdist

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/table"
)

// oracleMPD is what the spelling detector computed before the kernel:
// MinPairDistCapped, then SecondMinPairDistCapped dropping either row of
// the pair, θ2 being the larger perturbed MPD that exists.
func oracleMPD(vals []string, cap int) (Pair, int, bool) {
	p, ok := MinPairDistCapped(vals, cap)
	if !ok {
		return Pair{}, 0, false
	}
	q1, ok1 := SecondMinPairDistCapped(vals, p.I, cap)
	q2, ok2 := SecondMinPairDistCapped(vals, p.J, cap)
	switch {
	case ok1 && ok2:
		return p, max(q1.Dist, q2.Dist), true
	case ok1:
		return p, q1.Dist, true
	case ok2:
		return p, q2.Dist, true
	}
	return Pair{}, 0, false
}

func checkKernel(t *testing.T, sc *Scratch, name string, vals []string, cap int) {
	t.Helper()
	wp, wt, wok := oracleMPD(vals, cap)
	gp, gt, gok := SpellingMPD(table.NewProfile(vals), cap, sc)
	if gok != wok || (wok && (gp != wp || gt != wt)) {
		t.Errorf("%s (cap %d, %d rows): SpellingMPD = %+v θ2=%d ok=%v, oracle %+v θ2=%d ok=%v",
			name, cap, len(vals), gp, gt, gok, wp, wt, wok)
	}
}

// edgeColumns are the shapes the kernel's shortcuts must not get wrong.
func edgeColumns() map[string][]string {
	long := strings.Repeat("abcdefghij", 8)
	cols := map[string][]string{
		"all equal":         {"x", "x", "x", "x", "x", "x"},
		"two distinct":      {"a", "b"},
		"two distinct dup":  {"ab", "ab", "ac", "ab", "ac"},
		"two distinct once": {"kitten", "kitten", "kitten", "sitting"},
		"empty and dups":    {"", "", "a", "", "ab", "a", "", "abc", "ab"},
		"only empty":        {"", "", ""},
		"non-ascii":         {"São Paulo", "Sao Paulo", "日本語", "日本誤", "Zürich", "Zurich", "Zürich"},
		"invalid utf8":      {"\xff", "\xfe", "a\xffb", "a\xfeb", "\xef\xbf\xbd", "ab", "\xff"},
		"invalid after one": {"ab", "ac", "\xff", "\xfe", "ab", "\xff"},
		"collision first":   {"\xfe", "\xff", "\xfe", "ab", "ac", "zz"},
		"long values": {long, long + "k", "x" + long, long[:70] + "QQ" + long[72:],
			strings.Repeat("é", 70), strings.Repeat("é", 69) + "e", long},
		"long unique": {long + "1", long + "22", long + "333", "short", "shirt"},
		"mixed ascii": {"resume", "résumé", "resumes", "résumés", "resume"},
	}
	// A column at the cap runs exact scans; one row more runs a blocked
	// first scan and exact perturbed scans.
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{ExactMPDCap, ExactMPDCap + 1, ExactMPDCap + 2} {
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("%s-%d", randomWord(rng, 6), rng.Intn(n/2))
		}
		vals[n/3], vals[n-1] = "Kevin Doeling", "Kevin Dowling"
		cols[fmt.Sprintf("rows %d", n)] = vals
		dup := append([]string(nil), vals...)
		dup[n/2] = "Kevin Doeling"
		cols[fmt.Sprintf("rows %d dup", n)] = dup
	}
	return cols
}

func TestSpellingMPDEdgeColumns(t *testing.T) {
	sc := &Scratch{}
	for name, vals := range edgeColumns() {
		for _, cap := range []int{0, 1, 2, 3, 5, len(vals) - 1, len(vals)} {
			checkKernel(t, sc, name, vals, cap)
		}
	}
}

// TestSpellingMPDDatagen checks every column of generated tables of
// every profile, at the default cap and at small caps that force the
// blocked scans.
func TestSpellingMPDDatagen(t *testing.T) {
	sc := &Scratch{}
	for _, spec := range []datagen.Spec{datagen.WebSpec(), datagen.WikiSpec(), datagen.EnterpriseSpec()} {
		spec.NumTables = 40
		if testing.Short() {
			spec.NumTables = 10
		}
		spec.ErrorRate = 1
		for _, tbl := range datagen.Generate(spec).Tables {
			for _, c := range tbl.Columns {
				for _, cap := range []int{0, 7, 40} {
					checkKernel(t, sc, spec.Name+"/"+tbl.Name+"/"+c.Name, c.Values, cap)
				}
			}
		}
	}
}

// TestSpellingMPDRandom sweeps small random columns over an alphabet
// with multi-byte and invalid UTF-8, where ties, duplicates and
// zero-distance collisions are common.
func TestSpellingMPDRandom(t *testing.T) {
	alphabet := []string{"a", "b", "c", "é", "\xff", "\xfe", "\xef\xbf\xbd", " "}
	rng := rand.New(rand.NewSource(11))
	sc := &Scratch{}
	for iter := 0; iter < 3000; iter++ {
		vals := make([]string, 2+rng.Intn(14))
		for i := range vals {
			var b strings.Builder
			for k := rng.Intn(4); k > 0; k-- {
				b.WriteString(alphabet[rng.Intn(len(alphabet))])
			}
			vals[i] = b.String()
		}
		checkKernel(t, sc, fmt.Sprintf("iter %d %q", iter, vals), vals, rng.Intn(len(vals)+2))
	}
}

// FuzzSpellingMPD holds the kernel to the oracle on arbitrary columns:
// the input is split into values at newlines, and capSeed picks the cap
// so that both exact and blocked scans are reached.
func FuzzSpellingMPD(f *testing.F) {
	f.Add("kitten\nsitting\nmitten\nkitten", uint8(0))
	f.Add("\xff\n\xfe\nab\n\xef\xbf\xbd\nac", uint8(2))
	f.Add("Zürich\nZurich\n\nZürich\n日本語\n日本誤", uint8(3))
	f.Fuzz(func(t *testing.T, blob string, capSeed uint8) {
		vals := strings.Split(blob, "\n")
		if len(vals) > 64 || len(blob) > 2048 {
			return
		}
		cap := int(capSeed) % (len(vals) + 2)
		wp, wt, wok := oracleMPD(vals, cap)
		gp, gt, gok := SpellingMPD(table.NewProfile(vals), cap, &Scratch{})
		if gok != wok || (wok && (gp != wp || gt != wt)) {
			t.Fatalf("%q cap %d: SpellingMPD = %+v θ2=%d ok=%v, oracle %+v θ2=%d ok=%v",
				vals, cap, gp, gt, gok, wp, wt, wok)
		}
	})
}

// TestBitParallelDistance holds the Myers distance and the banded DP
// behind dist to the full Levenshtein DP on ASCII and non-ASCII pairs,
// including values longer than one machine word.
func TestBitParallelDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	word := func(alpha string, n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alpha[rng.Intn(len(alpha))]
		}
		return string(b)
	}
	sc := &Scratch{}
	for iter := 0; iter < 4000; iter++ {
		alpha := "abc"
		if iter%3 == 0 {
			alpha = "ab\xc3\xa9"
		}
		a := word(alpha, rng.Intn(90))
		b := word(alpha, rng.Intn(90))
		if iter%2 == 0 && len(a) > 0 {
			b = a[:rng.Intn(len(a))] + word(alpha, rng.Intn(3)) + a[rng.Intn(len(a)):]
		}
		if a == b {
			continue
		}
		sc.index(table.NewProfile([]string{a, b}))
		bound := rng.Intn(70) - 1
		full := Levenshtein(a, b)
		gd, gok := sc.dist(0, 1, bound)
		if gok != (full <= bound) || (gok && gd != full) {
			t.Fatalf("dist(%q, %q, %d) = (%d,%v), Levenshtein %d", a, b, bound, gd, gok, full)
		}
	}
}

func TestSpellingMPDWarmScratchAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = randomWord(rng, 8)
	}
	vals[150] = vals[20] + "x"
	prof, sc := table.NewProfile(vals), &Scratch{}
	SpellingMPD(prof, 0, sc)
	if n := testing.AllocsPerRun(20, func() { SpellingMPD(prof, 0, sc) }); n != 0 {
		t.Errorf("SpellingMPD on a warm scratch: %v allocs/op, want 0", n)
	}
}

func BenchmarkSpellingMPD(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	vals := make([]string, 200)
	for i := range vals {
		vals[i] = fmt.Sprintf("%s %s", randomWord(rng, 6), randomWord(rng, 7))
	}
	prof, sc := table.NewProfile(vals), &Scratch{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SpellingMPD(prof, 0, sc)
	}
}
