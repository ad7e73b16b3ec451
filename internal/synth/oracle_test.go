package synth

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/unidetect/unidetect/internal/datagen"
)

// This file keeps two syntheses Learn replaced as its oracles: the one
// with candidates as Program values scored through Apply and violations
// listed for every candidate, which the allocation-free matcher is held
// to, and the matcher before it pruned candidates (unprunedLearn), which
// the pruning is held to.

var oracleSeparators = []string{", ", " - ", "/", "-", ": ", ", ", " "}

func oracleLearn(xs, ys []string, minConforming float64) (Fit, bool) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return Fit{}, false
	}
	cands := oracleCandidates(xs, ys)
	maxViolations := int(float64(len(xs))*(1-minConforming)) + 1
	best := Fit{Conforming: -1}
	for _, p := range cands {
		fit, ok := oracleScore(p, xs, ys, maxViolations)
		if ok && fit.Conforming > best.Conforming {
			best = fit
		}
	}
	if best.Conforming < minConforming || best.Program == nil {
		return Fit{}, false
	}
	return best, true
}

func oracleCandidates(xs, ys []string) []Program {
	var out []Program
	out = append(out, Identity{}, CaseTransform{Upper: true}, CaseTransform{Upper: false})
	seen := map[string]bool{}
	derived := 0
	for i := 0; i < len(xs) && derived < 3; i++ {
		x, y := xs[i], ys[i]
		if x == "" || y == "" {
			continue
		}
		idx := strings.Index(y, x)
		if idx < 0 {
			continue
		}
		c := Concat{Prefix: y[:idx], Suffix: y[idx+len(x):]}
		key := "c\x00" + c.Prefix + "\x00" + c.Suffix
		if !seen[key] {
			seen[key] = true
			out = append(out, c)
			derived++
		}
	}
	for _, sep := range oracleSeparators {
		for idx := 0; idx < maxSplitIndex; idx++ {
			key := fmt.Sprintf("s\x00%s\x00%d", sep, idx)
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, SplitSelect{Sep: sep, Index: idx})
		}
	}
	return out
}

func oracleScore(p Program, xs, ys []string, maxViolations int) (Fit, bool) {
	fit := Fit{Program: p}
	scored := 0
	for i := range xs {
		if xs[i] == "" && ys[i] == "" {
			continue
		}
		scored++
		got, ok := p.Apply(xs[i])
		if !ok || got != ys[i] {
			fit.Violations = append(fit.Violations, i)
			if len(fit.Violations) > maxViolations {
				return Fit{}, false
			}
		}
	}
	if scored == 0 {
		fit.Conforming = 0
		return fit, true
	}
	fit.Conforming = float64(scored-len(fit.Violations)) / float64(scored)
	return fit, true
}

// unprunedLearn is Learn trying every candidate, before candidates left
// out those whose score could only fail.
func unprunedLearn(xs, ys []string, minConforming float64) (Fit, bool) {
	if len(xs) != len(ys) || len(xs) == 0 {
		return Fit{}, false
	}
	var buf [maxCandidates]candidate
	cands := unprunedCandidates(buf[:0], xs, ys)
	maxViolations := int(float64(len(xs))*(1-minConforming)) + 1
	best, bestConforming := -1, -1.0
	for i := range cands {
		if conforming, ok := cands[i].score(xs, ys, maxViolations); ok && conforming > bestConforming {
			best, bestConforming = i, conforming
		}
	}
	if best < 0 || bestConforming < minConforming {
		return Fit{}, false
	}
	c := &cands[best]
	return Fit{Program: c.program(), Conforming: bestConforming, Violations: c.violations(xs, ys)}, true
}

// unprunedCandidates is candidates without the pruning.
func unprunedCandidates(out []candidate, xs, ys []string) []candidate {
	out = append(out, candidate{kind: identity}, candidate{kind: upper}, candidate{kind: lower})
	derived := 0
	for i := 0; i < len(xs) && derived < maxConcats; i++ {
		x, y := xs[i], ys[i]
		if x == "" || y == "" {
			continue
		}
		idx := strings.Index(y, x)
		if idx < 0 {
			continue
		}
		c := candidate{kind: concat, a: y[:idx], b: y[idx+len(x):]}
		dup := false
		for _, d := range out[3:] {
			dup = dup || sameConcatKey(d.a, d.b, c.a, c.b)
		}
		if !dup {
			out = append(out, c)
			derived++
		}
	}
	return append(out, splitCandidates...)
}

// checkPruning holds Learn to unprunedLearn on one pair, and checks the
// pruning candidate by candidate: every candidate it leaves out scores
// ok=false, and every one it keeps is one the unpruned search tries. It
// returns how many it left out, and whether want was kept.
func checkPruning(t *testing.T, name string, xs, ys []string, bar float64, want candidate) (dropped int, kept bool) {
	t.Helper()
	lhs := NewLhs(xs)
	got, gok := Learn(&lhs, ys, bar)
	wfit, wok := unprunedLearn(xs, ys, bar)
	if gok != wok || !reflect.DeepEqual(got, wfit) {
		t.Fatalf("%s bar %v: Learn = %+v %v, unpruned %+v %v", name, bar, got, gok, wfit, wok)
	}
	maxViolations := int(float64(len(xs))*(1-bar)) + 1
	var pb, ub [maxCandidates]candidate
	pruned := candidates(pb[:0], &lhs, ys, maxViolations)
	all := unprunedCandidates(ub[:0], xs, ys)
	inPruned := func(c candidate) bool {
		for _, p := range pruned {
			if p == c {
				return true
			}
		}
		return false
	}
	for _, c := range all {
		if inPruned(c) {
			kept = kept || c == want
			continue
		}
		dropped++
		if _, ok := c.score(xs, ys, maxViolations); ok {
			t.Fatalf("%s bar %v: pruning left out %s, which scores ok", name, bar, c.program())
		}
	}
	for _, p := range pruned {
		found := false
		for _, c := range all {
			found = found || c == p
		}
		if !found {
			t.Fatalf("%s bar %v: pruned search tries %s, which the unpruned one does not", name, bar, p.program())
		}
	}
	return dropped, kept
}

// oracleString renders p as String did through fmt.
func oracleString(p Program) string {
	switch p := p.(type) {
	case Concat:
		return fmt.Sprintf("concat(%q, x, %q)", p.Prefix, p.Suffix)
	case SplitSelect:
		return fmt.Sprintf("split(x, %q)[%d]", p.Sep, p.Index)
	}
	return p.String()
}

// TestLearnMatchesOracle runs Learn and both oracles on every column
// pair the FD-synthesis detector measures (the first 30 ordered pairs)
// of generated tables of every profile, at the detector's and the
// repair suggester's acceptance bars.
func TestLearnMatchesOracle(t *testing.T) {
	pairs, fits := 0, 0
	for _, spec := range []datagen.Spec{datagen.WebSpec(), datagen.WikiSpec(), datagen.EnterpriseSpec()} {
		spec.NumTables = 60
		if testing.Short() {
			spec.NumTables = 15
		}
		spec.ErrorRate = 1
		for _, tbl := range datagen.Generate(spec).Tables {
			n := 0
			for li, lc := range tbl.Columns {
				for ri, rc := range tbl.Columns {
					if li == ri || n >= 30 {
						continue
					}
					n++
					lhs := NewLhs(lc.Values)
					for _, bar := range []float64{0.8, 0.6} {
						want, wok := oracleLearn(lc.Values, rc.Values, bar)
						got, gok := Learn(&lhs, rc.Values, bar)
						if up, uok := unprunedLearn(lc.Values, rc.Values, bar); uok != gok || !reflect.DeepEqual(got, up) {
							t.Fatalf("%s %s→%s bar %v: Learn = %+v %v, unpruned %+v %v",
								tbl.Name, lc.Name, rc.Name, bar, got, gok, up, uok)
						}
						if gok != wok || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s %s→%s bar %v: Learn = %+v %v, oracle %+v %v",
								tbl.Name, lc.Name, rc.Name, bar, got, gok, want, wok)
						}
						if gok && got.Program.String() != oracleString(want.Program) {
							t.Fatalf("String() = %s, oracle %s", got.Program, oracleString(want.Program))
						}
						pairs++
						if gok {
							fits++
						}
					}
				}
			}
		}
	}
	if fits == 0 || fits == pairs {
		t.Fatalf("%d of %d pairs fit: the sweep does not exercise both outcomes", fits, pairs)
	}
}

// TestMatchesAgreesWithApply holds every candidate's matcher to Apply on
// random values over separators, cases, multi-byte runes whose case
// mapping changes their length, and NUL bytes.
func TestMatchesAgreesWithApply(t *testing.T) {
	alphabet := []string{"a", "B", ", ", " - ", "/", "-", ": ", " ", "ß", "İ", "ǅ", "\x00", "\xff", "7"}
	rng := rand.New(rand.NewSource(3))
	word := func(n int) string {
		var b strings.Builder
		for ; n > 0; n-- {
			b.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for iter := 0; iter < 20000; iter++ {
		x := word(rng.Intn(6))
		cands := []candidate{{kind: identity}, {kind: upper}, {kind: lower},
			{kind: concat, a: word(rng.Intn(3)), b: word(rng.Intn(3))}}
		cands = append(cands, splitCandidates...)
		for _, c := range cands {
			want, ok := c.program().Apply(x)
			ys := []string{want, word(rng.Intn(6)), strings.ToUpper(x), strings.ToLower(x)}
			for _, y := range ys {
				if got := c.matches(x, y); got != (ok && want == y) {
					t.Fatalf("%s matches(%q, %q) = %v, Apply = (%q, %v)", c.program(), x, y, got, want, ok)
				}
			}
		}
	}
}

func TestSameConcatKey(t *testing.T) {
	parts := []string{"", "a", "\x00", "a\x00", "\x00b", "a\x00b", "ab"}
	for _, p1 := range parts {
		for _, s1 := range parts {
			for _, p2 := range parts {
				for _, s2 := range parts {
					want := p1+"\x00"+s1 == p2+"\x00"+s2
					if got := sameConcatKey(p1, s1, p2, s2); got != want {
						t.Errorf("sameConcatKey(%q, %q, %q, %q) = %v, want %v", p1, s1, p2, s2, got, want)
					}
				}
			}
		}
	}
}

func TestSeparatorsDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range separators {
		if seen[s] {
			t.Errorf("separator %q listed twice", s)
		}
		seen[s] = true
	}
}

// TestLearnAllocatesOnlyTheFit pins the search allocation-free: a pair
// with no fit, or whose winner is a case transform without violations,
// allocates nothing, and a split winner only its program and its
// violating rows.
func TestLearnAllocatesOnlyTheFit(t *testing.T) {
	names := []string{"Doe, John", "Smith, Jane", "Keane, Andrew", "Roe, Rick", "Poe, Ed"}
	for _, c := range []struct {
		ys    []string
		fits  bool
		alloc float64
	}{
		{[]string{"1", "2", "3", "4", "5"}, false, 0},
		{[]string{"DOE, JOHN", "SMITH, JANE", "KEANE, ANDREW", "ROE, RICK", "POE, ED"}, true, 0},
		{[]string{"Doe", "Smith", "Keane", "Roe", "Po"}, true, 2},
	} {
		lhs := NewLhs(names)
		if _, ok := Learn(&lhs, c.ys, 0.6); ok != c.fits {
			t.Fatalf("Learn(%q) ok = %v, want %v", c.ys, ok, c.fits)
		}
		if n := testing.AllocsPerRun(50, func() { Learn(&lhs, c.ys, 0.6) }); n != c.alloc {
			t.Errorf("Learn(%q): %v allocs/op, want %v", c.ys, n, c.alloc)
		}
	}
}

// TestLearnPruningBoundaries checks the pruning where it turns: split
// programs at exactly maxViolations and maxViolations+1 values without
// the separator, the overlapping " - - " that strings.Count counts as
// strings.Split splits it (a count of every position " - " starts at
// would not), rows with x empty and y not, and a concatenation whose
// first derivable row follows exactly maxViolations and
// maxViolations+1 refuting rows.
func TestLearnPruningBoundaries(t *testing.T) {
	const n = 40
	for _, bar := range []float64{0.8, 0.6} {
		mv := int(float64(n)*(1-bar)) + 1
		fill := func(f func(i int) (string, string)) ([]string, []string) {
			xs, ys := make([]string, n), make([]string, n)
			for i := range xs {
				xs[i], ys[i] = f(i)
			}
			return xs, ys
		}
		comma := candidate{kind: split, a: ", ", index: 0}
		for _, missing := range []int{mv, mv + 1} {
			xs, ys := fill(func(i int) (string, string) {
				if i < missing {
					return fmt.Sprintf("k%dv", i), fmt.Sprintf("k%d", i)
				}
				return fmt.Sprintf("k%d, v", i), fmt.Sprintf("k%d", i)
			})
			name := fmt.Sprintf("separator missing from %d rows", missing)
			if _, kept := checkPruning(t, name, xs, ys, bar, comma); kept != (missing <= mv) {
				t.Errorf("%s bar %v: split kept = %v, want %v", name, bar, kept, missing <= mv)
			}
		}

		// "a - - b" splits on " - " into "a" and "- b": one separator,
		// though " - " starts at two positions.
		dash := candidate{kind: split, a: " - ", index: 2}
		xs, ys := fill(func(i int) (string, string) { return fmt.Sprintf("a%d - - b", i), "- b" })
		if _, kept := checkPruning(t, "overlapping separators", xs, ys, bar, dash); kept {
			t.Errorf("bar %v: split(x, \" - \")[2] kept over two-field values", bar)
		}
		xs, ys = fill(func(i int) (string, string) {
			if i%2 == 0 {
				return fmt.Sprintf("a%d - - b - c", i), "c"
			}
			return fmt.Sprintf("a%d - - b", i), "c"
		})
		checkPruning(t, "overlapping separators, half with a third field", xs, ys, bar, dash)

		xs, ys = fill(func(i int) (string, string) {
			if i%5 == 0 {
				return "", fmt.Sprintf("y%d", i)
			}
			return fmt.Sprintf("p%d/q", i), fmt.Sprintf("p%d", i)
		})
		checkPruning(t, "x empty, y not", xs, ys, bar, candidate{kind: split, a: "/", index: 0})

		route := candidate{kind: concat, a: "Route ", b: ""}
		for _, refuting := range []int{mv, mv + 1} {
			xs, ys := fill(func(i int) (string, string) {
				if i < refuting {
					return fmt.Sprintf("%d", i), "none"
				}
				return fmt.Sprintf("%d", i), fmt.Sprintf("Route %d", i)
			})
			name := fmt.Sprintf("concatenation after %d refuting rows", refuting)
			if _, kept := checkPruning(t, name, xs, ys, bar, route); kept != (refuting <= mv) {
				t.Errorf("%s bar %v: concatenation kept = %v, want %v", name, bar, kept, refuting <= mv)
			}
		}
	}
}
