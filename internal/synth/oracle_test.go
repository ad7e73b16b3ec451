package synth

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/unidetect/unidetect/internal/datagen"
)

// This file keeps the synthesis Learn replaced — candidates as Program
// values scored through Apply, violations listed for every candidate —
// as the oracle the allocation-free matcher is held to.

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

// TestLearnMatchesOracle runs both syntheses on every column pair the
// FD-synthesis detector measures (the first 30 ordered pairs) of
// generated tables of every profile, at the detector's and the repair
// suggester's acceptance bars.
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
					for _, bar := range []float64{0.8, 0.6} {
						want, wok := oracleLearn(lc.Values, rc.Values, bar)
						got, gok := Learn(lc.Values, rc.Values, bar)
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
		if _, ok := Learn(names, c.ys, 0.6); ok != c.fits {
			t.Fatalf("Learn(%q) ok = %v, want %v", c.ys, ok, c.fits)
		}
		if n := testing.AllocsPerRun(50, func() { Learn(names, c.ys, 0.6) }); n != c.alloc {
			t.Errorf("Learn(%q): %v allocs/op, want %v", c.ys, n, c.alloc)
		}
	}
}
