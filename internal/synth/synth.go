// Package synth implements the program-synthesis substrate behind the
// FD-synthesis detector (Appendix D): given two columns X and Y it learns
// an explicit programmatic relationship — concatenation with literal
// affixes, split-and-select, or case transforms — that holds for a
// majority of rows. An explicit program "makes sure that a relationship
// really exists between the columns" (App. D), which is what lifts
// FD-synthesis precision over classical FD in Figure 12.
package synth

import (
	"strconv"
	"strings"
	"unicode/utf8"
)

// Program transforms an input cell value to an output cell value.
type Program interface {
	// Apply runs the program; ok=false means the input is outside the
	// program's domain (e.g. the separator is missing).
	Apply(in string) (out string, ok bool)
	// String renders the program for humans ("concat(\"Route \", x)").
	String() string
}

// Identity copies the input.
type Identity struct{}

// Apply implements Program.
func (Identity) Apply(in string) (string, bool) { return in, true }

// String implements Program.
func (Identity) String() string { return "x" }

// Concat produces Prefix + x + Suffix.
type Concat struct {
	Prefix, Suffix string
}

// Apply implements Program.
func (c Concat) Apply(in string) (string, bool) { return c.Prefix + in + c.Suffix, true }

// String implements Program.
func (c Concat) String() string {
	return "concat(" + strconv.Quote(c.Prefix) + ", x, " + strconv.Quote(c.Suffix) + ")"
}

// SplitSelect splits x on Sep and returns field Index.
type SplitSelect struct {
	Sep   string
	Index int
}

// Apply implements Program.
func (s SplitSelect) Apply(in string) (string, bool) {
	parts := strings.Split(in, s.Sep)
	if s.Index < 0 || s.Index >= len(parts) || len(parts) < 2 {
		return "", false
	}
	return parts[s.Index], true
}

// String implements Program.
func (s SplitSelect) String() string {
	return "split(x, " + strconv.Quote(s.Sep) + ")[" + strconv.Itoa(s.Index) + "]"
}

// CaseTransform upper- or lower-cases x.
type CaseTransform struct{ Upper bool }

// Apply implements Program.
func (c CaseTransform) Apply(in string) (string, bool) {
	if c.Upper {
		return strings.ToUpper(in), true
	}
	return strings.ToLower(in), true
}

// String implements Program.
func (c CaseTransform) String() string {
	if c.Upper {
		return "upper(x)"
	}
	return "lower(x)"
}

// Fit is the result of learning a program over example pairs.
type Fit struct {
	Program Program
	// Conforming is the fraction of rows the program reproduces exactly.
	Conforming float64
	// Violations lists the row indices the program does not reproduce.
	Violations []int
}

// separators tried by split-program enumeration, most specific first.
var separators = [...]string{", ", " - ", "/", "-", ": ", " "}

const (
	// maxSplitIndex bounds the field index tried for split programs.
	maxSplitIndex = 4
	// maxConcats bounds the concatenations derived from example rows.
	maxConcats = 3
	// maxCandidates is the most programs Learn tries on one pair:
	// identity, the two case transforms, the derived concatenations
	// and every split.
	maxCandidates = 3 + maxConcats + len(separators)*maxSplitIndex
)

// Lhs is an lhs column prepared for Learn once and shared by every rhs
// column it is tried against: its values, and for each split program,
// how many non-empty values have too few fields for it.
type Lhs struct {
	xs []string
	// short[i] counts the non-empty values that splitCandidates[i]
	// cannot select from: strings.Split leaves fewer than two fields or
	// none at the candidate's index.
	short [len(separators) * maxSplitIndex]int32
}

// NewLhs prepares the lhs column xs for Learn. Fields are counted with
// strings.Count, which counts non-overlapping separators as
// strings.Split splits on them.
func NewLhs(xs []string) Lhs {
	l := Lhs{xs: xs}
	for _, x := range xs {
		if x == "" {
			continue
		}
		for si, sep := range separators {
			n := strings.Count(x, sep)
			for idx := 0; idx < maxSplitIndex; idx++ {
				if n < max(1, idx) {
					l.short[si*maxSplitIndex+idx]++
				}
			}
		}
	}
	return l
}

// Learn searches the program space for the best program mapping the lhs
// values to ys row-wise, requiring at least minConforming fraction of
// exact matches. It returns ok=false when no program clears the bar.
// Empty rows are skipped from scoring (they neither support nor
// violate).
//
// The search is programming-by-example in miniature: candidate programs
// are instantiated from the first non-empty example rows and then
// verified against all rows, as in FlashFill-style synthesis [45, 62, 81].
// Candidates are matched against the rows without building their
// outputs, and only the winner's violating rows are listed. A candidate
// that the lhs summary or the derivation rows already show to exceed
// the violations the bar allows is not tried: its score could only
// fail.
func Learn(lhs *Lhs, ys []string, minConforming float64) (Fit, bool) {
	xs := lhs.xs
	if len(xs) != len(ys) || len(xs) == 0 {
		return Fit{}, false
	}
	// A program must reach minConforming; once it has accumulated more
	// violations than that allows, scoring can stop early.
	maxViolations := int(float64(len(xs))*(1-minConforming)) + 1
	var buf [maxCandidates]candidate
	cands := candidates(buf[:0], lhs, ys, maxViolations)
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

// kind is the program family of a candidate.
type kind uint8

const (
	identity kind = iota
	upper
	lower
	concat
	split
)

// candidate is a program in the form the scorer matches directly.
type candidate struct {
	kind  kind
	a, b  string // concat: prefix and suffix; split: separator (a)
	index int    // split: field index
}

// splitCandidates are the split programs tried on every pair, in
// order: every separator with every field index.
var splitCandidates = func() []candidate {
	var out []candidate
	for _, sep := range separators {
		for idx := 0; idx < maxSplitIndex; idx++ {
			out = append(out, candidate{kind: split, a: sep, index: idx})
		}
	}
	return out
}()

// candidates appends the candidate programs for a pair to out:
// identity and the case transforms, up to maxConcats concatenations
// derived from rows where x is a non-empty substring of y, then the
// split programs. It leaves out candidates that must violate more than
// maxViolations scored rows:
//   - a split program more non-empty x values have too few fields for;
//   - every concatenation derived after more rows than that, with both
//     sides non-empty, have no x in y: no concatenation maps those.
//
// alloc-budget: 3 appends stay within Learn's fixed-size candidate array
func candidates(out []candidate, lhs *Lhs, ys []string, maxViolations int) []candidate {
	out = append(out, candidate{kind: identity}, candidate{kind: upper}, candidate{kind: lower})
	xs := lhs.xs
	derived, refuted := 0, 0
	for i := 0; i < len(xs) && derived < maxConcats; i++ {
		x, y := xs[i], ys[i]
		if x == "" || y == "" {
			continue
		}
		idx := strings.Index(y, x)
		if idx < 0 {
			if refuted++; refuted > maxViolations {
				break
			}
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
	for i := range splitCandidates {
		if int(lhs.short[i]) <= maxViolations {
			out = append(out, splitCandidates[i])
		}
	}
	return out
}

// sameConcatKey reports whether two concatenations share the dedupe key
// prefix+"\x00"+suffix without building it. The key differs from
// comparing the affixes only when they hold NUL bytes.
func sameConcatKey(p1, s1, p2, s2 string) bool {
	if len(p1)+len(s1) != len(p2)+len(s2) {
		return false
	}
	if len(p1) > len(p2) {
		p1, s1, p2, s2 = p2, s2, p1, s1
	}
	if len(p1) == len(p2) {
		return p1 == p2 && s1 == s2
	}
	// p2 = p1 + "\x00" + mid and s1 = mid + "\x00" + s2.
	mid := p2[len(p1)+1:]
	return p2[:len(p1)] == p1 && p2[len(p1)] == 0 &&
		s1[:len(mid)] == mid && s1[len(mid)] == 0 && s1[len(mid)+1:] == s2
}

// program returns the candidate as a Program.
func (c *candidate) program() Program {
	switch c.kind {
	case identity:
		return Identity{}
	case upper:
		return CaseTransform{Upper: true}
	case lower:
		return CaseTransform{Upper: false}
	case concat:
		return Concat{Prefix: c.a, Suffix: c.b}
	}
	return SplitSelect{Sep: c.a, Index: c.index}
}

// score returns the fraction of scored rows the candidate reproduces,
// or ok=false once it has more than maxViolations violations.
func (c *candidate) score(xs, ys []string, maxViolations int) (conforming float64, ok bool) {
	scored, violations := 0, 0
	for i := range xs {
		if xs[i] == "" && ys[i] == "" {
			continue
		}
		scored++
		if !c.matches(xs[i], ys[i]) {
			if violations++; violations > maxViolations {
				return 0, false
			}
		}
	}
	if scored == 0 {
		return 0, true
	}
	return float64(scored-violations) / float64(scored), true
}

// violations lists the scored rows the candidate does not reproduce.
//
// alloc-budget: 1 the winner's violating rows, returned in the fit
func (c *candidate) violations(xs, ys []string) []int {
	var out []int
	for i := range xs {
		if (xs[i] != "" || ys[i] != "") && !c.matches(xs[i], ys[i]) {
			out = append(out, i)
		}
	}
	return out
}

// matches reports whether the candidate maps x to exactly y, as
// Apply(x) == (y, true) would, without building Apply's output.
func (c *candidate) matches(x, y string) bool {
	switch c.kind {
	case identity:
		return x == y
	case upper, lower:
		return caseMatches(x, y, c.kind == upper)
	case concat:
		return len(y) == len(c.a)+len(x)+len(c.b) &&
			strings.HasPrefix(y, c.a) && strings.HasSuffix(y, c.b) && y[len(c.a):len(c.a)+len(x)] == x
	}
	return splitMatches(x, y, c.a, c.index)
}

// caseMatches reports whether upper- (or lower-) casing x gives y,
// comparing bytes for ASCII x and deferring to strings.ToUpper/ToLower
// otherwise.
func caseMatches(x, y string, up bool) bool {
	for i := 0; i < len(x); i++ {
		if x[i] >= utf8.RuneSelf {
			if up {
				return strings.ToUpper(x) == y
			}
			return strings.ToLower(x) == y
		}
	}
	if len(x) != len(y) {
		return false
	}
	for i := 0; i < len(x); i++ {
		c := x[i]
		switch {
		case up && 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		case !up && 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		if c != y[i] {
			return false
		}
	}
	return true
}

// splitMatches reports whether field index of strings.Split(x, sep)
// exists, x has at least two fields, and the field is y — walking the
// separators instead of splitting.
func splitMatches(x, y, sep string, index int) bool {
	end := strings.Index(x, sep)
	if end < 0 || index < 0 {
		return false
	}
	start := 0
	for k := 0; k < index; k++ {
		if end < 0 {
			return false
		}
		start = end + len(sep)
		if next := strings.Index(x[start:], sep); next >= 0 {
			end = start + next
		} else {
			end = -1
		}
	}
	if end < 0 {
		end = len(x)
	}
	return x[start:end] == y
}
