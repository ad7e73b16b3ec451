// Package repair proposes fixes for detected errors. Detection is the
// paper's subject; repair is its stated downstream step ("error-detection
// ... is orthogonal to and one step before error-repair", Appendix A) and
// Appendix D observes that explicit programmatic relationships "enable
// exact repair (through generative program synthesis)". This package
// implements the natural repair for each error class:
//
//   - spelling: replace the misspelled value with its close neighbour;
//   - outlier: undo the power-of-ten scale shift that best re-centers the
//     value in its column;
//   - uniqueness: no automatic repair (the colliding rows are surfaced;
//     only the user knows which is wrong);
//   - FD: replace the minority right-hand-side of a violating group with
//     the group's majority value;
//   - FD-synthesis: recompute the cell from the synthesized program —
//     the exact repair of Appendix D.
package repair

import (
	"fmt"
	"math"
	"strings"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/stats"
	"github.com/unidetect/unidetect/internal/strdist"
	"github.com/unidetect/unidetect/internal/synth"
	"github.com/unidetect/unidetect/internal/table"
)

// Suggestion is one proposed cell repair.
type Suggestion struct {
	Table  string
	Column string
	Row    int
	// Old is the current (suspect) value, New the proposed replacement.
	Old, New string
	// Confidence in (0, 1]: how mechanically determined the repair is
	// (program-derived repairs are 1; heuristic ones less).
	Confidence float64
	Rationale  string
}

// String renders the suggestion.
func (s Suggestion) String() string {
	return fmt.Sprintf("%s!%s[%d]: %q -> %q (%.0f%%: %s)",
		s.Table, s.Column, s.Row, s.Old, s.New, 100*s.Confidence, s.Rationale)
}

// Suggest proposes repairs for a finding against its table. Findings
// whose repair is not mechanically determinable yield no suggestions.
func Suggest(t *table.Table, f core.Finding) []Suggestion {
	switch f.Class {
	case core.ClassSpelling:
		return suggestSpelling(t, f)
	case core.ClassOutlier:
		return suggestOutlier(t, f)
	case core.ClassFD:
		return suggestFD(t, f)
	case core.ClassFDSynth:
		return suggestSynth(t, f)
	default:
		return nil
	}
}

// suggestSpelling proposes replacing the rarer value of the flagged pair
// with the more frequent one (misspellings are one-off; the correct form
// usually recurs). With equal frequencies no side can be chosen.
func suggestSpelling(t *table.Table, f core.Finding) []Suggestion {
	if len(f.Rows) != 2 {
		return nil
	}
	c := t.Column(f.Column)
	if c == nil || f.Rows[0] < 0 || f.Rows[0] >= c.Len() || f.Rows[1] < 0 || f.Rows[1] >= c.Len() {
		return nil
	}
	a, b := c.Values[f.Rows[0]], c.Values[f.Rows[1]]
	freq := map[string]int{}
	for _, v := range c.Values {
		freq[v]++
	}
	var wrongRow int
	var wrong, right string
	switch {
	case freq[a] < freq[b]:
		wrongRow, wrong, right = f.Rows[0], a, b
	case freq[b] < freq[a]:
		wrongRow, wrong, right = f.Rows[1], b, a
	default:
		return nil // tie: a human must pick the side
	}
	return []Suggestion{{
		Table: t.Name, Column: f.Column, Row: wrongRow,
		Old: wrong, New: right,
		Confidence: 0.7,
		Rationale:  fmt.Sprintf("%q occurs %d time(s), %q %d", wrong, freq[wrong], right, freq[right]),
	}}
}

// suggestOutlier tries the power-of-ten shifts of the suspect value and
// proposes the one that brings it closest (in MAD scores) to the rest of
// the column.
func suggestOutlier(t *table.Table, f core.Finding) []Suggestion {
	if len(f.Rows) != 1 {
		return nil
	}
	c := t.Column(f.Column)
	if c == nil {
		return nil
	}
	row := f.Rows[0]
	if row < 0 || row >= c.Len() {
		return nil
	}
	v, isInt, ok := table.ParseNumber(c.Values[row])
	if !ok {
		return nil
	}
	rest := make([]float64, 0, c.Len()-1)
	for i, s := range c.Values {
		if i == row {
			continue
		}
		if x, _, ok := table.ParseNumber(s); ok {
			rest = append(rest, x)
		}
	}
	if len(rest) < 4 {
		return nil
	}
	origScore := stats.MADScore(v, rest)
	bestFactor, bestScore := 1.0, origScore
	for _, factor := range []float64{10, 100, 1000, 0.1, 0.01, 0.001} {
		if s := stats.MADScore(v*factor, rest); s < bestScore {
			bestScore, bestFactor = s, factor
		}
	}
	// The shift must bring the value into the column's ordinary range
	// AND improve dramatically over the raw value — otherwise this is a
	// genuine extreme, not a scale error.
	if stats.SameFloat(bestFactor, 1) || bestScore > 5 || bestScore > origScore/3 {
		return nil
	}
	fixed := v * bestFactor
	var newVal string
	if isInt && bestFactor > 1 {
		newVal = fmt.Sprintf("%d", int64(math.Round(fixed)))
	} else if stats.IsWhole(fixed) {
		newVal = fmt.Sprintf("%d", int64(fixed))
	} else {
		newVal = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", fixed), "0"), ".")
	}
	return []Suggestion{{
		Table: t.Name, Column: f.Column, Row: row,
		Old: c.Values[row], New: newVal,
		Confidence: 0.6,
		Rationale:  fmt.Sprintf("×%g brings the MAD score from %.1f to %.1f", bestFactor, stats.MADScore(v, rest), bestScore),
	}}
}

// suggestFD proposes the majority right-hand-side for minority rows of a
// violating group.
func suggestFD(t *table.Table, f core.Finding) []Suggestion {
	lhsName, rhsName, ok := splitArrow(f.Column)
	if !ok {
		return nil
	}
	lc, rc := t.Column(lhsName), t.Column(rhsName)
	if lc == nil || rc == nil {
		return nil
	}
	// Majority rhs per lhs group across the flagged rows.
	counts := map[string]map[string]int{}
	for i := range lc.Values {
		g := counts[lc.Values[i]]
		if g == nil {
			g = map[string]int{}
			counts[lc.Values[i]] = g
		}
		g[rc.Values[i]]++
	}
	var out []Suggestion
	for _, row := range f.Rows {
		if row < 0 || row >= lc.Len() {
			continue
		}
		g := counts[lc.Values[row]]
		majority, best, total := "", 0, 0
		for v, n := range g {
			total += n
			if n > best {
				best, majority = n, v
			}
		}
		if majority == rc.Values[row] || best*2 <= total {
			continue // already majority, or no clear majority
		}
		out = append(out, Suggestion{
			Table: t.Name, Column: rhsName, Row: row,
			Old: rc.Values[row], New: majority,
			Confidence: float64(best) / float64(total),
			Rationale:  fmt.Sprintf("%d of %d rows with %s=%q carry %q", best, total, lhsName, lc.Values[row], majority),
		})
	}
	return out
}

// suggestSynth re-learns the programmatic relationship and proposes the
// program's output for each violating row — the exact repair of
// Appendix D. When the flagged side is the lhs (Figure 13's wrong route
// shield), the repair is proposed on the rhs recomputation instead only
// if the program maps cleanly; lhs inversion is not attempted.
func suggestSynth(t *table.Table, f core.Finding) []Suggestion {
	lhsName, rhsName, ok := splitArrow(f.Column)
	if !ok {
		return nil
	}
	lc, rc := t.Column(lhsName), t.Column(rhsName)
	if lc == nil || rc == nil {
		return nil
	}
	lhs := synth.NewLhs(lc.Values)
	fit, ok := synth.Learn(&lhs, rc.Values, 0.6)
	if !ok {
		return nil
	}
	var out []Suggestion
	for _, row := range f.Rows {
		if row < 0 || row >= lc.Len() {
			continue
		}
		want, ok := fit.Program.Apply(lc.Values[row])
		if !ok || want == rc.Values[row] {
			continue
		}
		// Only propose when the computed value is plausibly the fix: it
		// should be close to the current rhs (a corrupted cell) — or the
		// current rhs is empty.
		if rc.Values[row] != "" {
			if d, within := strdist.LevenshteinBounded(want, rc.Values[row], 3); !within || d == 0 {
				continue
			}
		}
		out = append(out, Suggestion{
			Table: t.Name, Column: rhsName, Row: row,
			Old: rc.Values[row], New: want,
			Confidence: fit.Conforming,
			Rationale:  fmt.Sprintf("program %s over %s", fit.Program, lhsName),
		})
	}
	return out
}

func splitArrow(col string) (lhs, rhs string, ok bool) {
	i := strings.Index(col, "→")
	if i < 0 {
		return "", "", false
	}
	return col[:i], col[i+len("→"):], true
}
