package detectors

import (
	"fmt"
	"strings"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/strdist"
	"github.com/unidetect/unidetect/internal/table"
	"github.com/unidetect/unidetect/internal/wordlist"
)

// Spelling is the §3.2 instantiation: metric MPD (minimum pairwise edit
// distance), perturbation "drop one value of the closest pair",
// featurization {type, row bucket, differing-token length bucket}.
type Spelling struct {
	Cfg core.Config
	// Dict, when set, refutes findings whose differing tokens are all
	// valid dictionary words — the UNIDETECT+Dict variant of §4.3
	// ("Macroeconomics" vs "Microeconomics" are both words, so the pair
	// is not a misspelling).
	Dict *wordlist.Set
}

// Class implements core.Detector.
func (d *Spelling) Class() core.Class { return core.ClassSpelling }

// Quantizer implements core.Detector: MPD is a small integer.
func (d *Spelling) Quantizer() evidence.Quantizer { return evidence.IntQuantizer{N: 48} }

// Directions implements core.Detector (§3.2).
func (d *Spelling) Directions() evidence.Directions { return evidence.SpellingDirections }

// Measure implements core.Detector.
func (d *Spelling) Measure(t *table.Table, env *core.Env) []core.Measurement {
	return core.MeasureColumns(d, t, env)
}

// MeasureColumn implements core.ColumnMeasurer: the single column's
// share of Measure's output. Both metrics come from one
// strdist.SpellingMPD pass over the distinct values of the column's
// profile, in the scratch's MPD buffers.
//
// alloc-budget: 5 token-length featurization, the detail string and the returned measurement
func (d *Spelling) MeasureColumn(t *table.Table, pos int, env *core.Env, sc *core.Scratch) []core.Measurement {
	c := t.Columns[pos]
	if c.Len() < d.Cfg.MinRows {
		return nil
	}
	typ := c.Type()
	if typ == table.TypeInt || typ == table.TypeFloat || typ == table.TypeEmpty {
		// Digit-edit "misspellings" of numbers are the outlier
		// detector's jurisdiction.
		return nil
	}
	// The natural perturbation drops one value of the MPD pair;
	// Equation 3 minimizes LR over O, and with the §3.2 orientation a
	// larger θ2 always yields a smaller LR (Theorem 1), so θ2 is the
	// MPD left by the drop that raises it the most.
	p, mpd2, ok := strdist.SpellingMPD(c.Profile(), d.Cfg.MPDCap, sc.MPD)
	if !ok {
		return nil // fewer than 2 distinct values, or none left after a drop
	}
	theta1, theta2 := float64(p.Dist), float64(mpd2)
	avgLen := strdist.AvgDifferingTokenLen(c.Values[p.I], c.Values[p.J])
	key := feature.Key{
		Type: typ,
		Rows: feature.RowBucket(c.Len()),
		A:    feature.TokenLenBucket(avgLen),
	}
	// A misspelling candidate must (a) be a close pair ("a small MPD
	// indicates likely misspellings", §3.2) and (b) differ in
	// letters: pairs differing only in digits are ID/numeric
	// discrepancies, not spelling mistakes.
	valid := (d.Cfg.MaxSpellingMPD <= 0 || p.Dist <= d.Cfg.MaxSpellingMPD) &&
		lettersDiffer(c.Values[p.I], c.Values[p.J])
	detail := fmt.Sprintf("closest pair at edit distance %d; next distance %.0f", p.Dist, theta2)
	if d.Dict != nil && bothDictionaryWords(c.Values[p.I], c.Values[p.J], d.Dict) {
		valid = false
		detail += " (refuted: differing tokens are dictionary words)"
	}
	return []core.Measurement{{
		Key:    key,
		Theta1: theta1,
		Theta2: theta2,
		Valid:  valid,
		Column: c.Name,
		Rows:   []int{p.I, p.J},
		Values: []string{c.Values[p.I], c.Values[p.J]},
		Detail: detail,
	}}
}

// bothDictionaryWords reports whether every differing token of the pair is
// a dictionary word on both sides.
//
// alloc-budget: 1 dictionary refutation tokenizes the differing pair; it runs once per candidate, not per pair scan
func bothDictionaryWords(a, b string, dict *wordlist.Set) bool {
	onlyA, onlyB := strdist.DifferingTokens(a, b)
	if len(onlyA) == 0 && len(onlyB) == 0 {
		return false
	}
	for _, t := range onlyA {
		if !dict.Contains(t) {
			return false
		}
	}
	for _, t := range onlyB {
		if !dict.Contains(t) {
			return false
		}
	}
	return true
}

// lettersDiffer reports whether a and b still differ after removing all
// digits — i.e. whether the discrepancy involves letters at all.
func lettersDiffer(a, b string) bool {
	return stripDigits(a) != stripDigits(b)
}

func stripDigits(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if r < '0' || r > '9' {
			b.WriteRune(r)
		}
	}
	return b.String()
}

var _ core.ColumnMeasurer = (*Spelling)(nil)
