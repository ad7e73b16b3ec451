package detectors

import (
	"strconv"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/table"
)

// FD is the §3.4 instantiation: metric FR (FD-compliance ratio over
// distinct (lhs, rhs) tuples), perturbation "drop the rows in violating
// groups", featurization as in §3.3 applied to the lhs column.
type FD struct {
	Cfg core.Config
}

// Class implements core.Detector.
func (d *FD) Class() core.Class { return core.ClassFD }

// Quantizer implements core.Detector.
func (d *FD) Quantizer() evidence.Quantizer { return evidence.RatioQuantizer{N: 96} }

// Directions implements core.Detector.
func (d *FD) Directions() evidence.Directions { return evidence.RatioDirections }

// Measure implements core.Detector. Every candidate pair is counted over
// the first-occurrence codes of the columns' profiles, with each lhs
// column's rows grouped once: the contingency-count form of FR.
func (d *FD) Measure(t *table.Table, env *core.Env) (out []core.Measurement) {
	defer func() { env.CountMeasurements(core.ClassFD, len(out)) }()
	n := t.NumRows()
	if n < d.Cfg.MinRows {
		return nil
	}
	fs := newFDScratch(t)
	eps := d.Cfg.Epsilon(n)
	pairs := 0
	for li, lc := range t.Columns {
		var key feature.Key
		for ri, rc := range t.Columns {
			if li == ri {
				continue
			}
			if pairs >= d.Cfg.MaxFDPairs {
				return out
			}
			pairs++
			if fs.lhs != li {
				fs.groupBy(li)
				key = pairKey(lc, li, env)
			}
			out = append(out, measurePair(fs, key, lc, rc, ri, eps))
		}
	}
	return out
}

// pairKey is the featurization of the column pairs with lhs column lc
// at position li (§3.3 applied to the lhs), shared by FD and
// FD-synthesis and computed once per lhs column.
func pairKey(lc *table.Column, li int, env *core.Env) feature.Key {
	return feature.Key{
		Type: lc.Type(),
		Rows: feature.RowBucket(lc.Len()),
		A:    feature.RelPrevalenceBucket(prevalenceOf(env, lc)),
		B:    feature.LeftnessBucket(li),
	}
}

// measurePair measures the candidate FD lc → rc against the grouped lhs.
//
// alloc-budget: 9 the measurement's column name and detail, and for a valid candidate its reported values
func measurePair(fs *fdScratch, key feature.Key, lc, rc *table.Column, ri, eps int) core.Measurement {
	// A candidate FD over an all-distinct lhs is vacuous both ways; it
	// still contributes denominator mass with FR = 1.
	fc := fs.count(fs.column(ri))
	fr := fc.fr()
	valid := fc.violations > 0 && fc.violations <= eps
	theta2 := 1.0
	if fc.violations > eps {
		// Only part of the violations fit the ε budget; approximate the
		// best achievable FR by conforming tuple count after fixing the
		// cheapest groups. For evidence purposes the exact greedy order
		// matters little; we keep θ2 at the unperturbed FR to stay
		// conservative.
		theta2 = fr
	}
	m := core.Measurement{
		Key:    key,
		Theta1: fr,
		Theta2: theta2,
		Valid:  valid,
		Column: lc.Name + "→" + rc.Name,
		Detail: "FR=" + strconv.FormatFloat(fr, 'f', 4, 64) + " with " + strconv.Itoa(fc.groups) + " violating group(s)",
	}
	if valid {
		// Report every row of the violating groups: the detection is
		// "these rows conflict" (the paper's O of §3.4 contains both
		// sides of each conflicting pair); which side is wrong is for
		// the user to judge.
		m.Rows = fs.groupRows(fc.groupRows)
		m.Values = make([]string, len(m.Rows))
		for i, r := range m.Rows {
			m.Values[i] = lc.Values[r] + "/" + rc.Values[r]
		}
	}
	return m
}

// frCounts summarizes one candidate FD (Cl -> Cr).
type frCounts struct {
	tuples     int // distinct (lhs, rhs) tuples
	conforming int // lhs groups holding a single rhs value
	groups     int // violating lhs groups: more than one rhs value
	groupRows  int // rows of the violating groups
	// violations counts the natural perturbation O: the rows of
	// violating groups not holding their group's majority rhs.
	violations int
}

// fr is FR_D(Cl, Cr) over distinct tuples (§3.4).
func (fc frCounts) fr() float64 {
	if fc.tuples == 0 {
		return 0
	}
	return float64(fc.conforming) / float64(fc.tuples)
}

// fdScratch is one table's FD state: the current lhs column's rows
// grouped by code, and the counting arrays of the pair kernel. Columns
// are read as their profiles' codes. Once built, counting a pair
// allocates nothing.
type fdScratch struct {
	t   *table.Table
	lhs int     // column the grouping holds (-1: none)
	l   []int32 // its codes
	// The rows of lhs group g are rows[start[g]:start[g+1]], ascending.
	start, next, rows []int32
	// tally[c] counts rhs code c in the current group while
	// mark[c] == epoch.
	mark, tally []int32
	epoch       int32
	// bad[g] == stamp marks lhs group g violating in the current pair.
	bad   []int32
	stamp int32
}

// newFDScratch sizes an FD scratch for t.
//
// alloc-budget: 7 per-table scratch: the header and the counting arrays
func newFDScratch(t *table.Table) *fdScratch {
	n := t.NumRows()
	return &fdScratch{
		t:     t,
		lhs:   -1,
		start: make([]int32, n+1),
		next:  make([]int32, n),
		rows:  make([]int32, n),
		mark:  make([]int32, n),
		tally: make([]int32, n),
		bad:   make([]int32, n),
	}
}

// column returns column ci's first-occurrence codes, from its profile.
// Only columns in a measured pair are profiled here: MaxFDPairs bounds
// them, however wide the table.
func (s *fdScratch) column(ci int) []int32 {
	return s.t.Columns[ci].Profile().Codes
}

// groupBy groups the rows by column li's code: a counting sort, which
// keeps every group's rows ascending.
func (s *fdScratch) groupBy(li int) {
	p := s.t.Columns[li].Profile()
	l, m := p.Codes, len(p.Distinct)
	start := s.start[:m+1]
	clear(start)
	for _, c := range l {
		start[c+1]++
	}
	for g := 1; g <= m; g++ {
		start[g] += start[g-1]
	}
	next := s.next[:m]
	copy(next, start)
	for row, c := range l {
		s.rows[next[c]] = int32(row)
		next[c]++
	}
	s.start, s.lhs, s.l = start, li, l
}

// count is the pair kernel: FR and its perturbation for the grouped lhs
// against rhs codes r, by array counting in O(rows). A group's majority
// is its most frequent rhs value; which of several tied values it is
// does not change the count of rows off the majority.
func (s *fdScratch) count(r []int32) frCounts {
	var fc frCounts
	s.stamp++
	for g := 0; g+1 < len(s.start); g++ {
		s.epoch++
		rows := s.rows[s.start[g]:s.start[g+1]]
		distinct, best := 0, int32(0)
		for _, row := range rows {
			c := r[row]
			if s.mark[c] != s.epoch {
				s.mark[c], s.tally[c] = s.epoch, 0
				distinct++
			}
			s.tally[c]++
			best = max(best, s.tally[c])
		}
		fc.tuples += distinct
		if distinct == 1 {
			fc.conforming++
			continue
		}
		fc.groups++
		fc.groupRows += len(rows)
		fc.violations += len(rows) - int(best)
		s.bad[g] = s.stamp
	}
	return fc
}

// groupRows lists, ascending, the rows of the groups the last count
// found violating; n is their number.
//
// alloc-budget: 2 the reported row list, sized exactly, built only for a valid candidate
func (s *fdScratch) groupRows(n int) []int {
	out := make([]int, 0, n)
	for row, g := range s.l {
		if s.bad[g] == s.stamp {
			out = append(out, row)
		}
	}
	return out
}

var _ core.Detector = (*FD)(nil)
