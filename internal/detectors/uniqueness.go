package detectors

import (
	"fmt"
	"sort"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/table"
)

// Uniqueness is the §3.3 instantiation: metric UR (uniqueness ratio),
// perturbation "drop the duplicate rows", featurization {type, row bucket,
// token prevalence, leftness}.
type Uniqueness struct {
	Cfg core.Config
}

// Class implements core.Detector.
func (d *Uniqueness) Class() core.Class { return core.ClassUniqueness }

// Quantizer implements core.Detector: UR lives in [0,1] with the decisive
// mass near 1.
func (d *Uniqueness) Quantizer() evidence.Quantizer { return evidence.RatioQuantizer{N: 96} }

// Directions implements core.Detector (§3.3, Example 2 denominator).
func (d *Uniqueness) Directions() evidence.Directions { return evidence.RatioDirections }

// Measure implements core.Detector.
func (d *Uniqueness) Measure(t *table.Table, env *core.Env) []core.Measurement {
	return core.MeasureColumns(d, t, env)
}

// MeasureColumn implements core.ColumnMeasurer: the single column's
// share of Measure's output (the scratch is unused — the UR scan's
// duplicate maps are value-count-shaped, not worth pooling).
//
// alloc-budget: 3 the detail string, duplicate-value report and returned measurement
func (d *Uniqueness) MeasureColumn(t *table.Table, pos int, env *core.Env, _ *core.Scratch) []core.Measurement {
	c := t.Columns[pos]
	n := c.Len()
	if n < d.Cfg.MinRows {
		return nil
	}
	typ := c.Type()
	if typ == table.TypeEmpty {
		return nil
	}
	dup, dupGroups := duplicateRows(c.Values)
	distinct := n - len(dup)
	theta1 := float64(distinct) / float64(n)
	eps := d.Cfg.Epsilon(n)

	// The perturbation may drop at most ε rows (Definition 2). With
	// k = min(|dup|, ε) redundant rows dropped the column keeps all
	// its distinct values: UR' = distinct / (n - k).
	k := len(dup)
	valid := k > 0 && k <= eps
	if k > eps {
		k = eps
	}
	theta2 := float64(distinct) / float64(n-k)

	key := feature.Key{
		Type: typ,
		Rows: feature.RowBucket(n),
		A:    feature.RelPrevalenceBucket(prevalenceOf(env, c)),
		B:    feature.LeftnessBucket(pos),
	}
	m := core.Measurement{
		Key:    key,
		Theta1: theta1,
		Theta2: theta2,
		Valid:  valid,
		Column: c.Name,
		Detail: fmt.Sprintf("%.4f unique; %d duplicate row(s)", theta1, len(dup)),
	}
	if valid {
		// Report every row holding a duplicated value (both the
		// original and the copy): the detection is "these rows
		// collide"; which one is wrong is for the user to judge.
		m.Rows = dupGroups
		for _, r := range dupGroups {
			m.Values = append(m.Values, c.Values[r])
		}
	}
	return []core.Measurement{m}
}

// duplicateRows returns (a) the row indices of every value occurrence
// beyond the first — the natural O to drop — and (b) all rows holding a
// duplicated value, for reporting.
//
// alloc-budget: 5 first-occurrence maps are value-count-shaped and the row lists are returned; neither pools usefully
func duplicateRows(vals []string) (drop, groups []int) {
	first := make(map[string]int, len(vals))
	counted := make(map[string]bool)
	for i, v := range vals {
		j, seen := first[v]
		if !seen {
			first[v] = i
			continue
		}
		drop = append(drop, i)
		if !counted[v] {
			counted[v] = true
			groups = append(groups, j)
		}
		groups = append(groups, i)
	}
	sort.Ints(groups)
	return drop, groups
}

// prevalenceOf returns the column's relative token prevalence: the
// average fraction of corpus tables its tokens occur in. Relative values
// keep the featurization invariant to corpus size.
//
// alloc-budget: 1 corpus prevalence tokenizes the column against the shared index
func prevalenceOf(env *core.Env, c *table.Column) float64 {
	if env == nil || env.Index == nil {
		return 0
	}
	return env.Index.RelPrevalence(c)
}

var _ core.ColumnMeasurer = (*Uniqueness)(nil)
