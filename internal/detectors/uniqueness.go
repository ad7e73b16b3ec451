package detectors

import (
	"fmt"

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
// share of Measure's output, by count arithmetic over the column's
// profile (the scratch is unused).
//
// alloc-budget: 4 the detail string, the duplicate-value report and the returned measurement
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
	p := c.Profile()
	distinct := len(p.Distinct)
	theta1 := float64(distinct) / float64(n)
	eps := d.Cfg.Epsilon(n)

	// The natural perturbation O drops every occurrence of a value
	// beyond its first. With k = min(|O|, ε) redundant rows dropped
	// (Definition 2) the column keeps all its distinct values:
	// UR' = distinct / (n - k).
	dup := n - distinct
	k := dup
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
		Detail: fmt.Sprintf("%.4f unique; %d duplicate row(s)", theta1, dup),
	}
	if valid {
		// Report every row holding a duplicated value (both the
		// original and the copy), in row order: the detection is
		// "these rows collide"; which one is wrong is for the user to
		// judge.
		held := 0
		for _, v := range p.Distinct {
			if v.Count > 1 {
				held += int(v.Count)
			}
		}
		m.Rows, m.Values = make([]int, held), make([]string, held)
		i := 0
		for r, code := range p.Codes {
			if v := &p.Distinct[code]; v.Count > 1 {
				m.Rows[i], m.Values[i] = r, v.Value
				i++
			}
		}
	}
	return []core.Measurement{m}
}

// prevalenceOf returns the column's relative token prevalence: the
// average fraction of corpus tables its tokens occur in. Relative values
// keep the featurization invariant to corpus size. The index memoizes
// it on the column's profile, so uniqueness and the pair detectors'
// featurization of one column share one pass.
//
// alloc-budget: 1 corpus prevalence profiles the column against the shared index
func prevalenceOf(env *core.Env, c *table.Column) float64 {
	if env == nil || env.Index == nil {
		return 0
	}
	return env.Index.RelPrevalence(c)
}

var _ core.ColumnMeasurer = (*Uniqueness)(nil)
