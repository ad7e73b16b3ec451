// Package detectors instantiates the Uni-Detect framework for each error
// class (§3): numeric outliers via max-MAD, spelling via MPD, uniqueness
// via UR, FD via FR, and the FD-synthesis variant of Appendix D. Each
// detector supplies the class's metric function, natural perturbation and
// featurization; the core package supplies the LR machinery.
package detectors

import (
	"fmt"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/stats"
	"github.com/unidetect/unidetect/internal/table"
)

// Dispersion selects the outlier detector's dispersion metric; the paper
// defaults to robust MAD and names SD and IQR as alternatives (§3.1).
type Dispersion uint8

// The dispersion metrics the configuration search can explore.
const (
	DispersionMAD Dispersion = iota
	DispersionSD
	DispersionIQR
)

// String names the metric.
func (d Dispersion) String() string {
	switch d {
	case DispersionSD:
		return "SD"
	case DispersionIQR:
		return "IQR"
	default:
		return "MAD"
	}
}

// Outlier is the §3.1 instantiation: metric max-MAD, perturbation "drop
// the most outlying value", featurization {type, row bucket, log-fit}.
type Outlier struct {
	Cfg core.Config
	// Metric selects the dispersion metric; DispersionSD is the robust-
	// statistics ablation of Figure 8(b).
	Metric Dispersion
}

// maxScore routes to the configured dispersion kernel.
//
// alloc-budget: 2 the IQR/MAD kernels sort a copy inside internal/stats; the kernels are shared with training
func (d *Outlier) maxScore(vals []float64) (float64, int) {
	switch d.Metric {
	case DispersionSD:
		return stats.MaxSD(vals)
	case DispersionIQR:
		return stats.MaxIQR(vals)
	default:
		return stats.MaxMAD(vals)
	}
}

// Class implements core.Detector.
func (d *Outlier) Class() core.Class { return core.ClassOutlier }

// Quantizer implements core.Detector: dispersion scores are unbounded and
// ratio-scaled, so bins live on a log1p axis.
func (d *Outlier) Quantizer() evidence.Quantizer {
	return evidence.LogQuantizer{Scale: 10, N: 96}
}

// Directions implements core.Detector (Equation 12).
func (d *Outlier) Directions() evidence.Directions { return evidence.OutlierDirections }

// Measure implements core.Detector.
func (d *Outlier) Measure(t *table.Table, env *core.Env) []core.Measurement {
	return core.MeasureColumns(d, t, env)
}

// MeasureColumn implements core.ColumnMeasurer: the single column's
// share of Measure's output. The scratch supplies the buffer for the
// drop-one resample.
//
// alloc-budget: 9 numeric extraction, log-fit featurization and the returned measurement
func (d *Outlier) MeasureColumn(t *table.Table, pos int, env *core.Env, sc *core.Scratch) []core.Measurement {
	c := t.Columns[pos]
	typ := c.Type()
	if typ != table.TypeInt && typ != table.TypeFloat {
		return nil
	}
	vals, rows := table.Numbers(c)
	if len(vals) < d.Cfg.MinRows || len(vals) < 8 {
		return nil
	}
	theta1, arg := d.maxScore(vals)
	if arg < 0 {
		return nil
	}
	rest := sc.Floats(len(vals) - 1)
	rest = append(rest, vals[:arg]...)
	rest = append(rest, vals[arg+1:]...)
	theta2, _ := d.maxScore(rest)
	key := feature.Key{
		Type: typ,
		Rows: feature.RowBucket(c.Len()),
		A:    feature.Bool(stats.LogTransformFits(vals)),
	}
	// A candidate must actually look like an outlier: removing it
	// must lower the dispersion score, and the score itself must be
	// conventionally outlying (cfg.MinOutlierScore deviations).
	valid := theta2 < theta1 && theta1 >= d.Cfg.MinOutlierScore
	row := rows[arg]
	return []core.Measurement{{
		Key:    key,
		Theta1: theta1,
		Theta2: theta2,
		Valid:  valid,
		Column: c.Name,
		Rows:   []int{row},
		Values: []string{c.Values[row]},
		Detail: fmt.Sprintf("max dispersion score %.2f drops to %.2f without this value", theta1, theta2),
	}}
}

var _ core.ColumnMeasurer = (*Outlier)(nil)
