package detectors

import (
	"strconv"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/synth"
	"github.com/unidetect/unidetect/internal/table"
)

// FDSynth is the Appendix D variant of the FD detector: a column pair is
// only a candidate when an explicit programmatic relationship (learned by
// program synthesis) maps lhs to rhs for a majority of rows; the metric is
// the program-conformance ratio and the perturbation drops the
// non-conforming rows.
type FDSynth struct {
	Cfg core.Config
	// MinConforming is the synthesis acceptance bar (fraction of rows the
	// program must reproduce before a relationship is considered real).
	MinConforming float64
}

// Class implements core.Detector.
func (d *FDSynth) Class() core.Class { return core.ClassFDSynth }

// Quantizer implements core.Detector.
func (d *FDSynth) Quantizer() evidence.Quantizer { return evidence.RatioQuantizer{N: 96} }

// Directions implements core.Detector.
func (d *FDSynth) Directions() evidence.Directions { return evidence.RatioDirections }

func (d *FDSynth) minConforming() float64 {
	if d.MinConforming > 0 {
		return d.MinConforming
	}
	return 0.8
}

// Measure implements core.Detector.
func (d *FDSynth) Measure(t *table.Table, env *core.Env) (out []core.Measurement) {
	defer func() { env.CountMeasurements(core.ClassFDSynth, len(out)) }()
	n := t.NumRows()
	if n < d.Cfg.MinRows {
		return nil
	}
	eps := d.Cfg.Epsilon(n)
	pairs := 0
	for li, lc := range t.Columns {
		var key feature.Key
		var lhs synth.Lhs
		keyed, prepared := false, false
		for ri, rc := range t.Columns {
			if li == ri {
				continue
			}
			if pairs >= d.Cfg.MaxFDPairs {
				return out
			}
			pairs++
			if !prepared {
				lhs, prepared = synth.NewLhs(lc.Values), true
			}
			// Identity fits are vacuous: a column trivially "maps" to a
			// copy of itself only when the table duplicates a column,
			// which carries no FD-synthesis signal.
			fit, ok := synth.Learn(&lhs, rc.Values, d.minConforming())
			if !ok {
				continue
			}
			if _, isID := fit.Program.(synth.Identity); isID {
				continue
			}
			valid := len(fit.Violations) > 0 && len(fit.Violations) <= eps
			theta2 := 1.0
			if len(fit.Violations) > eps {
				theta2 = fit.Conforming
			}
			if !keyed {
				key, keyed = pairKey(lc, li, env), true
			}
			m := core.Measurement{
				Key:    key,
				Theta1: fit.Conforming,
				Theta2: theta2,
				Valid:  valid,
				Column: lc.Name + "→" + rc.Name,
				Detail: "program " + fit.Program.String() + " conforms " + strconv.FormatFloat(fit.Conforming, 'f', 4, 64),
			}
			if valid {
				m.Rows = fit.Violations
				for _, r := range fit.Violations {
					m.Values = append(m.Values, rc.Values[r])
				}
			}
			out = append(out, m)
		}
	}
	return out
}

var _ core.Detector = (*FDSynth)(nil)
