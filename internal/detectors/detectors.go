package detectors

import (
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/wordlist"
)

// Options selects detector variants.
type Options struct {
	// WithDict enables the UNIDETECT+Dict spelling refinement (§4.3).
	WithDict bool
	// OutlierSD switches the outlier metric from MAD to SD (ablation).
	OutlierSD bool
	// SkipFDSynth drops the FD-synthesis detector (pure four-class runs
	// can omit it; it tries some 30 programs on every column pair).
	SkipFDSynth bool
}

// All returns the standard detector set for the given config: the four
// §3 instantiations plus FD-synthesis.
func All(cfg core.Config, opts Options) []core.Detector {
	sp := &Spelling{Cfg: cfg}
	if opts.WithDict {
		sp.Dict = wordlist.Dictionary()
	}
	out := &Outlier{Cfg: cfg}
	if opts.OutlierSD {
		out.Metric = DispersionSD
	}
	ds := []core.Detector{
		sp,
		out,
		&Uniqueness{Cfg: cfg},
		&FD{Cfg: cfg},
	}
	if !opts.SkipFDSynth {
		ds = append(ds, &FDSynth{Cfg: cfg})
	}
	return ds
}

// ByClass returns the detector handling class c from the standard set.
func ByClass(cfg core.Config, opts Options, c core.Class) core.Detector {
	for _, d := range All(cfg, opts) {
		if d.Class() == c {
			return d
		}
	}
	return nil
}
