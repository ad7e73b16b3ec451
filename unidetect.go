// Package unidetect implements Uni-Detect (Wang & He, SIGMOD 2019): a
// unified, unsupervised framework that automatically detects numeric
// outliers, spelling mistakes, uniqueness violations and
// functional-dependency violations in tables, with no per-dataset rules or
// thresholds.
//
// The framework performs a "what-if" analysis: for a table D it considers
// small hypothetical perturbations D\O (removing a suspect subset O) and
// asks, against statistics learned offline from a large background corpus
// of tables T, whether removing O makes D dramatically more "like" the
// corpus. The likelihood-ratio test
//
//	LR(D, O) = P(D | T) / P(D\O | T)
//
// is evaluated per error class through a class-specific metric function,
// natural perturbation, and featurized corpus subsetting; a tiny LR means
// O is almost certainly an error.
//
// # Usage
//
//	model, err := unidetect.Train(ctx, backgroundTables, nil)
//	...
//	findings := model.Detect(ctx, table)
//	for _, f := range findings {
//	    fmt.Println(f) // ranked by LR: most confident errors first
//	}
//
// Training is expensive (one pass over the background corpus); detection
// is interactive (metric computation plus grid lookups). Models serialize
// with Model.Save / Load.
package unidetect

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"sync"

	"github.com/unidetect/unidetect/internal/autodetect"
	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/mapreduce"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/table"
)

// Table is a named collection of equally long columns; the unit of
// detection.
type Table = table.Table

// Column is a named column of string cell values.
type Column = table.Column

// NewTable builds a table, validating that all columns have equal length.
func NewTable(name string, cols ...*Column) (*Table, error) {
	return table.New(name, cols...)
}

// NewColumn builds a column from a name and values.
func NewColumn(name string, values []string) *Column {
	return table.NewColumn(name, values)
}

// ReadCSV parses a table from CSV data; the first record is the header.
// Parsing goes through the streaming columnar reader, so whole-file and
// chunked loads of the same bytes are identical by construction.
func ReadCSV(name string, r io.Reader) (*Table, error) { return colstore.ReadCSVAll(name, r) }

// ReadCSVFile loads a table from a CSV file.
func ReadCSVFile(path string) (*Table, error) { return colstore.ReadCSVFile(path) }

// ReadNDJSON parses newline-delimited JSON (one object per row; the
// column schema is the union of keys, sorted on first appearance).
func ReadNDJSON(name string, r io.Reader) (*Table, error) { return colstore.ReadNDJSONAll(name, r) }

// Source is a streaming chunked table: a column schema plus a sequence
// of fixed-row-budget chunks, pulled one at a time so tables larger than
// RAM can be scanned. Obtain one from OpenCSVSource/OpenUcolSource (or
// NewTableSource over an in-memory table) and feed it to
// Model.DetectSource; callers own Close.
type Source = colstore.Source

// NewTableSource streams an in-memory table chunk by chunk. chunkRows 0
// selects the default budget; negative streams the whole table as one
// chunk.
func NewTableSource(t *Table, chunkRows int) Source {
	return colstore.NewSliceSource(t, colstore.Options{ChunkRows: chunkRows})
}

// OpenCSVSource opens a CSV file as a streaming source with the given
// chunk row budget (0 = default). The source owns the file handle.
func OpenCSVSource(path string, chunkRows int) (Source, error) {
	return colstore.OpenCSVFile(path, colstore.Options{ChunkRows: chunkRows})
}

// OpenNDJSONSource opens a newline-delimited JSON file as a streaming
// source with the given chunk row budget (0 = default). The source owns
// the file handle.
func OpenNDJSONSource(path string, chunkRows int) (Source, error) {
	return colstore.OpenNDJSONFile(path, colstore.Options{ChunkRows: chunkRows})
}

// ReadNDJSONFile loads a whole table from an NDJSON file.
func ReadNDJSONFile(path string) (*Table, error) { return colstore.ReadNDJSONFile(path) }

// ReadSource drains a streaming source into an in-memory table,
// applying the same widening and padding the chunked scan sees.
func ReadSource(src Source) (*Table, error) { return colstore.ReadAll(src) }

// OpenUcolSource opens a `.ucol` columnar file (written by WriteUcol) as
// a streaming source; chunking follows the file's own frame layout, and
// every chunk is verified against its stored fingerprint.
func OpenUcolSource(path string) (Source, error) { return colstore.OpenUcolFile(path) }

// WriteUcol writes a table in the length-prefixed binary columnar format
// `.ucol`: fingerprinted chunks of chunkRows rows (0 = default budget)
// that stream back through OpenUcolSource without rematerializing the
// whole table.
func WriteUcol(t *Table, w io.Writer, chunkRows int) error {
	return colstore.WriteUcol(w, colstore.NewSliceSource(t, colstore.Options{ChunkRows: chunkRows}))
}

// WriteUcolSource streams src straight into the `.ucol` format, one
// chunk resident at a time — the conversion path for files larger than
// RAM (`unidetect convert`).
func WriteUcolSource(src Source, w io.Writer) error { return colstore.WriteUcol(w, src) }

// ReadTSV parses a tab-separated table; the first line is the header.
func ReadTSV(name string, r io.Reader) (*Table, error) { return table.ReadTSV(name, r) }

// ReadMarkdown parses the first GitHub-flavored markdown table found in r
// — the format Wikipedia-style tables commonly travel in.
func ReadMarkdown(name string, r io.Reader) (*Table, error) { return table.ReadMarkdown(name, r) }

// ReadXLSXFile loads every worksheet of an Excel (.xlsx) workbook as a
// table — the format of the paper's Enterprise corpus (§4.1).
func ReadXLSXFile(path string) ([]*Table, error) { return table.ReadXLSXFile(path) }

// WriteCSV writes the table as CSV with a header row.
func WriteCSV(t *Table, w io.Writer) error { return table.WriteCSV(t, w) }

// WriteXLSX writes the table as a minimal single-sheet .xlsx workbook.
func WriteXLSX(t *Table, w io.Writer) error { return table.WriteXLSX(t, w) }

// ErrorClass identifies the kind of a detected error.
type ErrorClass int

// The error classes Uni-Detect is instantiated for (§3 of the paper, plus
// the FD-synthesis variant of Appendix D and the Auto-Detect pattern
// incompatibility class of Appendix C).
const (
	Spelling ErrorClass = iota
	Outlier
	Uniqueness
	FD
	FDSynthesis
	// PatternIncompatibility findings come from the Auto-Detect
	// instantiation (Appendix C) and are produced only by models trained
	// with Options.WithPatterns.
	PatternIncompatibility
)

// String names the class.
func (c ErrorClass) String() string {
	if c == PatternIncompatibility {
		return "pattern"
	}
	return coreClass(c).String()
}

func coreClass(c ErrorClass) core.Class {
	switch c {
	case Spelling:
		return core.ClassSpelling
	case Outlier:
		return core.ClassOutlier
	case Uniqueness:
		return core.ClassUniqueness
	case FD:
		return core.ClassFD
	default:
		return core.ClassFDSynth
	}
}

func publicClass(c core.Class) ErrorClass {
	switch c {
	case core.ClassSpelling:
		return Spelling
	case core.ClassOutlier:
		return Outlier
	case core.ClassUniqueness:
		return Uniqueness
	case core.ClassFD:
		return FD
	default:
		return FDSynthesis
	}
}

// Finding is one detected error. Findings are ranked by Score ascending:
// the Score is the likelihood ratio of the paper's hypothesis test, so
// smaller means more confident.
type Finding struct {
	Class  ErrorClass
	Table  string
	Column string
	// Rows are the 0-based row indices of the suspect cells. Pair-style
	// findings (misspellings, duplicate keys, FD conflicts) flag every
	// row involved; which side is wrong is for the user to judge.
	Rows   []int
	Values []string
	// Score is the LR; findings satisfy Score <= the configured Alpha.
	Score float64
	// Detail is a human-readable explanation.
	Detail string
}

// String renders the finding on one line.
func (f Finding) String() string {
	return fmt.Sprintf("[%s] %s!%s rows=%v values=%q score=%.3g %s",
		f.Class, f.Table, f.Column, f.Rows, f.Values, f.Score, f.Detail)
}

// Options configures training and detection. The zero value of each field
// selects the paper's default.
type Options struct {
	// Alpha is the LR significance level (default 0.05): findings with a
	// larger LR are suppressed.
	Alpha float64
	// Epsilon is the perturbation budget as a fraction of rows (default
	// 0.01, minimum one row) — Definition 2's ε.
	Epsilon float64
	// UseDictionary enables the UNIDETECT+Dict spelling refinement: pairs
	// whose differing tokens are all valid dictionary words are refuted
	// (§4.3).
	UseDictionary bool
	// DisableFeaturization uses whole-corpus statistics instead of the
	// §2.2.2 featurized subsets (an ablation; strictly worse).
	DisableFeaturization bool
	// UseSDOutliers swaps the robust MAD dispersion metric for classical
	// SD (an ablation; strictly worse, §3.1).
	UseSDOutliers bool
	// WithPatterns additionally trains the Auto-Detect pattern-
	// incompatibility model (Appendix C); its findings merge into
	// Detect output as PatternIncompatibility, ranked by their own
	// significance score.
	WithPatterns bool
	// FDR, when positive, applies the Benjamini–Hochberg procedure at
	// this false-discovery-rate level across the ranked findings of each
	// DetectAll call — the multiple-testing correction the paper flags
	// as an open challenge (§2.2.3).
	FDR float64
	// Workers bounds parallelism (default GOMAXPROCS).
	Workers int
	// Obs, when non-nil, receives training and detection metrics
	// (internal/obs registry): mapreduce phase durations, checkpoint
	// write/resume counters, per-detector latency and LR histograms.
	// Nil disables instrumentation at the cost of one pointer check.
	Obs *obs.Registry
}

// obs returns the configured metrics registry (nil when unset).
func (o *Options) obs() *obs.Registry {
	if o == nil {
		return nil
	}
	return o.Obs
}

func (o *Options) config() core.Config {
	cfg := core.DefaultConfig()
	if o == nil {
		return cfg
	}
	if o.Alpha > 0 {
		cfg.Alpha = o.Alpha
	}
	if o.Epsilon > 0 {
		cfg.EpsilonFrac = o.Epsilon
	}
	cfg.NoFeaturize = o.DisableFeaturization
	cfg.Workers = o.Workers
	return cfg
}

func (o *Options) detectorOptions() detectors.Options {
	if o == nil {
		return detectors.Options{}
	}
	return detectors.Options{WithDict: o.UseDictionary, OutlierSD: o.UseSDOutliers}
}

// Model is a trained Uni-Detect model: materialized evidence grids per
// error class plus the token-prevalence index of the training corpus,
// and (with Options.WithPatterns) the pattern-incompatibility statistics.
type Model struct {
	core     *core.Model
	index    *corpus.TokenIndex
	patterns *autodetect.Model
	opts     *Options

	predOnce sync.Once
	// pred is the cached online predictor: building it compiles the
	// compact LR index, and keeping it alive carries the measurement
	// cache and scratch pools across Detect/DetectAll calls, so a
	// serving process pays the setup once.
	pred *core.Predictor
}

// Train learns a model from a background corpus of (mostly clean) tables,
// the paper's offline MapReduce-style pass (§2.2.3). The corpus should be
// as large and diverse as possible; the paper uses 135M web tables, and
// statistics stabilize in the tens of thousands.
func Train(ctx context.Context, background []*Table, opts *Options) (*Model, error) {
	if len(background) == 0 {
		return nil, fmt.Errorf("unidetect: empty background corpus")
	}
	cfg := opts.config()
	bg := corpus.New("background", background)
	topts := core.TrainOptions{FT: mapreduce.FT{Obs: opts.obs()}}
	m, err := core.TrainWith(ctx, cfg, topts, bg, detectors.All(cfg, opts.detectorOptions()))
	if err != nil {
		return nil, fmt.Errorf("unidetect: train: %w", err)
	}
	out := &Model{core: m, index: bg.Index(), opts: opts}
	if opts != nil && opts.WithPatterns {
		out.patterns = autodetect.Train(background)
	}
	return out, nil
}

// CorpusTables reports the size of the training corpus.
func (m *Model) CorpusTables() int { return m.core.CorpusTables }

// predictor returns the model's online predictor, built once: the
// compiled LR index, measurement cache and scratch pools all live on
// the predictor and are reused across calls.
func (m *Model) predictor() *core.Predictor {
	m.predOnce.Do(func() {
		dets := detectors.All(m.core.Config, m.opts.detectorOptions())
		p := core.NewPredictor(m.core, dets, &core.Env{Index: m.index, Obs: m.opts.obs()})
		p.Obs = m.opts.obs()
		m.pred = p
	})
	return m.pred
}

// Warm builds the model's online predictor eagerly: the compact LR
// index is compiled and the caches are allocated now rather than on the
// first Detect. A serving process hot-swapping models calls this off the
// request path, so the swapped-in model answers its first request at
// steady-state speed.
func (m *Model) Warm() { m.predictor().Warm() }

// Detect scans one table and returns its findings ranked by Score.
func (m *Model) Detect(ctx context.Context, t *Table) []Finding {
	return m.DetectAll(ctx, []*Table{t})
}

// DetectSource scans a streaming chunked source and returns its findings
// ranked by Score. Chunks fold into a dictionary-compressed sketch as
// they stream, so memory stays one chunk plus the distinct-value
// dictionaries and one id per cell; at end of stream every detector
// scores the folded table once. The findings are DetectAll's for the
// same table, whatever the chunk size. The Auto-Detect pattern model
// (Options.WithPatterns) does not run on streams.
func (m *Model) DetectSource(ctx context.Context, src Source) ([]Finding, error) {
	fs, err := m.predictor().DetectSource(ctx, src)
	if err != nil {
		return nil, err
	}
	return m.publicFindings(fs), nil
}

// DetectAll scans many tables concurrently and returns all findings
// ranked by Score across tables (likelihood-ratio scores and
// pattern-significance scores share the ranking, as the paper's union of
// per-class ranked lists does, §2.2.3).
func (m *Model) DetectAll(ctx context.Context, tables []*Table) []Finding {
	out := m.publicFindings(m.predictor().DetectAll(ctx, tables))
	if m.patterns != nil {
		alpha := m.core.Config.Alpha
		for _, t := range tables {
			for _, pf := range m.patterns.Detect(t, alpha) {
				out = append(out, Finding{
					Class:  PatternIncompatibility,
					Table:  t.Name,
					Column: pf.Column,
					Rows:   pf.Rows,
					Values: pf.Values,
					Score:  pf.LR,
					Detail: fmt.Sprintf("pattern %s among %s values", pf.PatternB, pf.PatternA),
				})
			}
		}
		sort.SliceStable(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	}
	return out
}

// publicFindings applies the FDR filter (Options.FDR) to ranked core
// findings and converts the survivors to the public form.
func (m *Model) publicFindings(fs []core.Finding) []Finding {
	if m.opts != nil && m.opts.FDR > 0 {
		fs = core.FDRFilter(fs, m.opts.FDR)
	}
	out := make([]Finding, len(fs))
	for i, f := range fs {
		out[i] = Finding{
			Class:  publicClass(f.Class),
			Table:  f.Table,
			Column: f.Column,
			Rows:   f.Rows,
			Values: f.Values,
			Score:  f.LR,
			Detail: f.Detail,
		}
	}
	return out
}

// modelMagic versions the model file format; bump the trailing byte on
// incompatible layout changes. \x02: deterministic (sorted) wire layout
// for evidence grids and the token index — two saves of equal models are
// byte-identical, which the checkpoint/resume protocol relies on.
var modelMagic = []byte("UNIDETECT-MODEL\x02")

// Save serializes the model (format header, evidence grids,
// configuration, and the token index needed for featurization).
func (m *Model) Save(w io.Writer) error {
	if _, err := w.Write(modelMagic); err != nil {
		return fmt.Errorf("unidetect: save header: %w", err)
	}
	if err := m.core.Save(w); err != nil {
		return fmt.Errorf("unidetect: save model: %w", err)
	}
	if err := m.index.Encode(w); err != nil {
		return fmt.Errorf("unidetect: save token index: %w", err)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(m.patterns != nil); err != nil {
		return fmt.Errorf("unidetect: save pattern flag: %w", err)
	}
	if m.patterns != nil {
		if err := enc.Encode(m.patterns); err != nil {
			return fmt.Errorf("unidetect: save pattern model: %w", err)
		}
	}
	return nil
}

// Load reads a model written by Save. Detection options that do not
// affect training (UseDictionary, Alpha) may be overridden via opts; nil
// keeps the saved configuration.
func Load(r io.Reader, opts *Options) (*Model, error) {
	header := make([]byte, len(modelMagic))
	if _, err := io.ReadFull(r, header); err != nil {
		return nil, fmt.Errorf("unidetect: read model header: %w", err)
	}
	if string(header) != string(modelMagic) {
		return nil, fmt.Errorf("unidetect: not a model file (or incompatible version)")
	}
	cm, err := core.LoadModel(r)
	if err != nil {
		return nil, fmt.Errorf("unidetect: load model: %w", err)
	}
	ix, err := corpus.DecodeTokenIndex(r)
	if err != nil {
		return nil, fmt.Errorf("unidetect: load token index: %w", err)
	}
	dec := gob.NewDecoder(r)
	var hasPatterns bool
	if err := dec.Decode(&hasPatterns); err != nil {
		return nil, fmt.Errorf("unidetect: load pattern flag: %w", err)
	}
	var pm *autodetect.Model
	if hasPatterns {
		pm = &autodetect.Model{}
		if err := dec.Decode(pm); err != nil {
			return nil, fmt.Errorf("unidetect: load pattern model: %w", err)
		}
	}
	if opts != nil {
		if opts.Alpha > 0 {
			cm.Config.Alpha = opts.Alpha
		}
		cm.Config.Workers = opts.Workers
	}
	return &Model{core: cm, index: ix, patterns: pm, opts: opts}, nil
}

// Merge combines two models trained with the same Options over disjoint
// background corpora, as if trained on their union (up to small
// featurization drift: each shard bucketed token prevalence against its
// own corpus). Use it to grow a model incrementally or to parallelize
// training across corpus shards.
func Merge(a, b *Model) (*Model, error) {
	cm, err := core.Merge(a.core, b.core)
	if err != nil {
		return nil, fmt.Errorf("unidetect: merge: %w", err)
	}
	return &Model{core: cm, index: a.index.Merge(b.index), opts: a.opts}, nil
}

// ClassStats summarizes the learned evidence for one error class.
type ClassStats struct {
	Class ErrorClass
	// Samples is the number of (θ1, θ2) observations learned.
	Samples int64
	// Buckets is the number of populated feature buckets (including
	// backoff wildcards).
	Buckets int
}

// Stats reports the model's learned evidence per class, for diagnostics
// and the `unidetect info` command.
func (m *Model) Stats() []ClassStats {
	out := make([]ClassStats, 0, len(m.core.Classes))
	for c := core.Class(0); int(c) < core.NumClasses; c++ {
		cm, ok := m.core.Classes[c]
		if !ok {
			continue
		}
		out = append(out, ClassStats{
			Class:   publicClass(c),
			Samples: cm.Samples(),
			Buckets: len(cm.Buckets),
		})
	}
	return out
}
