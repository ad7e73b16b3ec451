package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/eval"
	"github.com/unidetect/unidetect/internal/table"
)

// finding is the wire shape both the /v1/detect reply and a job's
// findings stream carry, and the normal form every output is compared in.
type finding struct {
	Class  string   `json:"class"`
	Table  string   `json:"table"`
	Column string   `json:"column"`
	Rows   []int    `json:"rows"`
	Values []string `json:"values,omitempty"`
	Score  float64  `json:"score"`
	Detail string   `json:"detail,omitempty"`
}

// oracle is the reference predictor — core.Predictor{Reference: true},
// the difftest oracle — over the model under test, decoded from the
// model's own saved bytes. It also hands out independent copies of the
// model for the traced replay.
type oracle struct {
	ref   *core.Predictor
	model *core.Model
	index *corpus.TokenIndex
	saved []byte
}

// modelHeader starts a saved model file (unidetect.Save's magic); one
// format-version byte follows it.
const modelHeader = "UNIDETECT-MODEL"

func newOracle(m *unidetect.Model) (*oracle, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	saved := buf.Bytes()
	if !bytes.HasPrefix(saved, []byte(modelHeader)) {
		return nil, fmt.Errorf("saved model lacks the %q header", modelHeader)
	}
	r := bytes.NewReader(saved[len(modelHeader)+1:])
	cm, err := core.LoadModel(r)
	if err != nil {
		return nil, fmt.Errorf("decode core model: %w", err)
	}
	ix, err := corpus.DecodeTokenIndex(r)
	if err != nil {
		return nil, fmt.Errorf("decode token index: %w", err)
	}
	ref := core.NewPredictor(cm, detectors.All(cm.Config, detectors.Options{}), &core.Env{Index: ix})
	ref.Reference = true
	return &oracle{ref: ref, model: cm, index: ix, saved: saved}, nil
}

// copyModel loads an independent copy of the model under test (its own
// predictor, LR index and measurement cache). workers 0 keeps the
// saved default parallelism.
func (o *oracle) copyModel(workers int) (*unidetect.Model, error) {
	m, err := unidetect.Load(bytes.NewReader(o.saved), &unidetect.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("load model copy: %w", err)
	}
	return m, nil
}

// detectAll is what Model.DetectAll must return for tables.
func (o *oracle) detectAll(ctx context.Context, tables []*table.Table) []finding {
	return fromCore(o.ref.DetectAll(ctx, tables))
}

// detectCSV is what a job over body, scanned in chunks of chunkRows rows,
// must stream back.
func (o *oracle) detectCSV(ctx context.Context, name string, body []byte, chunkRows int) ([]finding, error) {
	src, err := colstore.NewCSVSource(name, bytes.NewReader(body), colstore.Options{ChunkRows: chunkRows})
	if err != nil {
		return nil, fmt.Errorf("oracle: open %s: %w", name, err)
	}
	fs, err := o.ref.DetectSource(ctx, src)
	if err != nil {
		return nil, fmt.Errorf("oracle: scan %s: %w", name, err)
	}
	core.SortFindings(fs)
	return fromCore(fs), nil
}

func fromCore(fs []core.Finding) []finding {
	out := make([]finding, len(fs))
	for i, f := range fs {
		out[i] = finding{Class: f.Class.String(), Table: f.Table, Column: f.Column,
			Rows: f.Rows, Values: f.Values, Score: f.LR, Detail: f.Detail}
	}
	return out
}

func fromPublic(fs []unidetect.Finding) []finding {
	out := make([]finding, len(fs))
	for i, f := range fs {
		out[i] = finding{Class: f.Class.String(), Table: f.Table, Column: f.Column,
			Rows: f.Rows, Values: f.Values, Score: f.Score, Detail: f.Detail}
	}
	return out
}

// decodeDetect parses a /v1/detect reply into normal form.
func decodeDetect(body []byte) ([]finding, error) {
	var resp struct {
		Table    string    `json:"table"`
		Findings []finding `json:"findings"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decode /v1/detect reply: %w", err)
	}
	for i := range resp.Findings {
		resp.Findings[i].Table = resp.Table
	}
	return resp.Findings, nil
}

// jobStatus is the terminal summary line of a job's NDJSON reply.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Findings int    `json:"findings"`
}

// decodeJob splits a job's NDJSON reply into its findings and the status
// line that ends it, checking the two agree on the count.
func decodeJob(body []byte) ([]finding, jobStatus, error) {
	var st jobStatus
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &st); err != nil || st.State == "" {
		return nil, st, fmt.Errorf("job reply does not end in a status line: %q", lines[len(lines)-1])
	}
	fs := make([]finding, 0, len(lines)-1)
	for _, line := range lines[:len(lines)-1] {
		var f finding
		if err := json.Unmarshal(line, &f); err != nil {
			return nil, st, fmt.Errorf("decode job finding: %w", err)
		}
		fs = append(fs, f)
	}
	if st.State == "done" && st.Findings != len(fs) {
		return nil, st, fmt.Errorf("job %s reports %d findings but streamed %d", st.ID, st.Findings, len(fs))
	}
	return fs, st, nil
}

// diffFindings reports the first difference between the oracle's ranked
// findings and the path under test's, or nil when they are identical.
// Scores compare bit for bit; an absent and an empty list are the same.
func diffFindings(want, got []finding) error {
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		w, g := want[i], got[i]
		if w.Class != g.Class || w.Table != g.Table || w.Column != g.Column || w.Detail != g.Detail ||
			!slices.Equal(w.Rows, g.Rows) || !slices.Equal(w.Values, g.Values) ||
			math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			return fmt.Errorf("finding %d differs from the reference: want %+v, got %+v", i, w, g)
		}
	}
	if len(want) != len(got) {
		return fmt.Errorf("reference has %d findings, path under test %d", len(want), len(got))
	}
	return nil
}

// precisionAt100 scores the ranked findings against the planted labels
// with the paper's protocol (internal/eval).
func precisionAt100(fs []finding, labels []datagen.Label) float64 {
	items := make([]eval.Item, len(fs))
	for i, f := range fs {
		items[i] = eval.Item{Table: f.Table, Column: f.Column, Rows: f.Rows}
	}
	return eval.PrecisionAtK(items, eval.NewLabels(labels), []int{100})[0]
}
