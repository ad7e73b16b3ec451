package core_test

import (
	"context"
	"sync"
	"testing"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/evidence"
	"github.com/unidetect/unidetect/internal/table"
)

// profileRecorder is a table-level detector that measures nothing and
// records the profile each column handed it while it measured.
type profileRecorder struct {
	mu sync.Mutex
	// guarded by mu
	seen map[*table.Column]*table.Profile
}

func newProfileRecorder() *profileRecorder {
	return &profileRecorder{seen: map[*table.Column]*table.Profile{}}
}

func (r *profileRecorder) Class() core.Class               { return core.ClassUniqueness }
func (r *profileRecorder) Quantizer() evidence.Quantizer   { return evidence.RatioQuantizer{N: 8} }
func (r *profileRecorder) Directions() evidence.Directions { return evidence.RatioDirections }

func (r *profileRecorder) Measure(t *table.Table, _ *core.Env) []core.Measurement {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range t.Columns {
		r.seen[c] = c.Profile()
	}
	return nil
}

// checkDropped fails unless every column the recorder saw hands out a
// new profile now: the call that profiled it dropped its profile.
func (r *profileRecorder) checkDropped(t *testing.T, call string) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.seen) == 0 {
		t.Fatalf("%s: the recorder measured no column", call)
	}
	for c, p := range r.seen {
		if c.Profile() == p {
			t.Errorf("%s: column %q kept its profile after the call returned", call, c.Name)
		}
	}
}

// TestProfilesDoNotOutliveTheirCall holds a column profile to the call
// that built it: a training map task, DetectAll, or a stream's Finish.
func TestProfilesDoNotOutliveTheirCall(t *testing.T) {
	ctx := context.Background()
	spec := datagen.Spec{Name: "life", Profile: datagen.ProfileWeb, NumTables: 6,
		AvgRows: 20, AvgCols: 4, ErrorRate: 0.1, Seed: 5}
	tables := datagen.Generate(spec).Tables

	rec := newProfileRecorder()
	m, err := core.Train(ctx, core.DefaultConfig(), corpus.New(spec.Name, tables), []core.Detector{rec})
	if err != nil {
		t.Fatal(err)
	}
	rec.checkDropped(t, "Train")

	rec = newProfileRecorder()
	core.NewPredictor(m, []core.Detector{rec}, &core.Env{}).DetectAll(ctx, tables)
	rec.checkDropped(t, "DetectAll")

	rec = newProfileRecorder()
	src := colstore.NewSliceSource(tables[0], colstore.Options{ChunkRows: 7})
	if _, err := core.NewPredictor(m, []core.Detector{rec}, &core.Env{}).DetectSource(ctx, src); err != nil {
		t.Fatal(err)
	}
	rec.checkDropped(t, "DetectSource")
}
