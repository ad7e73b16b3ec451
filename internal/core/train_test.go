package core_test

import (
	"context"
	"sync"
	"testing"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/table"
)

// TestTrainDeterministic trains twice on the same corpus and requires
// byte-identical evidence.
func TestTrainDeterministic(t *testing.T) {
	spec := datagen.Spec{Name: "d", Profile: datagen.ProfileWeb, NumTables: 400,
		AvgRows: 20, AvgCols: 4.6, Seed: 5}
	bg := corpus.New(spec.Name, datagen.Generate(spec).Tables)
	cfg := core.DefaultConfig()
	train := func() *core.Model {
		m, err := core.Train(context.Background(), cfg, bg, detectors.All(cfg, detectors.Options{}))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := train(), train()
	for cls, ca := range a.Classes {
		cb := b.Classes[cls]
		if ca.Samples() != cb.Samples() {
			t.Errorf("class %v samples differ: %d vs %d", cls, ca.Samples(), cb.Samples())
		}
		if len(ca.Buckets) != len(cb.Buckets) {
			t.Errorf("class %v bucket counts differ: %d vs %d", cls, len(ca.Buckets), len(cb.Buckets))
		}
		for k, ga := range ca.Buckets {
			gb, ok := cb.Buckets[k]
			if !ok {
				t.Fatalf("class %v bucket %v missing from second model", cls, k)
			}
			if ga.Total != gb.Total {
				t.Fatalf("class %v bucket %v totals differ", cls, k)
			}
			for i := range ga.Counts {
				if ga.Counts[i] != gb.Counts[i] {
					t.Fatalf("class %v bucket %v counts differ at %d", cls, k, i)
				}
			}
		}
	}
}

// TestConcurrentDetectRace exercises the shared predictor's DetectAll
// (its LR index, measurement cache and scratch pool) from many
// goroutines; run with -race.
func TestConcurrentDetectRace(t *testing.T) {
	m, bg := trainSmall(t)
	pred := core.NewPredictor(m, detectors.All(m.Config, detectors.Options{}), &core.Env{Index: bg.Index()})
	tbl := table.MustNew("t",
		table.NewColumn("Name", []string{"Kevin Doeling", "Kevin Dowling", "Alan Myerson", "Rob Morrow", "Lesli Glatter", "Peter Bonerz"}),
		table.NewColumn("Pop", []string{"8011", "8.716", "9954", "11895", "11329", "11352"}),
	)
	tables := []*table.Table{tbl}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if fs := pred.DetectAll(context.Background(), tables); len(fs) == 0 {
					t.Error("no findings")
					return
				}
			}
		}()
	}
	wg.Wait()
}
