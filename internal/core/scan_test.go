package core_test

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/table"
)

// errorTable is one error-injected table for scan tests: big enough to
// span several chunks and carrying injected errors, so the scan has
// findings whose exact contents the equivalence tests can compare.
func errorTable(t *testing.T, seed int64) *table.Table {
	t.Helper()
	res := datagen.Generate(datagen.Spec{Name: "scanjob", Profile: datagen.ProfileWeb,
		NumTables: 1, AvgRows: 120, AvgCols: 5, ErrorRate: 2, Seed: seed})
	return res.Tables[0]
}

// foldAll drives scan over every chunk of src, as the job store does
// without faults, and finishes it.
func foldAll(t *testing.T, scan *core.SourceScan, src colstore.Source) []core.Finding {
	t.Helper()
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scan.Fold(c)
	}
	fs, err := scan.Finish(src.ColumnNames())
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSourceScanEquivalence is the chunk-at-a-time scan's core contract:
// Fold-per-chunk + Finish on the fast predictor must produce exactly the
// findings the reference predictor's DetectSource produces over the same
// chunk stream, for every chunk geometry. (difftest.RunSource sweeps the
// same contract, with chaos, over seeded corpora.)
func TestSourceScanEquivalence(t *testing.T) {
	m, bg := trainSmall(t)
	dets := detectors.All(m.Config, detectors.Options{})
	tab := errorTable(t, 11)

	for _, chunkRows := range []int{4, 16, 64, colstore.WholeTable} {
		t.Run(fmt.Sprintf("chunkRows=%d", chunkRows), func(t *testing.T) {
			ref := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()})
			ref.Reference = true
			p := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()})
			opts := colstore.Options{ChunkRows: chunkRows}
			want, err := ref.DetectSource(context.Background(), colstore.NewSliceSource(tab, opts))
			if err != nil {
				t.Fatal(err)
			}
			got := foldAll(t, p.NewSourceScan(tab.Name), colstore.NewSliceSource(tab, opts))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk-at-a-time scan diverged from the reference DetectSource:\n got %+v\nwant %+v", got, want)
			}
			if len(want) == 0 {
				t.Fatal("scan found nothing on an error-injected table; test has no power")
			}
		})
	}
}
