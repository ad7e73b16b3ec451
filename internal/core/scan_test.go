package core_test

import (
	"bytes"
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

// TestSourceScanEquivalence is the resumable scan's core contract:
// Fold-per-chunk + Finish on the fast predictor must produce exactly the
// findings the reference predictor's DetectSource produces over the same
// chunk stream, for every chunk geometry. (difftest.RunSource sweeps the
// same contract, with checkpoints and chaos, over seeded corpora.)
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
				t.Fatalf("resumable scan diverged from the reference DetectSource:\n got %+v\nwant %+v", got, want)
			}
			if len(want) == 0 {
				t.Fatal("scan found nothing on an error-injected table; test has no power")
			}
		})
	}
}

// TestSourceScanSaveLoadEveryChunk round-trips the scan state through
// Save/Load at every chunk boundary: the resumed scan must finish with
// findings identical to the uninterrupted one — the job store's
// kill-anywhere resume contract.
func TestSourceScanSaveLoadEveryChunk(t *testing.T) {
	m, bg := trainSmall(t)
	dets := detectors.All(m.Config, detectors.Options{})
	tab := errorTable(t, 13)
	const chunkRows = 8

	p := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()})
	want, err := p.DetectSource(context.Background(), colstore.NewSliceSource(tab, colstore.Options{ChunkRows: chunkRows}))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("no findings; test has no power")
	}

	src := colstore.NewSliceSource(tab, colstore.Options{ChunkRows: chunkRows})
	scan := p.NewSourceScan(src.Name())
	chunk := 0
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		scan.Fold(c)
		chunk++
		var buf bytes.Buffer
		if err := scan.Save(&buf); err != nil {
			t.Fatalf("save after chunk %d: %v", chunk, err)
		}
		loaded, err := p.LoadSourceScan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("load after chunk %d: %v", chunk, err)
		}
		if loaded.Pos() != scan.Pos() || loaded.Rows() != scan.Rows() || loaded.Name() != scan.Name() {
			t.Fatalf("round trip after chunk %d lost position: %d/%d rows %d/%d",
				chunk, loaded.Pos(), scan.Pos(), loaded.Rows(), scan.Rows())
		}
		scan = loaded // continue the scan on the reloaded state
	}
	got, err := scan.Finish(src.ColumnNames())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan resumed through %d save/load cycles diverged:\n got %+v\nwant %+v", chunk, got, want)
	}
}

// TestSourceScanResumeSkips models the job store's actual resume: save
// mid-stream, reload, reopen the source and skip the consumed chunks,
// then continue — findings must match the uninterrupted scan.
func TestSourceScanResumeSkips(t *testing.T) {
	m, bg := trainSmall(t)
	dets := detectors.All(m.Config, detectors.Options{})
	tab := errorTable(t, 17)
	const chunkRows = 8

	p := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()})
	want, err := p.DetectSource(context.Background(), colstore.NewSliceSource(tab, colstore.Options{ChunkRows: chunkRows}))
	if err != nil {
		t.Fatal(err)
	}

	// First run: fold three chunks, save, "crash".
	src := colstore.NewSliceSource(tab, colstore.Options{ChunkRows: chunkRows})
	scan := p.NewSourceScan(src.Name())
	for i := 0; i < 3; i++ {
		c, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		scan.Fold(c)
	}
	var state bytes.Buffer
	if err := scan.Save(&state); err != nil {
		t.Fatal(err)
	}

	// Resume: fresh source, skip what the saved state already consumed.
	resumed, err := p.LoadSourceScan(bytes.NewReader(state.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src2 := colstore.NewSliceSource(tab, colstore.Options{ChunkRows: chunkRows})
	for skip := resumed.Pos(); skip > 0; skip-- {
		if _, err := src2.Next(); err != nil {
			t.Fatalf("source ended before the saved position: %v", err)
		}
	}
	got := foldAll(t, resumed, src2)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume-with-skip diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoadSourceScanRejectsGarbage pins the hard-error contract: torn,
// truncated or corrupt state must error, never resume partially.
func TestLoadSourceScanRejectsGarbage(t *testing.T) {
	m, bg := trainSmall(t)
	p := core.NewPredictor(m, detectors.All(m.Config, detectors.Options{}), &core.Env{Index: bg.Index()})

	scan := p.NewSourceScan("x")
	src := colstore.NewSliceSource(errorTable(t, 19), colstore.Options{ChunkRows: 16})
	c, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	scan.Fold(c)
	var good bytes.Buffer
	if err := scan.Save(&good); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("UNIDETECT-NOPE\x01xxxxxxxx"),
		"torn tail":     good.Bytes()[:good.Len()-5],
		"torn header":   good.Bytes()[:len("UNIDETECT-SCAN\x01")+2],
		"trailing junk": append(append([]byte{}, good.Bytes()...), 0xFF),
		"flipped byte": func() []byte {
			b := append([]byte{}, good.Bytes()...)
			b[len(b)/2] ^= 0x41
			return b
		}(),
	}
	for name, data := range cases {
		if _, err := p.LoadSourceScan(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: load accepted corrupt state", name)
		}
	}
	// The pristine bytes still load, so the cases above failed for the
	// right reason.
	if _, err := p.LoadSourceScan(bytes.NewReader(good.Bytes())); err != nil {
		t.Fatalf("pristine state failed to load: %v", err)
	}
}
