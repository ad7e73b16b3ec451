package core

import (
	"testing"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/table"
)

// TestFingerprintMatchesColumnView pins the cross-package contract: the
// measurement cache's column fingerprint is the same 128-bit FNV a
// colstore.ColumnView computes over identical content, so the chunk
// fingerprints stored in `.ucol` files key the cache directly.
func TestFingerprintMatchesColumnView(t *testing.T) {
	cases := [][]string{
		{"paris", "8,011", "", "42"},
		{},
		{""},
		{"ab", "c"},
	}
	for _, values := range cases {
		c := table.NewColumn("pop", values)
		h1, h2 := fingerprintColumn(c)
		v := colstore.NewColumnView("pop", values)
		w1, w2 := v.Fingerprint()
		if h1 != w1 || h2 != w2 {
			t.Fatalf("values %q: cache fingerprint (%x,%x) != ColumnView fingerprint (%x,%x)",
				values, h1, h2, w1, w2)
		}
	}
	// Framing still separates ("ab","c") from ("a","bc").
	a1, a2 := fingerprintColumn(table.NewColumn("n", []string{"ab", "c"}))
	b1, b2 := fingerprintColumn(table.NewColumn("n", []string{"a", "bc"}))
	if a1 == b1 && a2 == b2 {
		t.Fatal("boundary shift did not change the fingerprint")
	}
}

// TestSketchFoldAndRemap exercises the dictionary sketch directly: fold
// chunks with a gap (as if chaos degraded the middle chunk), check the
// materialized table skips the gap's rows, and check the sketch's row
// map rebases sketch rows to source coordinates across the gap.
func TestSketchFoldAndRemap(t *testing.T) {
	mkChunk := func(index, base int, vals ...[]string) *colstore.Chunk {
		cols := make([]colstore.ColumnView, len(vals))
		for j, v := range vals {
			cols[j] = colstore.NewColumnView(string(rune('a'+j)), v)
		}
		return colstore.NewChunk(index, base, cols)
	}
	var sk sourceSketch
	sk.fold(mkChunk(0, 0, []string{"x", "y"}, []string{"1", "2"}))
	// chunk 1 (source rows 2..3) degraded: never folded.
	sk.fold(mkChunk(2, 4, []string{"y", "z"}, []string{"2", "3"}))

	tab, err := sk.materialize("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 4 || tab.NumCols() != 2 {
		t.Fatalf("sketch table is %dx%d, want 2x4", tab.NumCols(), tab.NumRows())
	}
	wantA := []string{"x", "y", "y", "z"}
	for i, w := range wantA {
		if tab.Columns[0].Values[i] != w {
			t.Fatalf("sketch col a = %v, want %v", tab.Columns[0].Values, wantA)
		}
	}

	got := sk.segs.apply([]int{0, 1, 2, 3})
	want := []int{0, 1, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("remap = %v, want %v", got, want)
		}
	}
	// Identity mappings — gap-free sketches, chunks at base 0, and the
	// nil map — alias straight through without copying.
	var id sourceSketch
	id.fold(mkChunk(0, 0, []string{"x", "y"}))
	id.fold(mkChunk(1, 2, []string{"z"}))
	rows := []int{0, 2}
	for _, m := range []rowMap{id.segs, {{start: 0, base: 0}}, nil} {
		if out := m.apply(rows); &out[0] != &rows[0] {
			t.Fatalf("identity map %v copied its input", m)
		}
	}
	// A shifted map copies rather than rebasing the input in place.
	if out := (rowMap{{start: 0, base: 8}}).apply(rows); out[0] != 8 || out[1] != 10 || rows[0] != 0 {
		t.Fatalf("map at base 8 gave %v (input now %v), want [8 10] and the input untouched", out, rows)
	}
}

// TestSketchWidens folds a chunk that discovers a new column mid-stream:
// earlier rows must backfill as empty cells, matching colstore.ReadAll.
func TestSketchWidens(t *testing.T) {
	var sk sourceSketch
	sk.fold(colstore.NewChunk(0, 0, []colstore.ColumnView{
		colstore.NewColumnView("a", []string{"1", "2"}),
	}))
	sk.fold(colstore.NewChunk(1, 2, []colstore.ColumnView{
		colstore.NewColumnView("a", []string{"3"}),
		colstore.NewColumnView("b", []string{"w"}),
	}))
	tab, err := sk.materialize("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumCols() != 2 || tab.NumRows() != 3 {
		t.Fatalf("widened sketch is %dx%d, want 2x3", tab.NumCols(), tab.NumRows())
	}
	wantB := []string{"", "", "w"}
	for i, w := range wantB {
		if tab.Columns[1].Values[i] != w {
			t.Fatalf("sketch col b = %v, want %v", tab.Columns[1].Values, wantB)
		}
	}
}
