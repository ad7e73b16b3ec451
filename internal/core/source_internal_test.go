package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/fnv"
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

// legacyScanWire is the scan state Save wrote while Fold still scored
// each chunk: the sketch plus the dedup state of per-chunk findings.
type legacyScanWire struct {
	Name     string
	Pos      int
	Degraded int
	Cols     []string
	Vals     [][]string
	IDs      [][]uint32
	Segs     []scanWireSeg
	Rows     int
	Order    []string
	Best     map[string]Finding
}

// TestLoadSourceScanLegacyState loads a checkpoint in the older layout,
// which carries per-chunk findings next to the sketch: the findings are
// ignored and the scan resumes from its sketch, identical to the scan
// that wrote it.
func TestLoadSourceScanLegacyState(t *testing.T) {
	p := &Predictor{}
	scan := p.NewSourceScan("t")
	scan.Fold(colstore.NewChunk(0, 0, []colstore.ColumnView{
		colstore.NewColumnView("a", []string{"x", "y", "x"}),
	}))
	scan.SkipDegraded(colstore.NewChunk(1, 3, nil))
	scan.Fold(colstore.NewChunk(2, 5, []colstore.ColumnView{
		colstore.NewColumnView("a", []string{"z"}),
	}))
	var want bytes.Buffer
	if err := scan.Save(&want); err != nil {
		t.Fatal(err)
	}

	wire := legacyScanWire{
		Name: scan.name, Pos: scan.pos, Degraded: scan.degraded,
		Cols: scan.sk.names, Vals: scan.sk.vals, IDs: scan.sk.ids, Rows: scan.sk.rows,
		Order: []string{"k"},
		Best:  map[string]Finding{"k": {Class: ClassSpelling, Table: "t", Rows: []int{0, 5}, LR: 0.01}},
	}
	for _, seg := range scan.sk.segs {
		wire.Segs = append(wire.Segs, scanWireSeg{Start: seg.start, Base: seg.base})
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		t.Fatal(err)
	}
	var legacy bytes.Buffer
	legacy.Write(scanMagic)
	_ = binary.Write(&legacy, binary.BigEndian, uint32(payload.Len()))
	legacy.Write(payload.Bytes())
	h := fnv.New64a()
	_, _ = h.Write(payload.Bytes())
	legacy.Write(h.Sum(nil))

	loaded, err := p.LoadSourceScan(&legacy)
	if err != nil {
		t.Fatalf("legacy scan state failed to load: %v", err)
	}
	var got bytes.Buffer
	if err := loaded.Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("scan resumed from legacy state differs from the scan that wrote it")
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
