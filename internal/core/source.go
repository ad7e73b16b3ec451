package core

import (
	"context"
	"io"
	"sort"
	"strings"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/table"
)

// This file implements the streaming scan: DetectSource scores a
// chunked columnar source (internal/colstore) without ever holding the
// source's chunks in memory. It is a loop over SourceScan (scan.go),
// which the async job store drives too, from the top of its spool on
// every run, since nothing of a scan is persisted. Each chunk folds into
// a dictionary-encoded sketch — repeated cell strings are stored once,
// so the resident footprint is one chunk plus the distinct-value
// dictionaries and one id per cell — and at end of stream the sketch
// decodes to a table that every detector scores once, as DetectAll
// scores an in-memory table, with row indices rebased to source
// coordinates.

// DetectSource scores a streaming source and returns its findings ranked
// as DetectAll ranks them: exactly DetectAll's findings for the table of
// the folded rows, at every chunk size. The source is drained but not
// closed (the caller owns Close). A source error aborts the scan;
// injected chaos faults instead degrade the failing chunk — its rows
// vanish from the scan — and the scan continues. Each chunk is released
// before the next is pulled, so at most one chunk per column is resident
// at a time (instrumented sources verify this via Releaser).
func (p *Predictor) DetectSource(ctx context.Context, src colstore.Source) ([]Finding, error) {
	sp := obs.StartSpan(ctx, "core/detect_source")
	sp.Tag("table", src.Name())
	defer sp.End()
	s := p.NewSourceScan(src.Name())
	rel, _ := src.(colstore.Releaser)
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if p.Inject == nil || p.admitChunk(ctx, src.Name()) {
			s.Fold(c)
		} else {
			s.SkipDegraded(c)
		}
		if rel != nil {
			rel.Release(c)
		}
	}
	return s.Finish(src.ColumnNames())
}

// rowSeg maps one admitted chunk's measured rows back to source rows:
// measured rows [start, start+n) came from source rows [base, base+n).
type rowSeg struct {
	start int // first measured row of the segment
	base  int // the chunk's first source row
}

// rowMap rebases the row indices a detector reports to source rows:
// each segment covers the measured rows from its start up to the next
// segment's. SourceScan.Finish maps the sketch's findings with its
// per-chunk segments, which differ from the identity only when chaos
// degraded a chunk mid-stream. A nil map is the identity.
type rowMap []rowSeg

// apply rebases rows through m. The identity aliases its input;
// otherwise the caller gets a fresh slice — cached measurement slices
// are shared and must never be mutated.
//
// alloc-budget: 2 the rebased row slice of a surviving finding, and sort.Search's predicate closure, which does not escape
func (m rowMap) apply(rows []int) []int {
	identity := true
	for _, s := range m {
		if s.start != s.base {
			identity = false
			break
		}
	}
	if identity || len(rows) == 0 {
		return rows
	}
	out := make([]int, len(rows))
	for i, r := range rows {
		k := sort.Search(len(m), func(k int) bool { return m[k].start > r }) - 1
		out[i] = m[k].base + (r - m[k].start)
	}
	return out
}

// sourceSketch accumulates the dictionary-encoded column sketch every
// detector runs over at end of stream. Cell strings are
// interned once per distinct value (cloned out of the chunk arenas, so
// released chunks are not pinned); per-cell state is one uint32 id.
type sourceSketch struct {
	names []string
	dicts []map[string]uint32
	vals  [][]string
	ids   [][]uint32
	segs  rowMap
	rows  int // admitted rows folded so far
}

// fold appends one admitted chunk to the sketch. Columns appearing for
// the first time are backfilled with empty cells for the rows already
// folded, mirroring how colstore.ReadAll widens.
//
// alloc-budget: 11 dictionary growth is the sketch's whole job: per-column dict/value/id structures on first sight, value interning on new distinct cells, id and segment growth per chunk
func (sk *sourceSketch) fold(c *colstore.Chunk) {
	for j := 0; j < c.NumCols(); j++ {
		v := c.Col(j)
		if j == len(sk.names) {
			sk.names = append(sk.names, v.Name())
			sk.dicts = append(sk.dicts, map[string]uint32{"": 0})
			sk.vals = append(sk.vals, []string{""})
			sk.ids = append(sk.ids, make([]uint32, sk.rows))
		}
		d := sk.dicts[j]
		for i := 0; i < v.Len(); i++ {
			s := v.Value(i)
			id, ok := d[s]
			if !ok {
				id = uint32(len(sk.vals[j]))
				// Clone so the dictionary never pins a released arena.
				s = strings.Clone(s)
				d[s] = id
				sk.vals[j] = append(sk.vals[j], s)
			}
			sk.ids[j] = append(sk.ids[j], id)
		}
	}
	sk.segs = append(sk.segs, rowSeg{start: sk.rows, base: c.Base})
	sk.rows += c.Rows()
	// The schema only widens, so every column now has an id per folded
	// row; pad defensively anyway to keep materialize rectangular.
	for j := range sk.ids {
		for len(sk.ids[j]) < sk.rows {
			sk.ids[j] = append(sk.ids[j], 0)
		}
	}
}

// materialize decodes the sketch into a table named name for the
// detectors. A sketch that saw no chunks still defines the schema's
// columns, zero rows each.
//
// alloc-budget: 4 the decoded table, once per stream: column list, per-column value slices and headers, and table.New's error path
func (sk *sourceSketch) materialize(name string, schema []string) (*table.Table, error) {
	names := sk.names
	if len(names) == 0 {
		names = schema
	}
	cols := make([]*table.Column, len(names))
	for j := range names {
		values := make([]string, sk.rows)
		if j < len(sk.ids) {
			for i, id := range sk.ids[j] {
				values[i] = sk.vals[j][id]
			}
		}
		cols[j] = table.NewColumn(names[j], values)
	}
	return table.New(name, cols...)
}

// admitChunk runs the per-chunk chaos gate of DetectSource. Both scorers
// run the same loop, so a chaos schedule hits the site with the same
// per-chunk ordinals and degrades the same chunks on both.
//
// alloc-budget: 4 chaos admission gate: recover shield and degradation logging, called only under fault injection
func (p *Predictor) admitChunk(ctx context.Context, name string) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			p.logf("core: scan chunk of %q panicked: %v; skipping", name, r)
			p.metrics().scanDegraded.Inc()
			ok = false
		}
	}()
	if err := p.Inject.Hit(ctx, "core/scan/table="+name); err != nil {
		p.logf("core: scan chunk of %q failed: %v; skipping", name, err)
		p.metrics().scanDegraded.Inc()
		return false
	}
	return true
}
