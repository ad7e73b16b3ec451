package core

import (
	"context"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/table"
)

// This file implements SourceScan, the streaming front end of the detect
// path: chunks fold into a dictionary sketch one at a time, driven by the
// caller, and at end of stream the sketch decodes to a table that
// DetectAll's table path scores once. DetectSource is a loop over it,
// and so is the async job store's worker. The sketch after k chunks is a
// pure function of the stream's first k chunks, so a scan keeps no state
// worth saving: a job interrupted mid-stream scans its spool again from
// the top.

// SourceScan is an in-progress streaming scan over one table. Fold one
// chunk at a time (or SkipDegraded one the caller had to drop), and
// Finish at end of stream. DetectSource runs exactly this sequence, so a
// caller driving the same chunk stream gets the findings DetectSource
// returns. Those are the findings DetectAll gives for the table of the
// folded rows, whatever the chunk size.
//
// A SourceScan is not safe for concurrent use; each scan belongs to one
// worker.
type SourceScan struct {
	p        *Predictor
	name     string
	sk       sourceSketch
	pos      int // stream positions consumed: folded + degraded chunks
	degraded int
}

// NewSourceScan starts a chunk-at-a-time scan of the named table.
func (p *Predictor) NewSourceScan(name string) *SourceScan {
	return &SourceScan{p: p, name: name}
}

// Pos returns the number of stream positions consumed so far — folded
// plus degraded chunks.
func (s *SourceScan) Pos() int { return s.pos }

// Degraded returns how many chunks were skipped as degraded.
func (s *SourceScan) Degraded() int { return s.degraded }

// Rows returns the number of source rows folded so far.
func (s *SourceScan) Rows() int { return s.sk.rows }

// Fold folds one chunk into the scan's dictionary sketch. No detector
// runs until Finish.
func (s *SourceScan) Fold(c *colstore.Chunk) {
	start := s.p.Obs.Now()
	s.consume(c)
	s.sk.fold(c)
	s.p.metrics().scanChunkSeconds.Observe((s.p.Obs.Now() - start).Seconds())
}

// SkipDegraded consumes chunk c without folding it: its rows vanish
// from the scan and the stream continues. DetectSource skips a chunk
// its chaos gate rejected; the job store one whose injected fault fired.
func (s *SourceScan) SkipDegraded(c *colstore.Chunk) {
	s.consume(c)
	s.p.metrics().scanDegraded.Inc()
	s.degraded++
}

// consume counts one chunk pulled from the stream, folded or skipped,
// so the scan counters mean the same on every path.
func (s *SourceScan) consume(c *colstore.Chunk) {
	pm := s.p.metrics()
	pm.chunksScanned.Inc()
	pm.scanBytes.Add(int64(c.Bytes()))
	s.pos++
}

// Finish decodes the sketch into a table, scores it once through
// DetectAll's table path (after chaos admission, which the stream did
// per chunk), and maps each finding's rows back to source rows. The
// findings come back ranked: the row map is strictly increasing, so
// dedup and ranking on sketch rows agree with source rows. schema names
// the columns of an empty stream (sources report it even before the
// first chunk). The scan must not be folded into after Finish.
//
// alloc-budget: 1 the one-table batch handed to detectTables
func (s *SourceScan) Finish(schema []string) ([]Finding, error) {
	tbl, err := s.sk.materialize(s.name, schema)
	if err != nil {
		return nil, err
	}
	// Finish's signature carries no context; like Fold, it runs to
	// completion.
	fs := s.p.detectTables(context.TODO(), []*table.Table{tbl})
	for i := range fs {
		fs[i].Rows = s.sk.segs.apply(fs[i].Rows)
	}
	return fs, nil
}
