package unidetect

import (
	"io"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
)

// SourceScan is the chunk-at-a-time form of DetectSource: the caller
// drives the scan one chunk at a time, and a scan fed a source's chunks
// finishes with findings identical to one DetectSource call over the
// same stream. The async job store drives its spooled uploads this way,
// from the top of the spool on every run.
//
// Chunk is the colstore chunk type, following the Source = colstore
// alias: streaming callers already hold colstore chunks.
//
// A SourceScan is not safe for concurrent use.
type SourceScan struct {
	s *core.SourceScan
}

// NewSourceScan starts a chunk-at-a-time scan of the named table.
func (m *Model) NewSourceScan(name string) *SourceScan {
	return &SourceScan{s: m.predictor().NewSourceScan(name)}
}

// Fold folds one chunk into the scan; detection runs once, in Finish.
func (s *SourceScan) Fold(c *colstore.Chunk) { s.s.Fold(c) }

// SkipDegraded consumes chunk c without folding it, for chunks the
// caller had to drop. The chunk still counts as scanned.
func (s *SourceScan) SkipDegraded(c *colstore.Chunk) { s.s.SkipDegraded(c) }

// Pos returns the number of stream positions consumed (folded plus
// degraded).
func (s *SourceScan) Pos() int { return s.s.Pos() }

// Degraded returns how many chunks were skipped as degraded.
func (s *SourceScan) Degraded() int { return s.s.Degraded() }

// Rows returns the number of source rows folded so far.
func (s *SourceScan) Rows() int { return s.s.Rows() }

// Save writes nothing and returns nil.
//
// Deprecated: a scan keeps no state worth saving, since its sketch after
// k chunks follows from the stream's first k chunks; jobs rescan their
// spool instead. Save goes once no caller remains.
func (s *SourceScan) Save(io.Writer) error { return nil }

// Finish scores the folded rows once, as DetectAll scores a table, and
// returns the ranked findings with exactly DetectSource's
// post-processing (public classes), so a chunk-at-a-time scan is
// byte-identical to one DetectSource call. schema names the columns of
// an empty stream.
func (s *SourceScan) Finish(schema []string) ([]Finding, error) {
	fs, err := s.s.Finish(schema)
	if err != nil {
		return nil, err
	}
	return publicFindings(fs), nil
}
