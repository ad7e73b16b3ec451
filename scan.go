package unidetect

import (
	"io"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
)

// SourceScan is the resumable form of DetectSource: the caller drives
// the scan one chunk at a time and can Save the whole intermediate
// state between chunks. A scan reloaded with LoadSourceScan and fed the
// remaining chunks finishes with findings identical to an uninterrupted
// DetectSource over the same stream — the contract the async job store
// builds its crash-safe per-chunk checkpointing on.
//
// Chunk is the colstore chunk type, following the Source = colstore
// alias: streaming callers already hold colstore chunks.
//
// A SourceScan is not safe for concurrent use.
type SourceScan struct {
	m *Model
	s *core.SourceScan
}

// NewSourceScan starts a resumable scan of the named table.
func (m *Model) NewSourceScan(name string) *SourceScan {
	return &SourceScan{m: m, s: m.predictor().NewSourceScan(name)}
}

// LoadSourceScan resumes a scan serialized by SourceScan.Save. Torn or
// corrupt state is a hard error, never a partial resume.
func (m *Model) LoadSourceScan(r io.Reader) (*SourceScan, error) {
	s, err := m.predictor().LoadSourceScan(r)
	if err != nil {
		return nil, err
	}
	return &SourceScan{m: m, s: s}, nil
}

// Fold folds one chunk into the scan; detection runs once, in Finish.
func (s *SourceScan) Fold(c *colstore.Chunk) { s.s.Fold(c) }

// SkipDegraded consumes chunk c without folding it, for chunks the
// caller had to drop. The chunk still counts as scanned.
func (s *SourceScan) SkipDegraded(c *colstore.Chunk) { s.s.SkipDegraded(c) }

// Pos returns the number of stream positions consumed (folded plus
// degraded). A resuming caller skips exactly Pos chunks of the reopened
// source before folding again.
func (s *SourceScan) Pos() int { return s.s.Pos() }

// Degraded returns how many chunks were skipped as degraded.
func (s *SourceScan) Degraded() int { return s.s.Degraded() }

// Rows returns the number of source rows folded so far.
func (s *SourceScan) Rows() int { return s.s.Rows() }

// Save serializes the scan state as one atomic frame.
func (s *SourceScan) Save(w io.Writer) error { return s.s.Save(w) }

// Finish scores the folded rows once, as DetectAll scores a table, and
// returns the ranked findings with exactly DetectSource's
// post-processing (FDR filtering, public classes), so a chunk-at-a-time
// scan is byte-identical to one DetectSource call. schema names the
// columns of an empty stream.
func (s *SourceScan) Finish(schema []string) ([]Finding, error) {
	fs, err := s.s.Finish(schema)
	if err != nil {
		return nil, err
	}
	return s.m.publicFindings(fs), nil
}
