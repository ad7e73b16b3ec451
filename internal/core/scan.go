package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/table"
)

// This file implements SourceScan, the streaming front end of the detect
// path: chunks fold into a dictionary sketch one at a time, driven by the
// caller, with the whole intermediate state serializable between chunks,
// and at end of stream the sketch decodes to a table that DetectAll's
// table path scores once. DetectSource is a loop over it. The async job
// store checkpoints a SourceScan after every chunk, so a killed daemon
// reloads the state, skips the chunks already consumed, and finishes
// with findings identical to an uninterrupted scan — the per-chunk
// analogue of the training checkpoint's kill→resume contract.

// scanMagic heads a serialized SourceScan. The trailing byte versions
// the wire layout, like the checkpoint and .ucol magics.
var scanMagic = []byte("UNIDETECT-SCAN\x01")

// scanMaxFrame bounds the state frame so a corrupt length prefix cannot
// trigger a huge allocation. Scan state holds the distinct-value
// dictionaries of the stream, so the bound is generous.
const scanMaxFrame = 256 << 20

// SourceScan is an in-progress streaming scan over one table. Fold one
// chunk at a time (or SkipDegraded one the caller had to drop), Save
// between chunks for crash safety, and Finish at end of stream.
// DetectSource runs exactly this sequence, so a caller driving the same
// chunk stream gets the findings DetectSource returns. Those are the
// findings DetectAll gives for the table of the folded rows, whatever
// the chunk size.
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

// NewSourceScan starts a resumable scan of the named table.
func (p *Predictor) NewSourceScan(name string) *SourceScan {
	return &SourceScan{p: p, name: name}
}

// Name returns the table name the scan was started with.
func (s *SourceScan) Name() string { return s.name }

// Pos returns the number of stream positions consumed so far — folded
// plus degraded chunks. A resuming caller skips exactly Pos chunks of
// the reopened source.
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

// scanWire is the serialized form of a SourceScan: the dictionary-
// encoded sketch (dictionaries are rebuilt from the value tables on
// load). Scans saved when Fold still scored chunks also carry Order and
// Best fields of per-chunk findings; gob skips fields this struct lacks,
// so such a scan resumes from its sketch alone.
type scanWire struct {
	Name     string
	Pos      int
	Degraded int

	Cols []string
	Vals [][]string
	IDs  [][]uint32
	Segs []scanWireSeg
	Rows int
}

type scanWireSeg struct {
	Start int
	Base  int
}

// Save serializes the scan as magic + one length-framed gob payload +
// an FNV-64a checksum of the payload, assembled in memory and written
// with a single Write so an interrupted writer tears at most the frame
// — which Load rejects outright (the caller persists scans via
// write-temp-then-rename, so a torn file never becomes the current
// state). The checksum is what makes single-bit corruption a hard
// error: gob alone would happily decode a flipped byte inside a string
// or count into different-but-valid state.
func (s *SourceScan) Save(w io.Writer) error {
	wire := scanWire{
		Name:     s.name,
		Pos:      s.pos,
		Degraded: s.degraded,
		Cols:     s.sk.names,
		Vals:     s.sk.vals,
		IDs:      s.sk.ids,
		Rows:     s.sk.rows,
	}
	for _, seg := range s.sk.segs {
		wire.Segs = append(wire.Segs, scanWireSeg{Start: seg.start, Base: seg.base})
	}
	var buf bytes.Buffer
	buf.Write(scanMagic)
	buf.Write(make([]byte, 4)) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return fmt.Errorf("core: encode scan state: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[len(scanMagic):len(scanMagic)+4], uint32(len(b)-len(scanMagic)-4))
	h := fnv.New64a()
	_, _ = h.Write(b[len(scanMagic)+4:])
	b = h.Sum(b)
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: write scan state: %w", err)
	}
	return nil
}

// LoadSourceScan deserializes a scan saved by Save. Torn or corrupt
// state is a hard error — a job checkpoint that cannot be trusted must
// restart the scan, never resume into garbage.
func (p *Predictor) LoadSourceScan(r io.Reader) (*SourceScan, error) {
	magic := make([]byte, len(scanMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("core: read scan magic: %w", err)
	}
	if !bytes.Equal(magic, scanMagic) {
		return nil, fmt.Errorf("core: bad scan state magic")
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("core: read scan frame length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > scanMaxFrame {
		return nil, fmt.Errorf("core: implausible scan frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("core: read scan frame: %w", err)
	}
	var sumBuf [8]byte
	if _, err := io.ReadFull(r, sumBuf[:]); err != nil {
		return nil, fmt.Errorf("core: read scan checksum: %w", err)
	}
	h := fnv.New64a()
	_, _ = h.Write(payload)
	if binary.BigEndian.Uint64(sumBuf[:]) != h.Sum64() {
		return nil, fmt.Errorf("core: scan state checksum mismatch")
	}
	var wire scanWire
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: decode scan state: %w", err)
	}
	s, err := p.restoreScan(wire)
	if err != nil {
		return nil, err
	}
	// Trailing bytes after the frame mean the file is not what Save
	// wrote; reject rather than silently ignore.
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return nil, fmt.Errorf("core: trailing bytes after scan frame")
	}
	return s, nil
}

// restoreScan validates the wire form and rebuilds the in-memory scan,
// including the interning dictionaries the wire form drops.
func (p *Predictor) restoreScan(wire scanWire) (*SourceScan, error) {
	if wire.Pos < 0 || wire.Rows < 0 || wire.Degraded < 0 || wire.Degraded > wire.Pos {
		return nil, fmt.Errorf("core: scan state counters out of range (pos=%d rows=%d degraded=%d)",
			wire.Pos, wire.Rows, wire.Degraded)
	}
	if len(wire.Vals) != len(wire.Cols) || len(wire.IDs) != len(wire.Cols) {
		return nil, fmt.Errorf("core: scan state has %d columns but %d value tables and %d id columns",
			len(wire.Cols), len(wire.Vals), len(wire.IDs))
	}
	s := &SourceScan{p: p, name: wire.Name, pos: wire.Pos, degraded: wire.Degraded}
	s.sk = sourceSketch{
		names: wire.Cols,
		vals:  wire.Vals,
		ids:   wire.IDs,
		rows:  wire.Rows,
	}
	for j := range wire.Cols {
		if len(wire.Vals[j]) == 0 || wire.Vals[j][0] != "" {
			return nil, fmt.Errorf("core: scan state column %q dictionary lacks the empty sentinel", wire.Cols[j])
		}
		if len(wire.IDs[j]) != wire.Rows {
			return nil, fmt.Errorf("core: scan state column %q has %d ids for %d rows",
				wire.Cols[j], len(wire.IDs[j]), wire.Rows)
		}
		d := make(map[string]uint32, len(wire.Vals[j]))
		for id, v := range wire.Vals[j] {
			d[v] = uint32(id)
		}
		s.sk.dicts = append(s.sk.dicts, d)
		for _, id := range wire.IDs[j] {
			if int(id) >= len(wire.Vals[j]) {
				return nil, fmt.Errorf("core: scan state column %q references value id %d of %d",
					wire.Cols[j], id, len(wire.Vals[j]))
			}
		}
	}
	for _, seg := range wire.Segs {
		if seg.Start < 0 || seg.Start > wire.Rows {
			return nil, fmt.Errorf("core: scan state segment start %d out of range", seg.Start)
		}
		s.sk.segs = append(s.sk.segs, rowSeg{start: seg.Start, base: seg.Base})
	}
	return s, nil
}
