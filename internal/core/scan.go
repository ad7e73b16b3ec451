package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"

	"github.com/unidetect/unidetect/internal/colstore"
)

// This file implements SourceScan, the one streaming driver: per-chunk
// scoring plus the end-of-stream sketch pass, driven one chunk at a time
// by the caller, with the whole intermediate state serializable between
// chunks. DetectSource is a loop over it. The async job store
// checkpoints a SourceScan after every chunk, so a killed daemon reloads
// the state, skips the chunks already consumed, and finishes with
// findings identical to an uninterrupted scan — the per-chunk analogue
// of the training checkpoint's kill→resume contract.

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
// chunk stream gets the findings DetectSource returns.
//
// A SourceScan is not safe for concurrent use; each scan belongs to one
// worker.
type SourceScan struct {
	p        *Predictor
	name     string
	sk       sourceSketch
	st       scoreState
	pos      int // stream positions consumed: folded + degraded chunks
	degraded int
}

// NewSourceScan starts a resumable scan of the named table.
func (p *Predictor) NewSourceScan(name string) *SourceScan {
	p.metrics().tables.Inc()
	s := &SourceScan{p: p, name: name}
	s.st.reset()
	return s
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

// Fold scores one chunk's columns and folds it into the end-of-stream
// sketch. The scorer is picked here: the kernel over cached per-column
// measurements, or referenceScore under Predictor.Reference.
//
// alloc-budget: 1 the chunk's one-segment row map, which score does not retain
func (s *SourceScan) Fold(c *colstore.Chunk) {
	p := s.p
	start := p.Obs.Now()
	s.consume(c)
	s.sk.fold(c)
	ct := c.Table(s.name)
	rm := rowMap{{start: 0, base: c.Base}}
	sc := p.getScratch()
	for _, det := range p.Detectors {
		cmr, ok := det.(ColumnMeasurer)
		switch {
		case !ok:
		case p.Reference:
			p.referenceScore(&s.st, ct, det, rm)
		default:
			for pos := range ct.Columns {
				p.score(&s.st, ct.Name, det, p.measureColumn(cmr, ct, pos, sc), rm)
			}
		}
	}
	p.scratches.Put(sc)
	p.metrics().scanChunkSeconds.Observe((p.Obs.Now() - start).Seconds())
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

// Finish runs the table-level detectors over the materialized sketch
// and returns the stream's findings in first-seen dedup order
// (unsorted). schema names the columns of an empty stream (sources
// report it even before the first chunk). The scan must not be folded
// into after Finish.
func (s *SourceScan) Finish(schema []string) ([]Finding, error) {
	p := s.p
	tbl, err := s.sk.materialize(s.name, schema)
	if err != nil {
		return nil, err
	}
	for _, det := range p.Detectors {
		_, ok := det.(ColumnMeasurer)
		switch {
		case ok:
		case p.Reference:
			p.referenceScore(&s.st, tbl, det, s.sk.segs)
		default:
			p.score(&s.st, tbl.Name, det, p.measureTable(det, tbl), s.sk.segs)
		}
	}
	return s.st.findings(), nil
}

// scanWire is the serialized form of a SourceScan: the dictionary-
// encoded sketch (dictionaries are rebuilt from the value tables on
// load) plus the dedup score state. Everything is gob-friendly by
// construction — Finding holds only plain values.
type scanWire struct {
	Name     string
	Pos      int
	Degraded int

	// Sketch.
	Cols []string
	Vals [][]string
	IDs  [][]uint32
	Segs []scanWireSeg
	Rows int

	// Score state.
	Order []string
	Best  map[string]Finding
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
		Order:    s.st.order,
		Best:     s.st.best,
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
	if len(wire.Order) != len(wire.Best) {
		return nil, fmt.Errorf("core: scan state order/best mismatch (%d keys, %d findings)",
			len(wire.Order), len(wire.Best))
	}
	for _, k := range wire.Order {
		if _, ok := wire.Best[k]; !ok {
			return nil, fmt.Errorf("core: scan state order key missing from findings")
		}
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
	s.st.reset()
	for k, f := range wire.Best {
		s.st.best[k] = f
	}
	s.st.order = wire.Order
	return s, nil
}
