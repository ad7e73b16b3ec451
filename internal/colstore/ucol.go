package colstore

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
)

// .ucol file layout, framed like the training checkpoint: a fixed
// magic, then a framed gob header (table name + column schema), then
// one framed gob record per chunk. Each frame is [4-byte big-endian
// length][payload]; every payload is an independent gob stream, so a
// reader needs no decoder state across frames and a torn final frame
// (from a crashed or still-running writer) is detected and surfaced as
// a clean end-of-stream with Torn() set, exactly like the checkpoint
// loader's truncate-and-resume.
//
// Every column of every chunk carries its 128-bit FNV fingerprint —
// the same function the measurement-memoization cache keys on — so a
// complete-but-corrupt frame is a hard error (the bytes are wrong),
// while a missing tail is recoverable (the bytes just stopped).
var ucolMagic = []byte("UNIDETECT-UCOL\x01")

// ucolMaxFrame bounds a frame so corrupt length prefixes cannot trigger
// huge allocations.
const ucolMaxFrame = 64 << 20

// ucolHeader identifies the table a .ucol file holds.
type ucolHeader struct {
	Name    string
	Columns []string
}

// ucolColumn is one column of one chunk: the arena, its offsets, and
// the content fingerprint of (name, cells).
type ucolColumn struct {
	Offs   []uint32
	Data   []byte
	H1, H2 uint64
}

// ucolChunk is one framed chunk record.
type ucolChunk struct {
	Rows int
	Cols []ucolColumn
}

// writeUcolFrame appends one framed gob value. The frame is assembled
// in memory and written with a single Write so an interrupted writer
// tears at most the final frame.
func writeUcolFrame(w io.Writer, v any) error {
	var payload bytes.Buffer
	payload.Write(make([]byte, 4)) // length placeholder
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return fmt.Errorf("colstore: encode ucol frame: %w", err)
	}
	b := payload.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("colstore: write ucol frame: %w", err)
	}
	return nil
}

// readUcolFrame decodes one frame from r into v. It returns io.EOF at a
// clean frame boundary and errTorn-wrapped errors for torn tails;
// anything else is corruption.
var errTorn = fmt.Errorf("torn frame")

// alloc-budget: 5 one payload buffer per frame plus torn/corruption error construction
func readUcolFrame(r io.Reader, v any) error {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: %v", errTorn, err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > ucolMaxFrame {
		return fmt.Errorf("colstore: implausible ucol frame length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return fmt.Errorf("%w: %v", errTorn, err)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("colstore: decode ucol frame: %w", err)
	}
	return nil
}

// UcolWriter streams chunks into a .ucol file. The schema is fixed by
// the header; chunks must match it.
type UcolWriter struct {
	w       io.Writer
	columns []string
}

// NewUcolWriter writes the magic and header and returns a chunk writer.
func NewUcolWriter(w io.Writer, name string, columns []string) (*UcolWriter, error) {
	if _, err := w.Write(ucolMagic); err != nil {
		return nil, fmt.Errorf("colstore: write ucol magic: %w", err)
	}
	cols := append([]string(nil), columns...)
	if err := writeUcolFrame(w, ucolHeader{Name: name, Columns: cols}); err != nil {
		return nil, err
	}
	return &UcolWriter{w: w, columns: cols}, nil
}

// WriteChunk appends one chunk frame, stamping each column with its
// content fingerprint.
func (u *UcolWriter) WriteChunk(c *Chunk) error {
	if c.NumCols() != len(u.columns) {
		return fmt.Errorf("colstore: ucol chunk has %d columns, header has %d (schema widened mid-stream?)", c.NumCols(), len(u.columns))
	}
	rec := ucolChunk{Rows: c.Rows(), Cols: make([]ucolColumn, c.NumCols())}
	for j := 0; j < c.NumCols(); j++ {
		v := c.Col(j)
		h1, h2 := v.Fingerprint()
		offs := v.offs
		if len(offs) == 0 { // zero-value view: normalize to an explicit empty column
			offs = []uint32{0}
		}
		rec.Cols[j] = ucolColumn{
			Offs: offs,
			Data: []byte(v.data),
			H1:   h1,
			H2:   h2,
		}
	}
	return writeUcolFrame(u.w, rec)
}

// WriteUcol drains a source into w as a .ucol stream. Sources whose
// schema widens mid-stream (ragged CSV) cannot be converted directly;
// materialize first.
func WriteUcol(w io.Writer, src Source) error {
	uw, err := NewUcolWriter(w, src.Name(), src.ColumnNames())
	if err != nil {
		return err
	}
	for {
		c, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := uw.WriteChunk(c); err != nil {
			return err
		}
	}
}

// UcolSource streams a .ucol file chunk by chunk, verifying each
// column's fingerprint against the stored one. Chunk geometry is
// whatever the writer produced.
type UcolSource struct {
	name   string
	r      io.Reader
	closer io.Closer
	names  []string
	index  int
	base   int
	torn   bool
	err    error
}

// NewUcolSource validates the magic and header. A file whose header is
// unreadable is rejected outright — there is no schema to resume into.
func NewUcolSource(r io.Reader) (*UcolSource, error) {
	magic := make([]byte, len(ucolMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("colstore: read ucol magic: %w", err)
	}
	if !bytes.Equal(magic, ucolMagic) {
		return nil, fmt.Errorf("colstore: bad ucol magic")
	}
	var hdr ucolHeader
	if err := readUcolFrame(r, &hdr); err != nil {
		if err == io.EOF {
			err = fmt.Errorf("missing header frame")
		}
		return nil, fmt.Errorf("colstore: read ucol header: %w", err)
	}
	return &UcolSource{name: hdr.Name, r: r, names: hdr.Columns}, nil
}

// OpenUcolFile opens a .ucol file as a streaming source. The source
// owns the file handle and closes it on Close.
func OpenUcolFile(path string) (*UcolSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewUcolSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	return src, nil
}

// Name returns the table name stored in the header.
func (s *UcolSource) Name() string { return s.name }

// ColumnNames returns the schema stored in the header.
func (s *UcolSource) ColumnNames() []string {
	return append([]string(nil), s.names...)
}

// Torn reports whether the stream ended on a torn final frame (the
// delivered chunks are still complete and verified).
func (s *UcolSource) Torn() bool { return s.torn }

// Next reads, validates and fingerprint-checks one chunk frame. A torn
// tail ends the stream cleanly with Torn() set; corruption inside a
// complete frame is a hard error.
//
// alloc-budget: 8 per-chunk column views with one arena string each, plus corruption error construction
func (s *UcolSource) Next() (*Chunk, error) {
	if s.err != nil {
		return nil, s.err
	}
	var rec ucolChunk
	if err := readUcolFrame(s.r, &rec); err != nil {
		if err == io.EOF || errors.Is(err, errTorn) {
			s.torn = errors.Is(err, errTorn)
			s.err = io.EOF
			return nil, io.EOF
		}
		s.err = err
		return nil, s.err
	}
	if len(rec.Cols) != len(s.names) {
		s.err = fmt.Errorf("colstore: ucol chunk %d has %d columns, header has %d", s.index, len(rec.Cols), len(s.names))
		return nil, s.err
	}
	cols := make([]ColumnView, len(rec.Cols))
	for j := range rec.Cols {
		rc := &rec.Cols[j]
		if rec.Rows < 0 || len(rc.Offs) != rec.Rows+1 {
			s.err = fmt.Errorf("colstore: ucol chunk %d column %q: %d offsets for %d rows", s.index, s.names[j], len(rc.Offs), rec.Rows)
			return nil, s.err
		}
		v := ColumnView{name: s.names[j], data: string(rc.Data), offs: rc.Offs}
		if err := v.validate(); err != nil {
			s.err = fmt.Errorf("colstore: ucol chunk %d: %w", s.index, err)
			return nil, s.err
		}
		h1, h2 := v.Fingerprint()
		if h1 != rc.H1 || h2 != rc.H2 {
			s.err = fmt.Errorf("colstore: ucol chunk %d column %q: fingerprint mismatch (corrupt frame)", s.index, s.names[j])
			return nil, s.err
		}
		cols[j] = v
	}
	ch := NewChunk(s.index, s.base, cols)
	s.index++
	s.base += rec.Rows
	return ch, nil
}

// Close closes the underlying file, if the source owns one.
func (s *UcolSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}
