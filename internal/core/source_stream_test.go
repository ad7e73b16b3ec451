package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/detectors"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/table"
)

// trackingSource instruments a SliceSource with residency accounting:
// Next checks a chunk out, the driver's Release checks it back in. The
// larger-than-RAM claim reduces to maxOut never exceeding one.
type trackingSource struct {
	*colstore.SliceSource
	outstanding int
	maxOut      int
	chunks      int
	bytes       int
}

func (s *trackingSource) Next() (*colstore.Chunk, error) {
	c, err := s.SliceSource.Next()
	if err != nil {
		return nil, err
	}
	s.outstanding++
	if s.outstanding > s.maxOut {
		s.maxOut = s.outstanding
	}
	s.chunks++
	s.bytes += c.Bytes()
	return c, nil
}

func (s *trackingSource) Release(*colstore.Chunk) { s.outstanding-- }

// residencyTable is a synthetic table several times the chunk budget.
func residencyTable(t *testing.T, rows int) *table.Table {
	t.Helper()
	city := make([]string, rows)
	pop := make([]string, rows)
	id := make([]string, rows)
	names := []string{"paris", "london", "berlin", "rome", "madrid", "vienna", "oslo"}
	for i := 0; i < rows; i++ {
		city[i] = names[i%len(names)]
		pop[i] = fmt.Sprintf("%d", 1000+i*37)
		id[i] = fmt.Sprintf("id-%04d", i)
	}
	tab, err := table.New("residency", table.NewColumn("city", city),
		table.NewColumn("pop", pop), table.NewColumn("id", id))
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestDetectSourceResidency streams a corpus several times the chunk
// budget through both DetectSource paths with an instrumented source:
// the driver must release every chunk before pulling the next, so at
// most one chunk per column is ever resident, the scan counters must
// account for exactly the chunks and bytes the source served, and the
// stream must count as one scored table.
func TestDetectSourceResidency(t *testing.T) {
	m, bg := trainSmall(t)
	dets := detectors.All(m.Config, detectors.Options{})
	const chunkRows = 8
	tab := residencyTable(t, 4*chunkRows*2) // 8 chunks: 4x the budget twice over

	for _, reference := range []bool{false, true} {
		t.Run(fmt.Sprintf("reference=%v", reference), func(t *testing.T) {
			p := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()})
			p.Reference = reference
			reg := obs.NewRegistry()
			p.Obs = reg
			src := &trackingSource{SliceSource: colstore.NewSliceSource(tab, colstore.Options{ChunkRows: chunkRows})}
			if _, err := p.DetectSource(context.Background(), src); err != nil {
				t.Fatal(err)
			}
			if src.chunks < 4 {
				t.Fatalf("scan pulled %d chunks; corpus must exceed 4x the chunk budget", src.chunks)
			}
			if src.maxOut != 1 {
				t.Fatalf("max outstanding chunks = %d, want 1 (chunk not released before next pull)", src.maxOut)
			}
			if src.outstanding != 0 {
				t.Fatalf("%d chunks still outstanding after the scan", src.outstanding)
			}
			if got := scanCounter(t, reg, "unidetect_scan_chunks_total"); got != float64(src.chunks) {
				t.Fatalf("unidetect_scan_chunks_total = %v, want %d", got, src.chunks)
			}
			if got := scanCounter(t, reg, "unidetect_scan_bytes_total"); got != float64(src.bytes) {
				t.Fatalf("unidetect_scan_bytes_total = %v, want %d", got, src.bytes)
			}
			// The stream is one table, scored once at end of stream.
			if got := scanCounter(t, reg, "unidetect_predict_tables_total"); got != 1 {
				t.Fatalf("unidetect_predict_tables_total = %v, want 1", got)
			}
		})
	}
}

// errorSource fails after its first chunk: driver must surface the
// source error rather than swallow it into a partial result.
type errorSource struct {
	*colstore.SliceSource
	served bool
	err    error
}

func (s *errorSource) Next() (*colstore.Chunk, error) {
	if s.served {
		return nil, s.err
	}
	s.served = true
	return s.SliceSource.Next()
}

func TestDetectSourceError(t *testing.T) {
	m, bg := trainSmall(t)
	dets := detectors.All(m.Config, detectors.Options{})
	tab := residencyTable(t, 16)
	sentinel := errors.New("disk gone")
	for _, reference := range []bool{false, true} {
		p := core.NewPredictor(m, dets, &core.Env{Index: bg.Index()})
		p.Reference = reference
		src := &errorSource{SliceSource: colstore.NewSliceSource(tab, colstore.Options{ChunkRows: 4}), err: sentinel}
		fs, err := p.DetectSource(context.Background(), src)
		if !errors.Is(err, sentinel) {
			t.Fatalf("reference=%v: err = %v, want the source's error", reference, err)
		}
		if fs != nil {
			t.Fatalf("reference=%v: got partial findings alongside the error", reference)
		}
	}
}

// scanCounter sums one counter family from the registry's exposition.
func scanCounter(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePromText(&sb); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseProm(sb.String())
	if err != nil {
		t.Fatal(err)
	}
	fam := fams[name]
	if fam == nil {
		return 0
	}
	var total float64
	for _, s := range fam.Samples {
		total += s.Value
	}
	return total
}
