package jobstore

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/faultinject"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/table"
)

var (
	modelOnce sync.Once
	model     *unidetect.Model
)

// testModel trains one small shared model; jobs only need findings to
// exist, not to be plentiful.
func testModel(t testing.TB) *unidetect.Model {
	modelOnce.Do(func() {
		bg := unidetect.SyntheticCorpus(unidetect.WebProfile, 900, 19)
		m, err := unidetect.Train(context.Background(), bg, nil)
		if err != nil {
			t.Fatalf("train: %v", err)
		}
		model = m
	})
	return model
}

// errorTable generates one error-injected table named "upload".
func errorTable(rows int, seed int64) *table.Table {
	return datagen.Generate(datagen.Spec{Name: "upload", Profile: datagen.ProfileWeb,
		NumTables: 1, AvgRows: float64(rows), AvgCols: 5, ErrorRate: 2, Seed: seed}).Tables[0]
}

// errorCSV renders an error-injected generated table as CSV.
func errorCSV(t testing.TB, rows int, seed int64) []byte {
	t.Helper()
	return tableCSV(t, errorTable(rows, seed))
}

func tableCSV(t testing.TB, tab *table.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	hdr := make([]string, tab.NumCols())
	for j, c := range tab.Columns {
		hdr[j] = c.Name
	}
	if err := w.Write(hdr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tab.NumRows(); i++ {
		if err := w.Write(tab.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func openStore(t *testing.T, dir string, mutate func(*Config)) *Store {
	t.Helper()
	cfg := Config{
		Dir:       dir,
		Workers:   2,
		ChunkRows: 32,
		Model:     func() *unidetect.Model { return testModel(t) },
		Logf:      t.Logf,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func waitTerminal(t *testing.T, s *Store, tenant, id string) Record {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		rec, ok := s.Get(tenant, id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if rec.State.Terminal() {
			return rec
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return Record{}
}

func readFindings(t *testing.T, s *Store, tenant, id string) []findingWire {
	t.Helper()
	rc, err := s.Findings(tenant, id)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	var out []findingWire
	dec := json.NewDecoder(rc)
	for dec.More() {
		var f findingWire
		if err := dec.Decode(&f); err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

// toWire projects sync-path findings onto the NDJSON wire shape so
// they compare exactly against a job's streamed lines.
func toWire(fs []unidetect.Finding) []findingWire {
	var out []findingWire
	for _, f := range fs {
		out = append(out, findingWire{
			Class: f.Class.String(), Table: f.Table, Column: f.Column,
			Rows: f.Rows, Values: f.Values, Score: f.Score, Detail: f.Detail,
		})
	}
	return out
}

// TestJobMatchesDetectSource: an async job's findings must be exactly
// what a sync DetectSource over the same upload yields.
func TestJobMatchesDetectSource(t *testing.T) {
	body := errorCSV(t, 300, 11)
	s := openStore(t, t.TempDir(), nil)
	rec, err := s.Submit("acme", "upload", "csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, "acme", rec.ID)
	if final.State != StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	got := readFindings(t, s, "acme", rec.ID)

	src, err := colstore.NewCSVSource("upload", bytes.NewReader(body), colstore.Options{ChunkRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	want, err := testModel(t).DetectSource(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("sync scan found nothing; test has no power")
	}
	if !reflect.DeepEqual(got, toWire(want)) {
		t.Fatalf("async job diverged from DetectSource:\n got %+v\nwant %+v", got, toWire(want))
	}
	if final.Findings != len(want) || final.Rows == 0 {
		t.Fatalf("record says %d findings / %d rows, want %d findings", final.Findings, final.Rows, len(want))
	}
}

// plantedCSV is errorTable(2000, 13) as CSV with one error planted that
// whole-table detection finds: datagen's own injections in this table
// go unflagged, so a Year scaled ×1000 gives the park tests findings to
// compare.
func plantedCSV(t *testing.T) []byte {
	t.Helper()
	tab := errorTable(2000, 13)
	tab.Column("Year").Values[200] += "000"
	return tableCSV(t, tab)
}

// spoolChunks counts the 32-row chunks and chunk bytes of a CSV spool.
func spoolChunks(t *testing.T, body []byte) (chunks, size int) {
	t.Helper()
	src, err := colstore.NewCSVSource("upload", bytes.NewReader(body), colstore.Options{ChunkRows: 32})
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := src.Next()
		if err == io.EOF {
			return chunks, size
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks++
		size += c.Bytes()
	}
}

// parkMidScan submits body to a one-worker store on cfg, throttled so
// Close lands mid-scan, and closes the store once the job has folded at
// least folded chunks. It returns the parked job's id, and skips t if
// the job finished before the store closed.
func parkMidScan(t *testing.T, cfg Config, body []byte, folded int64) string {
	t.Helper()
	cfg.Workers, cfg.ChunkDelay, cfg.Obs = 1, 3*time.Millisecond, obs.NewRegistry()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close) // joins the worker if the wait below fails
	rec, err := s.Submit("acme", "upload", "csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.m.chunks.Value() < folded {
		if time.Now().After(deadline) {
			t.Fatalf("job folded %d chunks in 30s, want %d", s.m.chunks.Value(), folded)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	if got, _ := s.Get("acme", rec.ID); got.State.Terminal() {
		t.Skip("job finished before the store closed; park window missed")
	}
	return rec.ID
}

// finishParked reopens a store on cfg, unthrottled, and waits for the
// parked job id to finish.
func finishParked(t *testing.T, cfg Config, id string) (*Store, Record) {
	t.Helper()
	cfg.Workers, cfg.ChunkDelay, cfg.Obs = 1, 0, obs.NewRegistry()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, waitTerminal(t, s, "acme", id)
}

// runUninterrupted runs body to completion on a fresh store and
// returns the finished record and findings bytes.
func runUninterrupted(t *testing.T, body []byte, mutate func(*Config)) (Record, []byte) {
	t.Helper()
	s := openStore(t, t.TempDir(), mutate)
	rec, err := s.Submit("acme", "upload", "csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, "acme", rec.ID)
	findings, err := os.ReadFile(s.findingsPath(rec.ID))
	if err != nil {
		t.Fatalf("control job finished %s (%s): %v", final.State, final.Error, err)
	}
	return final, findings
}

// TestParkResumeByteIdentical is the store-level restart contract: a
// store closed mid-job parks it, a fresh Open runs it again from the
// top of its spool, and the finished findings file is byte-identical to
// an uninterrupted run's.
func TestParkResumeByteIdentical(t *testing.T) {
	body := plantedCSV(t)
	ctrl, want := runUninterrupted(t, body, nil)
	if ctrl.State != StateDone {
		t.Fatalf("control job finished %s", ctrl.State)
	}
	if len(want) == 0 {
		t.Fatal("control run found nothing; test has no power")
	}

	cfg := Config{
		Dir: t.TempDir(), ChunkRows: 32,
		Model: func() *unidetect.Model { return testModel(t) },
		Logf:  t.Logf,
	}
	id := parkMidScan(t, cfg, body, 1)
	s2, final := finishParked(t, cfg, id)
	if final.State != StateDone {
		t.Fatalf("restarted job finished %s (%s)", final.State, final.Error)
	}
	got, err := os.ReadFile(s2.findingsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restarted findings differ from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
	// The reopened store folded the whole spool: the job restarted from
	// chunk 0 rather than resuming where it was parked.
	chunks, _ := spoolChunks(t, body)
	if folded := s2.m.chunks.Value(); folded != int64(chunks) || final.Chunks != chunks {
		t.Fatalf("reopened store folded %d chunks and recorded %d, the spool has %d", folded, final.Chunks, chunks)
	}
}

// TestRestartDegradesLikeUninterrupted: a restarted process counts
// fault ordinals from zero, so under a seeded chunk-fault schedule a
// job parked past the faulted chunk and run again by a fresh injector
// must degrade exactly the chunks an uninterrupted run degrades.
func TestRestartDegradesLikeUninterrupted(t *testing.T) {
	schedule := func() *faultinject.Injector {
		return faultinject.New(1, faultinject.Rule{
			Site: "jobstore/chunk", Hits: []int{2},
			Fault: faultinject.Fault{Err: errors.New("chunk dropped")},
		})
	}
	body := plantedCSV(t)
	ctrl, want := runUninterrupted(t, body, func(c *Config) { c.Inject = schedule() })
	if ctrl.State != StateDegraded || ctrl.Degraded != 1 {
		t.Fatalf("control job finished %s with %d degraded chunks, want degraded/1", ctrl.State, ctrl.Degraded)
	}
	if len(want) == 0 {
		t.Fatal("control run found nothing; test has no power")
	}

	cfg := Config{
		Dir: t.TempDir(), ChunkRows: 32, Inject: schedule(),
		Model: func() *unidetect.Model { return testModel(t) },
		Logf:  t.Logf,
	}
	id := parkMidScan(t, cfg, body, 4)
	cfg.Inject = schedule() // a restarted process starts a fresh injector
	s2, final := finishParked(t, cfg, id)
	if final.State != ctrl.State || final.Degraded != ctrl.Degraded || final.Rows != ctrl.Rows || final.Chunks != ctrl.Chunks {
		t.Fatalf("restarted job finished %s with %d degraded of %d chunks and %d rows; uninterrupted: %s with %d of %d and %d",
			final.State, final.Degraded, final.Chunks, final.Rows, ctrl.State, ctrl.Degraded, ctrl.Chunks, ctrl.Rows)
	}
	got, err := os.ReadFile(s2.findingsPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restarted findings differ from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestJobWritesNoScanState: a job's directory holds its spool and
// record while it runs or is parked, and only those plus the findings
// once it is done.
func TestJobWritesNoScanState(t *testing.T) {
	cfg := Config{
		Dir: t.TempDir(), ChunkRows: 32,
		Model: func() *unidetect.Model { return testModel(t) },
		Logf:  t.Logf,
	}
	id := parkMidScan(t, cfg, plantedCSV(t), 1)
	files := func() []string {
		ents, err := os.ReadDir(filepath.Join(cfg.Dir, id))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		return names
	}
	if got, want := files(), []string{"input.csv", "record.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("parked job dir holds %v, want %v", got, want)
	}
	s2, final := finishParked(t, cfg, id)
	if final.State != StateDone {
		t.Fatalf("restarted job finished %s (%s)", final.State, final.Error)
	}
	s2.Close() // the terminal record is published before it is written
	if got, want := files(), []string{"findings.ndjson", "input.csv", "record.json"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("finished job dir holds %v, want %v", got, want)
	}
}

// TestTenantScoping: a job is invisible to every other tenant.
func TestTenantScoping(t *testing.T) {
	s := openStore(t, t.TempDir(), nil)
	rec, err := s.Submit("acme", "upload", "csv", bytes.NewReader(errorCSV(t, 60, 19)))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("globex", rec.ID); ok {
		t.Fatal("another tenant's Get saw the job")
	}
	if _, err := s.Findings("globex", rec.ID); err == nil {
		t.Fatal("another tenant's Findings opened the job")
	}
	waitTerminal(t, s, "acme", rec.ID)
	if _, ok := s.Get("globex", rec.ID); ok {
		t.Fatal("another tenant's Get saw the finished job")
	}
}

// TestInjectedChunkFaultDegrades: a chunk fault drops that chunk and
// the job lands degraded, mirroring the sync scan's chaos semantics —
// including its scan counters, which count the dropped chunk as scanned
// and as degraded.
func TestInjectedChunkFaultDegrades(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Site: "jobstore/chunk", Hits: []int{2},
		Fault: faultinject.Fault{Err: errors.New("chunk dropped")},
	})
	// A copy of the shared model whose predictor reports to scanReg.
	var saved bytes.Buffer
	if err := testModel(t).Save(&saved); err != nil {
		t.Fatal(err)
	}
	scanReg := obs.NewRegistry()
	m, err := unidetect.Load(&saved, &unidetect.Options{Obs: scanReg})
	if err != nil {
		t.Fatal(err)
	}
	s := openStore(t, t.TempDir(), func(c *Config) {
		c.Inject = inj
		c.Obs = obs.NewRegistry()
		c.Model = func() *unidetect.Model { return m }
	})
	body := errorCSV(t, 300, 23)
	rec, err := s.Submit("acme", "upload", "csv", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, "acme", rec.ID)
	if final.State != StateDegraded || final.Degraded != 1 {
		t.Fatalf("job finished %s with %d degraded chunks, want degraded/1", final.State, final.Degraded)
	}
	chunks, size := spoolChunks(t, body)
	var prom strings.Builder
	if err := scanReg.WritePromText(&prom); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseProm(prom.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		name string
		n    int
	}{
		{"unidetect_scan_chunks_total", chunks},
		{"unidetect_scan_bytes_total", size},
		{"unidetect_scan_degraded_chunks_total", 1},
	} {
		if s, ok := obs.Sample(fams, want.name, nil); !ok || s.Value != float64(want.n) {
			t.Errorf("%s = %v (present %v), want %d", want.name, s.Value, ok, want.n)
		}
	}
	if final.Chunks != chunks {
		t.Errorf("job consumed %d chunks, the source has %d", final.Chunks, chunks)
	}
	if rc, err := s.Findings("acme", rec.ID); err != nil {
		t.Fatalf("degraded job findings unreadable: %v", err)
	} else {
		rc.Close()
	}
	if v := s.m.finished.With(string(StateDegraded)).Value(); v != 1 {
		t.Fatalf("finished{degraded} = %d, want 1", v)
	}
}

// TestInjectedStartFaultFails: a fault on the start transition fails
// the job with the injected error recorded.
func TestInjectedStartFaultFails(t *testing.T) {
	inj := faultinject.New(1, faultinject.Rule{
		Site: "jobstore/start", Hits: []int{1},
		Fault: faultinject.Fault{Err: errors.New("start refused")},
	})
	s := openStore(t, t.TempDir(), func(c *Config) { c.Inject = inj })
	rec, err := s.Submit("acme", "upload", "csv", bytes.NewReader(errorCSV(t, 60, 29)))
	if err != nil {
		t.Fatal(err)
	}
	final := waitTerminal(t, s, "acme", rec.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("job finished %s (%q), want failed with error", final.State, final.Error)
	}
	if _, err := s.Findings("acme", rec.ID); err == nil {
		t.Fatal("failed job served findings")
	}
}

func TestSubmitRejectsBadInput(t *testing.T) {
	s := openStore(t, t.TempDir(), nil)
	if _, err := s.Submit("acme", "u", "parquet", bytes.NewReader(nil)); err == nil {
		t.Fatal("unknown format accepted")
	}
	s.Close()
	if _, err := s.Submit("acme", "u", "csv", bytes.NewReader(nil)); err == nil {
		t.Fatal("closed store accepted a job")
	}
}

// TestRecoverSkipsGarbageDirs: stray files and unreadable job dirs in
// the spool must not prevent the store from opening.
func TestRecoverSkipsGarbageDirs(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "job-000001"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-000001", "record.json"), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, nil)
	// The unreadable job is skipped, and new ids never collide with it.
	rec, err := s.Submit("acme", "upload", "csv", bytes.NewReader(errorCSV(t, 60, 31)))
	if err != nil {
		t.Fatal(err)
	}
	if rec.ID == "job-000001" {
		t.Fatal("new job reused a garbage dir id")
	}
	waitTerminal(t, s, "acme", rec.ID)
}
