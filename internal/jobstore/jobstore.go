// Package jobstore is the daemon's crash-safe async job queue: a large
// upload is spooled to disk, a job id returns immediately, and a
// bounded worker pool scans the spool chunk-at-a-time with SourceScan.
// A job keeps no scan state on disk. A killed or closed daemon reopens
// the store, re-enqueues the jobs it finds mid-flight, and runs each
// again from the top of its spool, which is never rewritten after
// Submit; the finished findings are byte-identical to an uninterrupted
// run. A restart costs one parse and fold of the chunks consumed before
// the interruption — what resuming from a saved position would cost
// too, since the sketch after k chunks follows from the first k.
package jobstore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/colstore"
	"github.com/unidetect/unidetect/internal/faultinject"
	"github.com/unidetect/unidetect/internal/obs"
)

// State is a job's lifecycle position. queued and running survive a
// crash (the job runs again); done, failed and degraded are terminal.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateDegraded State = "degraded" // finished, but some chunks were dropped
)

// Terminal reports whether a job in state s will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateDegraded
}

// Record is one job's durable metadata, persisted as JSON next to the
// spooled input. It carries identity and the terminal outcome; a job's
// progress is not persisted, since an interrupted job rescans its spool.
type Record struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Name     string `json:"name"`   // table name findings report
	Format   string `json:"format"` // csv | ndjson | ucol
	State    State  `json:"state"`
	Chunks   int    `json:"chunks,omitempty"`   // consumed at completion
	Degraded int    `json:"degraded,omitempty"` // chunks dropped by faults
	Rows     int    `json:"rows,omitempty"`
	Findings int    `json:"findings,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Config wires a Store.
type Config struct {
	// Dir is the job spool root; one subdirectory per job.
	Dir string
	// Workers bounds the scan worker pool; <= 0 means 2.
	Workers int
	// ChunkRows is the scan chunk geometry (0 = colstore default): it
	// sets how often a closing store can park a job, not what it finds.
	ChunkRows int
	// ChunkDelay is slept between chunks; the e2e harness uses it to
	// widen the kill window. 0 = no throttle.
	ChunkDelay time.Duration
	// Model returns the model scans run under. Called once per job
	// (re)start, so a mid-queue reload affects jobs not yet started.
	Model func() *unidetect.Model
	// Inject, when non-nil, receives a Hit on every job transition and
	// every chunk (sites "jobstore/...").
	Inject *faultinject.Injector
	// Logf, when non-nil, receives job lifecycle logs.
	Logf func(string, ...any)
	// Obs, when non-nil, receives unidetect_jobs_* metrics.
	Obs *obs.Registry
}

type metrics struct {
	submitted *obs.Counter
	finished  *obs.CounterVec
	chunks    *obs.Counter
	resumes   *obs.Counter
	running   *obs.Gauge
}

// newMetrics registers the store's series. Every unidetect_jobs_* name
// literal lives here and nowhere else.
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		submitted: reg.Counter("unidetect_jobs_submitted_total", "async jobs accepted"),
		finished:  reg.CounterVec("unidetect_jobs_finished_total", "async jobs reaching a terminal state", "state"),
		chunks:    reg.Counter("unidetect_jobs_chunks_total", "chunks folded by job workers"),
		resumes:   reg.Counter("unidetect_jobs_resumes_total", "non-terminal jobs re-queued at Open; each rescans its spool"),
		running:   reg.Gauge("unidetect_jobs_running", "jobs currently being scanned"),
	}
}

// Store is the live job queue. Safe for concurrent use.
type Store struct {
	cfg Config
	m   *metrics

	mu    sync.Mutex
	cond  *sync.Cond
	jobs  map[string]*Record
	queue []string // job ids awaiting a worker
	seq   int
	open  bool

	wg sync.WaitGroup
}

// Open loads the spool directory, re-enqueues every non-terminal job it
// finds, and starts the worker pool. The caller must Close the store to
// join the workers.
func Open(cfg Config) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobstore: Dir is required")
	}
	if cfg.Model == nil {
		return nil, fmt.Errorf("jobstore: Model provider is required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: create spool dir: %w", err)
	}
	s := &Store{cfg: cfg, m: newMetrics(cfg.Obs), jobs: map[string]*Record{}, open: true}
	s.cond = sync.NewCond(&s.mu)
	if err := s.recover(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// recover loads every job directory; non-terminal jobs re-enter the
// queue in id order so restarts process them deterministically.
func (s *Store) recover() error {
	ents, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobstore: read spool dir: %w", err)
	}
	var resumed []string
	for _, e := range ents {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "job-") {
			continue
		}
		// Bump the id sequence past every job-shaped directory, readable
		// or not, so new ids never collide with leftovers.
		var n int
		if _, err := fmt.Sscanf(e.Name(), "job-%d", &n); err == nil && n > s.seq {
			s.seq = n
		}
		rec, err := readRecord(s.recordPath(e.Name()))
		if err != nil {
			s.logf("jobstore: skipping unreadable job %s: %v", e.Name(), err)
			continue
		}
		r := rec
		s.jobs[rec.ID] = &r
		if !rec.State.Terminal() {
			resumed = append(resumed, rec.ID)
		}
	}
	sort.Strings(resumed)
	for _, id := range resumed {
		s.m.resumes.Inc()
		s.jobs[id].State = StateQueued
		s.queue = append(s.queue, id)
	}
	return nil
}

// Close stops accepting work and joins the workers. A job mid-scan
// finishes its current chunk and is left running on disk, for the next
// Open to run again from the top of its spool.
func (s *Store) Close() {
	s.mu.Lock()
	s.open = false
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Store) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Store) dir(id string) string        { return filepath.Join(s.cfg.Dir, id) }
func (s *Store) recordPath(id string) string { return filepath.Join(s.cfg.Dir, id, "record.json") }
func (s *Store) inputPath(id, format string) string {
	return filepath.Join(s.cfg.Dir, id, "input."+format)
}
func (s *Store) findingsPath(id string) string {
	return filepath.Join(s.cfg.Dir, id, "findings.ndjson")
}

// Submit spools body to disk and enqueues a scan. format must be one of
// csv, ndjson, ucol (the HTTP layer maps content types). The returned
// record is the job's initial queued state.
func (s *Store) Submit(tenant, name, format string, body io.Reader) (Record, error) {
	switch format {
	case "csv", "ndjson", "ucol":
	default:
		return Record{}, fmt.Errorf("jobstore: unsupported format %q", format)
	}
	if err := s.inject("jobstore/spool"); err != nil {
		return Record{}, err
	}
	s.mu.Lock()
	if !s.open {
		s.mu.Unlock()
		return Record{}, fmt.Errorf("jobstore: store is closed")
	}
	s.seq++
	id := fmt.Sprintf("job-%06d", s.seq)
	s.mu.Unlock()

	if err := os.MkdirAll(s.dir(id), 0o755); err != nil {
		return Record{}, fmt.Errorf("jobstore: create job dir: %w", err)
	}
	// Spool to a temp name and rename, so a crash mid-upload leaves no
	// input file and recovery discards the job as unreadable.
	spool := s.inputPath(id, format)
	tmp := spool + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return Record{}, fmt.Errorf("jobstore: spool input: %w", err)
	}
	_, err = io.Copy(f, body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(tmp)
		return Record{}, fmt.Errorf("jobstore: spool input: %w", err)
	}
	if err := os.Rename(tmp, spool); err != nil {
		return Record{}, fmt.Errorf("jobstore: commit input: %w", err)
	}

	rec := Record{ID: id, Tenant: tenant, Name: name, Format: format, State: StateQueued}
	if err := writeRecord(s.recordPath(id), rec); err != nil {
		return Record{}, err
	}
	s.m.submitted.Inc()
	s.mu.Lock()
	r := rec
	s.jobs[id] = &r
	s.queue = append(s.queue, id)
	s.cond.Signal()
	s.mu.Unlock()
	return rec, nil
}

// Get returns the live record for a tenant's job. Jobs are
// tenant-scoped: asking for another tenant's id reports not-found,
// never the record.
func (s *Store) Get(tenant, id string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	if !ok || r.Tenant != tenant {
		return Record{}, false
	}
	return *r, true
}

// Findings opens the completed findings stream for a tenant's job.
func (s *Store) Findings(tenant, id string) (io.ReadCloser, error) {
	rec, ok := s.Get(tenant, id)
	if !ok {
		return nil, fmt.Errorf("jobstore: no such job")
	}
	if rec.State != StateDone && rec.State != StateDegraded {
		return nil, fmt.Errorf("jobstore: job is %s", rec.State)
	}
	f, err := os.Open(s.findingsPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobstore: open findings: %w", err)
	}
	return f, nil
}

func (s *Store) inject(site string) error {
	if s.cfg.Inject == nil {
		return nil
	}
	return s.cfg.Inject.Hit(context.Background(), site)
}

// worker pops queued job ids until Close.
func (s *Store) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.open && len(s.queue) == 0 {
			s.cond.Wait()
		}
		if !s.open {
			s.mu.Unlock()
			return
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		s.jobs[id].State = StateRunning
		rec := *s.jobs[id]
		s.mu.Unlock()

		s.m.running.Add(1)
		s.runJob(rec)
		s.m.running.Add(-1)
	}
}

// setState publishes a transition to memory and disk. Disk errors are
// logged, not fatal: the in-memory record stays authoritative for the
// process lifetime and recovery re-runs the job at worst.
func (s *Store) setState(rec Record) {
	s.mu.Lock()
	*s.jobs[rec.ID] = rec
	s.mu.Unlock()
	if err := writeRecord(s.recordPath(rec.ID), rec); err != nil {
		s.logf("jobstore: persist %s: %v", rec.ID, err)
	}
}

func (s *Store) fail(rec Record, err error) {
	rec.State = StateFailed
	rec.Error = err.Error()
	// Count before publishing, so a reader that sees the terminal state
	// also sees it counted.
	s.m.finished.With(string(StateFailed)).Inc()
	s.setState(rec)
	s.logf("jobstore: %s failed: %v", rec.ID, err)
}

// runJob scans one job from the top of its spool to a terminal state,
// or until Close parks it.
func (s *Store) runJob(rec Record) {
	if err := s.inject("jobstore/start"); err != nil {
		s.fail(rec, err)
		return
	}
	if err := writeRecord(s.recordPath(rec.ID), rec); err != nil {
		s.fail(rec, err)
		return
	}
	model := s.cfg.Model()
	if model == nil {
		s.fail(rec, fmt.Errorf("no model available"))
		return
	}

	defer func() {
		if p := recover(); p != nil {
			s.fail(rec, fmt.Errorf("scan panicked: %v", p))
		}
	}()

	src, err := s.openInput(rec)
	if err != nil {
		s.fail(rec, err)
		return
	}
	defer src.Close()

	scan := model.NewSourceScan(rec.Name)
	rel, _ := src.(colstore.Releaser)
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.fail(rec, fmt.Errorf("read chunk %d: %w", scan.Pos(), err))
			return
		}
		if ierr := s.inject("jobstore/chunk"); ierr != nil {
			// An injected chunk fault degrades that chunk, mirroring the
			// sync scan path: its rows vanish, the stream continues.
			scan.SkipDegraded(c)
		} else {
			scan.Fold(c)
			s.m.chunks.Inc()
		}
		if rel != nil {
			rel.Release(c)
		}
		if s.cfg.ChunkDelay > 0 {
			time.Sleep(s.cfg.ChunkDelay)
		}
		if s.closing() {
			// Leave the job running on disk; the next Open runs it
			// again from the top of its spool.
			s.logf("jobstore: %s parked at chunk %d for shutdown", rec.ID, scan.Pos())
			return
		}
	}

	if err := s.inject("jobstore/finish"); err != nil {
		s.fail(rec, err)
		return
	}
	findings, err := scan.Finish(src.ColumnNames())
	if err != nil {
		s.fail(rec, err)
		return
	}
	if err := writeFindings(s.findingsPath(rec.ID), findings); err != nil {
		s.fail(rec, err)
		return
	}
	rec.Chunks = scan.Pos()
	rec.Degraded = scan.Degraded()
	rec.Rows = scan.Rows()
	rec.Findings = len(findings)
	rec.State = StateDone
	if rec.Degraded > 0 {
		rec.State = StateDegraded
	}
	s.m.finished.With(string(rec.State)).Inc()
	s.setState(rec)
	s.logf("jobstore: %s %s (%d chunks, %d findings)", rec.ID, rec.State, rec.Chunks, rec.Findings)
}

func (s *Store) closing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.open
}

func (s *Store) openInput(rec Record) (colstore.Source, error) {
	path := s.inputPath(rec.ID, rec.Format)
	opts := colstore.Options{ChunkRows: s.cfg.ChunkRows}
	switch rec.Format {
	case "csv":
		return colstore.OpenCSVFile(path, opts)
	case "ndjson":
		return colstore.OpenNDJSONFile(path, opts)
	case "ucol":
		return colstore.OpenUcolFile(path)
	}
	return nil, fmt.Errorf("jobstore: unsupported format %q", rec.Format)
}

// writeRecord persists a record via write-temp-then-rename.
func writeRecord(path string, rec Record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobstore: encode record: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("jobstore: write record: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: commit record: %w", err)
	}
	return nil
}

func readRecord(path string) (Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return Record{}, fmt.Errorf("jobstore: decode record: %w", err)
	}
	if rec.ID == "" || rec.State == "" {
		return Record{}, fmt.Errorf("jobstore: record missing id or state")
	}
	return rec, nil
}

// findingWire is one NDJSON findings line, field-compatible with the
// sync detect endpoint's JSON.
type findingWire struct {
	Class  string   `json:"class"`
	Table  string   `json:"table"`
	Column string   `json:"column"`
	Rows   []int    `json:"rows"`
	Values []string `json:"values,omitempty"`
	Score  float64  `json:"score"`
	Detail string   `json:"detail,omitempty"`
}

// writeFindings persists the finished findings as NDJSON, one finding
// per line, via write-temp-then-rename. The byte stream is a pure
// function of the findings, which is what makes restart byte-identity
// checkable end to end.
func writeFindings(path string, findings []unidetect.Finding) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range findings {
		f := &findings[i]
		// Same wire shape as the sync /v1/detect findings, so a client
		// can parse both streams with one decoder.
		if err := enc.Encode(findingWire{
			Class: f.Class.String(), Table: f.Table, Column: f.Column,
			Rows: f.Rows, Values: f.Values, Score: f.Score, Detail: f.Detail,
		}); err != nil {
			return fmt.Errorf("jobstore: encode finding: %w", err)
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("jobstore: write findings: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: commit findings: %w", err)
	}
	return nil
}
