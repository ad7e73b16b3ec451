// Package jobstore is the daemon's crash-safe async job queue: a large
// upload is spooled to disk, a job id returns immediately, and a
// bounded worker pool scans the spool chunk-at-a-time with the
// resumable SourceScan, checkpointing the whole scan state after every
// chunk. A killed daemon reopens the store, re-enqueues the jobs it
// finds mid-flight, verifies the saved position against the chunk
// fingerprints of the reopened spool (the PR-9 .ucol fingerprints,
// recomputed for CSV/NDJSON spools), and continues — the finished
// findings are byte-identical to an uninterrupted run, the serving-tier
// analogue of checkpointed training's kill→resume contract.
package jobstore

import (
	"bytes"
	"context"
	"encoding/binary"
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

// stateMagic heads a scan checkpoint file: a rolling fingerprint of the
// chunks consumed so far, then the serialized SourceScan frame.
var stateMagic = []byte("UNIDETECT-JOBS\x01")

// State is a job's lifecycle position. queued and running survive a
// crash (the job resumes); done, failed and degraded are terminal.
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
// spooled input. Progress truth lives in the scan checkpoint; the
// record carries identity and the terminal outcome.
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
	// ChunkRows is the scan chunk geometry (0 = colstore default). It
	// must stay stable across restarts for checkpoints to resume.
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
		resumes:   reg.Counter("unidetect_jobs_resumes_total", "jobs resumed from an on-disk checkpoint"),
		running:   reg.Gauge("unidetect_jobs_running", "jobs currently being scanned"),
	}
}

// job is a Record plus its queue bookkeeping.
type job struct {
	rec Record
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
// finishes its current chunk, checkpoints, and is left running on disk
// for the next Open to resume.
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
func (s *Store) statePath(id string) string { return filepath.Join(s.cfg.Dir, id, "scan.state") }
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

// runJob scans one job to a terminal state, checkpointing every chunk.
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

	scan, roll, err := s.resumeOrStart(model, rec, &src)
	if err != nil {
		s.fail(rec, err)
		return
	}

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
		roll = rollChunk(roll, c)
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
		if err := s.checkpoint(rec.ID, scan, roll); err != nil {
			s.fail(rec, err)
			return
		}
		if s.cfg.ChunkDelay > 0 {
			time.Sleep(s.cfg.ChunkDelay)
		}
		if s.closing() {
			// Leave the job running on disk; the next Open resumes it
			// from this checkpoint.
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
	_ = os.Remove(s.statePath(rec.ID)) // checkpoint is spent
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

// rollChunk folds one chunk's column fingerprints into the rolling
// progress fingerprint — the same per-chunk fingerprints the .ucol
// format stamps into its frames.
func rollChunk(roll [2]uint64, c *colstore.Chunk) [2]uint64 {
	for j := 0; j < c.NumCols(); j++ {
		h1, h2 := c.Col(j).Fingerprint()
		roll[0] = roll[0]*0x100000001b3 ^ h1
		roll[1] = roll[1]*0x100000001b3 ^ h2
	}
	return roll
}

// resumeOrStart loads the job's checkpoint if one exists and still
// matches the spool. On any mismatch — torn state, changed input, a
// spool shorter than the saved position — the scan restarts from zero;
// a checkpoint that cannot be trusted must never resume into garbage.
// The source is reopened (via the pointer) when a bad resume consumed
// positions from it.
func (s *Store) resumeOrStart(model *unidetect.Model, rec Record, src *colstore.Source) (*unidetect.SourceScan, [2]uint64, error) {
	fresh := func() (*unidetect.SourceScan, [2]uint64, error) {
		return model.NewSourceScan(rec.Name), [2]uint64{}, nil
	}
	data, err := os.ReadFile(s.statePath(rec.ID))
	if err != nil {
		return fresh()
	}
	scan, want, ok := decodeState(model, data)
	if !ok {
		s.logf("jobstore: %s checkpoint unreadable; restarting scan", rec.ID)
		return fresh()
	}
	// Replay the consumed prefix of the spool, recomputing the rolling
	// fingerprint; only an exact match resumes.
	var roll [2]uint64
	for i := 0; i < scan.Pos(); i++ {
		c, err := (*src).Next()
		if err != nil {
			s.logf("jobstore: %s spool shorter than checkpoint; restarting scan", rec.ID)
			return s.restart(rec, src)
		}
		roll = rollChunk(roll, c)
	}
	if roll != want {
		s.logf("jobstore: %s spool fingerprint mismatch; restarting scan", rec.ID)
		return s.restart(rec, src)
	}
	s.logf("jobstore: %s resuming at chunk %d", rec.ID, scan.Pos())
	return scan, roll, nil
}

// restart reopens the spool from the top for a from-zero scan after a
// failed resume.
func (s *Store) restart(rec Record, src *colstore.Source) (*unidetect.SourceScan, [2]uint64, error) {
	_ = (*src).Close()
	reopened, err := s.openInput(rec)
	if err != nil {
		return nil, [2]uint64{}, err
	}
	*src = reopened
	model := s.cfg.Model()
	return model.NewSourceScan(rec.Name), [2]uint64{}, nil
}

// checkpoint atomically persists the scan state plus the rolling
// fingerprint of everything consumed so far.
func (s *Store) checkpoint(id string, scan *unidetect.SourceScan, roll [2]uint64) error {
	var buf bytes.Buffer
	buf.Write(stateMagic)
	var fp [16]byte
	binary.BigEndian.PutUint64(fp[:8], roll[0])
	binary.BigEndian.PutUint64(fp[8:], roll[1])
	buf.Write(fp[:])
	if err := scan.Save(&buf); err != nil {
		return fmt.Errorf("jobstore: encode checkpoint: %w", err)
	}
	path := s.statePath(id)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("jobstore: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("jobstore: commit checkpoint: %w", err)
	}
	return nil
}

// decodeState parses a checkpoint file; ok=false means restart.
func decodeState(model *unidetect.Model, data []byte) (*unidetect.SourceScan, [2]uint64, bool) {
	if len(data) < len(stateMagic)+16 || !bytes.Equal(data[:len(stateMagic)], stateMagic) {
		return nil, [2]uint64{}, false
	}
	rest := data[len(stateMagic):]
	var roll [2]uint64
	roll[0] = binary.BigEndian.Uint64(rest[:8])
	roll[1] = binary.BigEndian.Uint64(rest[8:16])
	scan, err := model.LoadSourceScan(bytes.NewReader(rest[16:]))
	if err != nil {
		return nil, [2]uint64{}, false
	}
	return scan, roll, true
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
// function of the findings, which is what makes resume byte-identity
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
