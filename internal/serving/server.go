package serving

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/faultinject"
	"github.com/unidetect/unidetect/internal/jobstore"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/tenants"
)

// Config is the daemon's failure-model knobs: how long a request
// may run, how many may run at once, how large a body may be, and — for
// chaos testing — which faults to inject where.
type Config struct {
	// ReqTimeout bounds one request's handler time; the request context
	// is cancelled at the deadline so model scans stop early. 0 = none.
	ReqTimeout time.Duration
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the listener closes.
	DrainTimeout time.Duration
	// MaxInFlight bounds concurrently served requests; excess load is
	// shed with 429 + Retry-After rather than queued without bound.
	MaxInFlight int
	// MaxBody caps request body size; larger uploads get 413.
	MaxBody int64
	// RetryAfter is the Retry-After header value (seconds) on shed
	// responses.
	RetryAfter int
	// BatchWindow is how long a /v1/batch leader holds its batch open
	// for concurrent requests to coalesce into; 0 disables coalescing
	// across requests (each request scans alone).
	BatchWindow time.Duration
	// SyntheticTables is the corpus size /v1/reload trains on when the
	// reload request names no model files and no table count (0 falls
	// back to a built-in default).
	SyntheticTables int
	// Inject, when non-nil, injects faults at "unidetectd<path>" sites —
	// the serving half of the chaos harness.
	Inject *faultinject.Injector
	// Logf receives server diagnostics; nil discards them.
	Logf func(format string, args ...any)
	// Obs is the metrics registry behind /metrics and /statusz; nil
	// makes New create a private one, so accounting always works.
	Obs *obs.Registry
	// Tracer, when non-nil, records one span per protected request,
	// tagged with the chaos seed and final status.
	Tracer *obs.Tracer
	// ChaosSeed is stamped on request spans so a latency outlier can be
	// joined to the failure transcript that produced it.
	ChaosSeed int64

	// Tenants, when non-nil, turns on multi-tenant mode: every protected
	// endpoint requires an API key (Authorization: Bearer or X-API-Key)
	// resolving to a registered tenant, and per-tenant token-bucket
	// quotas answer 429 + Retry-After when exhausted. Nil serves
	// anonymously, as before.
	Tenants *tenants.Registry
	// JobsDir, when non-empty, enables the async job tier (/v1/jobs):
	// uploads spool under this directory and a worker pool scans them;
	// a job left unfinished runs again from its spool on restart.
	JobsDir string
	// JobWorkers bounds the job worker pool (0 = jobstore default).
	JobWorkers int
	// JobChunkRows is the job scan chunk geometry (0 = colstore
	// default): it sets how often a closing store can park a job, not
	// what the job finds.
	JobChunkRows int
	// JobChunkDelay throttles job scans between chunks; the e2e chaos
	// harness uses it to widen kill windows. 0 = full speed.
	JobChunkDelay time.Duration
	// MaxJobBody caps async upload size; 0 falls back to 4×MaxBody
	// (async exists precisely for bodies too big to scan in-request).
	MaxJobBody int64
}

func DefaultConfig() Config {
	return Config{
		ReqTimeout:   30 * time.Second,
		DrainTimeout: 10 * time.Second,
		MaxInFlight:  64,
		MaxBody:      32 << 20,
		RetryAfter:   1,
		BatchWindow:  2 * time.Millisecond,
	}
}

// metrics is the daemon's request accounting, resolved once from the
// registry and updated on the hot path through the cached children. The
// counters are the chaos-test oracle: after N requests under a fault
// schedule, requests must equal N and the status classes must sum to it
// — no request may vanish. /statusz and /metrics read the same
// collectors, so the two views can never disagree.
type metrics struct {
	requests  *obs.Counter
	inflight  *obs.Gauge
	status2xx *obs.Counter
	status4xx *obs.Counter
	status5xx *obs.Counter
	shed      *obs.Counter
	panics    *obs.Counter
	timeouts  *obs.Counter
	injected  *obs.CounterVec

	// /v1/batch coalescing accounting: executed batch scans, requests
	// that rode another request's scan, and tables per executed scan.
	batchGroups    *obs.Counter
	batchCoalesced *obs.Counter
	batchTables    *obs.Histogram

	// Multi-tenant accounting: authenticated requests per tenant (quota
	// rejections included — the request was attributed before being
	// refused), quota 429s per tenant, and failed authentications
	// (which have no tenant to attribute to).
	tenantRequests *obs.CounterVec
	tenantQuota    *obs.CounterVec
	authFailures   *obs.Counter

	// Hot-swap accounting: the version of the model currently serving
	// and how many successful /v1/reload swaps the process has done.
	modelVersion *obs.Gauge
	reloads      *obs.Counter
}

// newMetrics registers the daemon's metric families on r. Every
// unidetectd_* name literal lives here and nowhere else.
func newMetrics(r *obs.Registry) metrics {
	responses := r.CounterVec("unidetectd_responses_total",
		"Completed requests by status class.", "class")
	return metrics{
		requests: r.Counter("unidetectd_requests_total",
			"Requests accepted into the protection middleware, shed included."),
		inflight: r.Gauge("unidetectd_inflight",
			"Requests currently holding a concurrency slot."),
		status2xx: responses.With("2xx"),
		status4xx: responses.With("4xx"),
		status5xx: responses.With("5xx"),
		shed: r.Counter("unidetectd_shed_total",
			"Requests rejected with 429 under load (also counted as 4xx)."),
		panics: r.Counter("unidetectd_panics_total",
			"Handler panics converted to 500 responses."),
		timeouts: r.Counter("unidetectd_timeouts_total",
			"Requests whose per-request deadline expired."),
		injected: r.CounterVec("unidetectd_injected_faults_total",
			"Faults the chaos injector fired during request handling, by site.", "site"),
		batchGroups: r.Counter("unidetectd_batch_groups_total",
			"Coalesced DetectAll scans executed for /v1/batch."),
		batchCoalesced: r.Counter("unidetectd_batch_coalesced_total",
			"Batch requests that joined a scan led by a concurrent request."),
		batchTables: r.Histogram("unidetectd_batch_tables",
			"Tables per coalesced /v1/batch scan.",
			[]float64{1, 2, 4, 8, 16, 32, 64, 128}),
		modelVersion: r.Gauge("unidetectd_model_version",
			"Version of the model currently serving; increments on each successful /v1/reload."),
		reloads: r.Counter("unidetectd_reloads_total",
			"Successful /v1/reload model swaps."),
		tenantRequests: r.CounterVec("unidetectd_tenant_requests_total",
			"Authenticated requests by tenant, quota rejections included.", "tenant"),
		tenantQuota: r.CounterVec("unidetectd_tenant_quota_rejected_total",
			"Requests refused with 429 because the tenant's token bucket was empty.", "tenant"),
		authFailures: r.Counter("unidetectd_tenant_auth_failures_total",
			"Requests refused with 401 for a missing or unknown API key."),
	}
}

// statuszResponse is the /statusz reply.
type statuszResponse struct {
	Requests     int64 `json:"requests"`
	InFlight     int64 `json:"in_flight"`
	Status2xx    int64 `json:"status_2xx"`
	Status4xx    int64 `json:"status_4xx"`
	Status5xx    int64 `json:"status_5xx"`
	Shed         int64 `json:"shed"`
	Panics       int64 `json:"panics"`
	Timeouts     int64 `json:"timeouts"`
	ModelVersion int64 `json:"model_version"`
	Reloads      int64 `json:"reloads"`
}

func (m *metrics) snapshot() statuszResponse {
	return statuszResponse{
		Requests:     m.requests.Value(),
		InFlight:     m.inflight.Value(),
		Status2xx:    m.status2xx.Value(),
		Status4xx:    m.status4xx.Value(),
		Status5xx:    m.status5xx.Value(),
		Shed:         m.shed.Value(),
		Panics:       m.panics.Value(),
		Timeouts:     m.timeouts.Value(),
		ModelVersion: m.modelVersion.Value(),
		Reloads:      m.reloads.Value(),
	}
}

func (m *metrics) count(status int) {
	switch {
	case status >= 500:
		m.status5xx.Inc()
	case status >= 400:
		m.status4xx.Inc()
	default:
		m.status2xx.Inc()
	}
}

// modelHandle is one immutable (model, version) pair. The serving path
// loads the current handle once per request and uses that model for the
// request's whole lifetime, so a concurrent /v1/reload swap never
// changes a request's model mid-flight: in-flight requests finish on
// the handle they started with while new arrivals pick up the new one.
type modelHandle struct {
	model   *unidetect.Model
	version int64
}

// Server wires the model's endpoints behind the protection middleware.
type Server struct {
	handle atomic.Pointer[modelHandle] // current (model, version); swapped by /v1/reload
	cfg    Config
	reg    *obs.Registry
	m      metrics
	sem    chan struct{}   // concurrency slots; len() is the inflight gauge
	batch  *coalescer      // /v1/batch group-commit state
	jobs   *jobstore.Store // async job tier; nil unless cfg.JobsDir is set

	// reloadMu serializes /v1/reload builds: a second reload arriving
	// while one is training/loading gets 409 instead of queueing an
	// unbounded pile of model builds. It is never taken on the request
	// path.
	reloadMu sync.Mutex
}

// currentModel returns the model serving this instant. Callers use the
// returned model for at most one request, so a swap takes effect on the
// next request boundary.
func (s *Server) currentModel() *unidetect.Model {
	return s.handle.Load().model
}

// New builds a server for model. The error is the async job tier's:
// with cfg.JobsDir set, a spool that cannot be opened refuses to serve
// rather than silently dropping jobs. Callers must Close the server to
// join the job workers.
func New(model *unidetect.Model, cfg Config) (*Server, error) {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = DefaultConfig().MaxInFlight
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultConfig().MaxBody
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultConfig().RetryAfter
	}
	if cfg.MaxJobBody <= 0 {
		cfg.MaxJobBody = 4 * cfg.MaxBody
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.NewRegistry()
	}
	s := &Server{
		cfg: cfg,
		reg: cfg.Obs,
		m:   newMetrics(cfg.Obs),
		sem: make(chan struct{}, cfg.MaxInFlight),
	}
	s.handle.Store(&modelHandle{model: model, version: 1})
	s.m.modelVersion.Set(1)
	s.batch = &coalescer{handle: &s.handle, window: cfg.BatchWindow, m: &s.m}
	// Count every fault the injector fires while serving; the transcript
	// stays the source of truth, the counter is its live aggregate.
	cfg.Inject.Observe(func(ev faultinject.Event) {
		s.m.injected.With(ev.Site).Inc()
	})
	if cfg.JobsDir != "" {
		js, err := jobstore.Open(jobstore.Config{
			Dir:        cfg.JobsDir,
			Workers:    cfg.JobWorkers,
			ChunkRows:  cfg.JobChunkRows,
			ChunkDelay: cfg.JobChunkDelay,
			Model:      s.currentModel,
			Inject:     cfg.Inject,
			Logf:       cfg.Logf,
			Obs:        cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
		s.jobs = js
	}
	return s, nil
}

// Close joins the async job workers; a job mid-scan parks after its
// current chunk, and the next process runs it again from the top of its
// spool. Idempotent-enough for tests: call once.
func (s *Server) Close() {
	if s.jobs != nil {
		s.jobs.Close()
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// statusWriter records the status code a handler sent, for accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote = true
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.wrote {
		w.wrote = true
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// protect wraps a handler with the serving failure model, outermost
// first: load shedding (429 + Retry-After instead of unbounded queueing),
// a per-request deadline on the context, panic recovery (500 instead of
// a dead daemon), and a chaos injection point at "unidetectd<path>".
// Each protected request is one span, tagged with the chaos seed and the
// final status.
func (s *Server) protect(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Inc()
		sp := s.cfg.Tracer.Start("unidetectd" + r.URL.Path)
		sp.Tag("seed", s.cfg.ChaosSeed)
		sw := &statusWriter{ResponseWriter: w}
		select {
		case s.sem <- struct{}{}:
		default:
			s.m.shed.Inc()
			sw.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfter))
			http.Error(sw, "overloaded, retry later", http.StatusTooManyRequests)
			s.m.count(sw.status)
			sp.Tag("status", sw.status)
			sp.End()
			return
		}
		s.m.inflight.Add(1)
		ctx := r.Context()
		cancel := context.CancelFunc(func() {})
		if s.cfg.ReqTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.cfg.ReqTimeout)
		}
		// Multi-tenant gate: inside the concurrency slot (auth work is
		// bounded like any other request work), before the handler and
		// the chaos injection point. Quota refusals are attributed to
		// the tenant; auth failures have no tenant to attribute to.
		if s.cfg.Tenants != nil {
			grant, ok := s.cfg.Tenants.Authenticate(apiKey(r))
			if !ok {
				s.m.authFailures.Inc()
				http.Error(sw, "missing or unknown API key", http.StatusUnauthorized)
				s.finish(sw, sp, cancel, ctx)
				return
			}
			s.m.tenantRequests.With(grant.Tenant.ID).Inc()
			if ok, retry := grant.Allow(); !ok {
				s.m.tenantQuota.With(grant.Tenant.ID).Inc()
				secs := int(retry / time.Second)
				if secs < 1 {
					secs = 1
				}
				sw.Header().Set("Retry-After", strconv.Itoa(secs))
				http.Error(sw, "tenant quota exhausted, retry later", http.StatusTooManyRequests)
				s.finish(sw, sp, cancel, ctx)
				return
			}
			ctx = context.WithValue(ctx, tenantKey{}, grant.Tenant)
		}
		defer func() {
			if rec := recover(); rec != nil {
				s.m.panics.Inc()
				s.logf("unidetectd: %s %s panicked: %v", r.Method, r.URL.Path, rec)
				if !sw.wrote {
					http.Error(sw, "internal error", http.StatusInternalServerError)
				}
			}
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				s.m.timeouts.Inc()
			}
			cancel()
			s.m.count(sw.status)
			s.m.inflight.Add(-1)
			<-s.sem
			sp.Tag("status", sw.status)
			sp.End()
		}()
		if err := s.cfg.Inject.Hit(ctx, "unidetectd"+r.URL.Path); err != nil {
			http.Error(sw, "injected fault: "+err.Error(), http.StatusInternalServerError)
			return
		}
		h(sw, r.WithContext(ctx))
	}
}

// finish closes out a request the tenant gate refused before the main
// accounting defer was installed: same bookkeeping, early exit.
func (s *Server) finish(sw *statusWriter, sp *obs.Span, cancel context.CancelFunc, ctx context.Context) {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		s.m.timeouts.Inc()
	}
	cancel()
	s.m.count(sw.status)
	s.m.inflight.Add(-1)
	<-s.sem
	sp.Tag("status", sw.status)
	sp.End()
}

// tenantKey carries the authenticated tenant through the request
// context to handlers that scope work per tenant.
type tenantKey struct{}

// requestTenant returns the authenticated tenant of a request, or the
// anonymous default when the server runs without a tenant registry.
func requestTenant(r *http.Request) tenants.Tenant {
	if t, ok := r.Context().Value(tenantKey{}).(tenants.Tenant); ok {
		return t
	}
	return tenants.Tenant{ID: "default"}
}

// apiKey extracts the request's API key: Authorization: Bearer wins,
// X-API-Key is the curl-friendly fallback.
func apiKey(r *http.Request) string {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, ok := strings.CutPrefix(h, "Bearer "); ok {
			return strings.TrimSpace(key)
		}
	}
	return r.Header.Get("X-API-Key")
}

// writeJSON marshals v into a buffer first, so an encoding failure can
// still become a 500 (headers are unsent) instead of a torn 200, and
// successful replies carry Content-Length.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.logf("unidetectd: encode response: %v", err)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.logf("unidetectd: write response: %v", err)
	}
}

// bodyCap is the sync upload limit for one request: the tenant's
// MaxBody override when one is registered, the server default
// otherwise.
func (s *Server) bodyCap(r *http.Request) int64 {
	if t := requestTenant(r); t.MaxBody > 0 {
		return t.MaxBody
	}
	return s.cfg.MaxBody
}

// readTable parses the request body as a table; the table name comes
// from the ?name= query parameter (default "upload"). The body is CSV
// unless Content-Type says application/x-ndjson (or application/jsonl),
// in which case it is newline-delimited JSON — both go through the same
// streaming columnar readers the CLI uses. Oversized bodies (past
// cfg.MaxBody) get 413, malformed input gets 400.
func (s *Server) readTable(w http.ResponseWriter, r *http.Request) (*unidetect.Table, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a CSV or NDJSON body", http.StatusMethodNotAllowed)
		return nil, false
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "upload"
	}
	body := http.MaxBytesReader(w, r.Body, s.bodyCap(r))
	format := "csv"
	read := unidetect.ReadCSV
	ct := r.Header.Get("Content-Type")
	if mt, _, _ := strings.Cut(ct, ";"); strings.TrimSpace(mt) == "application/x-ndjson" || strings.TrimSpace(mt) == "application/jsonl" {
		format = "ndjson"
		read = unidetect.ReadNDJSON
	}
	tbl, err := read(name, body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return nil, false
		}
		http.Error(w, "bad "+format+": "+err.Error(), http.StatusBadRequest)
		return nil, false
	}
	if tbl.NumCols() == 0 {
		http.Error(w, "empty table", http.StatusBadRequest)
		return nil, false
	}
	return tbl, true
}

// DebugHandler serves the observability endpoints of the -debug-addr
// listener: the metrics exposition plus the standard pprof surface. It
// is a separate handler (rather than more mux routes) so profiling can
// bind to localhost while the service port faces the load balancer.
func DebugHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serve runs srv on ln until ctx is cancelled, then drains gracefully:
// the listener closes immediately (new connections are refused) while
// in-flight requests get drain to finish.
func Serve(ctx context.Context, srv *http.Server, ln net.Listener, drain time.Duration, logf func(format string, args ...any)) error {
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		if logf != nil {
			logf("unidetectd: draining (up to %v)", drain)
		}
		sctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if err := <-done; err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
