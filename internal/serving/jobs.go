package serving

// jobs.go implements the async job tier's HTTP surface. POST /v1/jobs
// spools the upload and answers 202 with a job id immediately — the
// scan happens on the job store's worker pool, so a huge table never
// pins a request slot for its whole scan, and a killed daemon runs the
// job again from its spool on restart. GET /v1/jobs/{id} reports
// the job as NDJSON: status lines while queued/running/failed, the
// findings stream plus a terminal summary line once done or degraded.
// Jobs are tenant-scoped end to end: another tenant's id is a 404.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/unidetect/unidetect/internal/jobstore"
)

// jobStatusJSON is the one-line NDJSON status GET emits for jobs that
// have no findings stream yet (and the 202 body of a submission).
type jobStatusJSON struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Chunks   int    `json:"chunks,omitempty"`
	Degraded int    `json:"degraded,omitempty"`
	Rows     int    `json:"rows,omitempty"`
	Findings int    `json:"findings,omitempty"`
}

func statusJSON(rec jobstore.Record) jobStatusJSON {
	return jobStatusJSON{
		ID: rec.ID, State: string(rec.State), Error: rec.Error,
		Chunks: rec.Chunks, Degraded: rec.Degraded,
		Rows: rec.Rows, Findings: rec.Findings,
	}
}

// jobFormat maps an upload's Content-Type to a job store format.
// CSV is the default, matching the sync endpoints.
func jobFormat(contentType string) (string, bool) {
	mt, _, _ := strings.Cut(contentType, ";")
	switch strings.TrimSpace(mt) {
	case "", "text/csv", "application/csv":
		return "csv", true
	case "application/x-ndjson", "application/jsonl":
		return "ndjson", true
	case "application/x-ucol":
		return "ucol", true
	}
	return "", false
}

// handleJobSubmit serves POST /v1/jobs: spool, enqueue, 202.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a CSV, NDJSON or ucol body", http.StatusMethodNotAllowed)
		return
	}
	format, ok := jobFormat(r.Header.Get("Content-Type"))
	if !ok {
		http.Error(w, "unsupported content type for jobs (want CSV, NDJSON or ucol)", http.StatusUnsupportedMediaType)
		return
	}
	name := r.URL.Query().Get("name")
	if name == "" {
		name = "upload"
	}
	tenant := requestTenant(r)
	body := http.MaxBytesReader(w, r.Body, s.jobBodyCap(tenant.MaxBody))
	rec, err := s.jobs.Submit(tenant.ID, name, format, body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "job submission failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	s.writeNDJSON(w, statusJSON(rec))
}

// jobBodyCap is the async upload limit: the tenant override scaled the
// same 4× the server-wide cap is, else the configured job cap.
func (s *Server) jobBodyCap(tenantMax int64) int64 {
	if tenantMax > 0 {
		return 4 * tenantMax
	}
	return s.cfg.MaxJobBody
}

// handleJobGet serves GET /v1/jobs/{id} as NDJSON.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET a job id", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "want /v1/jobs/{id}", http.StatusBadRequest)
		return
	}
	tenant := requestTenant(r)
	rec, ok := s.jobs.Get(tenant.ID, id)
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if rec.State != jobstore.StateDone && rec.State != jobstore.StateDegraded {
		// queued / running / failed: one status line is the whole reply.
		s.writeNDJSON(w, statusJSON(rec))
		return
	}
	// done / degraded: the findings stream, then the terminal summary
	// line — a reader knows the stream is complete exactly when it sees
	// a line with a "state" field.
	findings, err := s.jobs.Findings(tenant.ID, id)
	if err != nil {
		http.Error(w, "findings unavailable: "+err.Error(), http.StatusInternalServerError)
		return
	}
	defer findings.Close()
	if _, err := io.Copy(w, findings); err != nil {
		s.logf("unidetectd: stream job %s findings: %v", id, err)
		return
	}
	s.writeNDJSON(w, statusJSON(rec))
}

// writeNDJSON writes one JSON line. Unlike writeJSON it does not set
// Content-Length — NDJSON replies stream.
func (s *Server) writeNDJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.logf("unidetectd: encode ndjson line: %v", err)
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		s.logf("unidetectd: write ndjson line: %v", err)
	}
}
