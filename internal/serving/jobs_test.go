package serving

// jobs_test.go covers the async job HTTP surface: submission answers
// 202 immediately, GET streams NDJSON with a terminal summary line,
// jobs are tenant-scoped, and the body/content-type parsing never
// panics on adversarial input (FuzzJobRequest). The store's own
// crash/resume machinery is tested in internal/jobstore.

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/tenants"
)

func jobsConfig(t testing.TB) Config {
	cfg := DefaultConfig()
	cfg.JobsDir = t.TempDir()
	cfg.JobChunkRows = 8
	if tt, ok := t.(*testing.T); ok {
		cfg.Logf = tt.Logf
	}
	return cfg
}

// waitJobLine polls GET /v1/jobs/{id} until the last NDJSON line
// reports a terminal state, returning every line of the final reply.
func waitJobLine(t *testing.T, h http.Handler, id string, hdr ...string) []map[string]any {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
		for i := 0; i+1 < len(hdr); i += 2 {
			req.Header.Set(hdr[i], hdr[i+1])
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job %s status = %d: %s", id, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("job reply Content-Type = %q", ct)
		}
		var lines []map[string]any
		for _, raw := range bytes.Split(bytes.TrimSpace(rec.Body.Bytes()), []byte("\n")) {
			var m map[string]any
			if err := json.Unmarshal(raw, &m); err != nil {
				t.Fatalf("non-JSON NDJSON line %q: %v", raw, err)
			}
			lines = append(lines, m)
		}
		switch lines[len(lines)-1]["state"] {
		case "done", "degraded", "failed":
			return lines
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}

func submitJob(t *testing.T, h http.Handler, path, ct, body string, hdr ...string) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", ct)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202: %s", rec.Code, rec.Body)
	}
	var status jobStatusJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatalf("202 body %q: %v", rec.Body, err)
	}
	if status.ID == "" || status.State != "queued" {
		t.Fatalf("202 status = %+v, want a queued id", status)
	}
	return status.ID
}

// errorUploadCSV renders a generated table with injected errors as CSV.
// It has at least 100 rows, so at 8-row job chunks the job spans many
// chunks.
func errorUploadCSV(t *testing.T) string {
	t.Helper()
	tab := datagen.Generate(datagen.Spec{Name: "upload", Profile: datagen.ProfileWeb,
		NumTables: 1, AvgRows: 400, AvgCols: 5, ErrorRate: 3, Seed: 5}).Tables[0]
	if tab.NumRows() < 100 {
		t.Fatalf("upload has %d rows, want at least 100", tab.NumRows())
	}
	var sb strings.Builder
	w := csv.NewWriter(&sb)
	hdr := make([]string, tab.NumCols())
	for j, c := range tab.Columns {
		hdr[j] = c.Name
	}
	_ = w.Write(hdr)
	for i := 0; i < tab.NumRows(); i++ {
		_ = w.Write(tab.Row(i))
	}
	w.Flush()
	if err := w.Error(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestJobSubmitAndStream: the async path must land on the same
// findings the sync endpoint serves for the same table — a one-chunk
// upload and one that spans many job chunks.
func TestJobSubmitAndStream(t *testing.T) {
	h := newHandler(t, testModel(t), jobsConfig(t))
	for _, tc := range []struct{ name, body string }{
		{"one-chunk", typoCSV},
		{"many-chunks", errorUploadCSV(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(h, "/v1/detect?name=upload", tc.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("sync detect status = %d", rec.Code)
			}
			var sync detectResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &sync); err != nil {
				t.Fatal(err)
			}
			if len(sync.Findings) == 0 {
				t.Fatal("sync detect found nothing; test has no power")
			}

			id := submitJob(t, h, "/v1/jobs?name=upload", "text/csv", tc.body)
			lines := waitJobLine(t, h, id)
			last := lines[len(lines)-1]
			if last["state"] != "done" {
				t.Fatalf("terminal line = %+v, want done", last)
			}
			findings := lines[:len(lines)-1]
			if len(findings) != len(sync.Findings) {
				t.Fatalf("job streamed %d findings, sync served %d", len(findings), len(sync.Findings))
			}
			for i, line := range findings {
				raw, err := json.Marshal(line)
				if err != nil {
					t.Fatal(err)
				}
				var f findingJSON
				if err := json.Unmarshal(raw, &f); err != nil {
					t.Fatal(err)
				}
				want := sync.Findings[i]
				if f.Class != want.Class || f.Column != want.Column || !reflect.DeepEqual(f.Rows, want.Rows) || f.Score != want.Score {
					t.Fatalf("finding %d: job %+v != sync %+v", i, f, want)
				}
			}
			if int(last["findings"].(float64)) != len(findings) {
				t.Errorf("summary count %v != %d streamed lines", last["findings"], len(findings))
			}
		})
	}
}

// TestJobTenantScoped: one tenant can never read another's job — not
// even its existence.
func TestJobTenantScoped(t *testing.T) {
	reg, err := tenants.New([]tenants.Tenant{
		{ID: "alpha", KeyHash: tenants.HashKey("a-key")},
		{ID: "beta", KeyHash: tenants.HashKey("b-key")},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := jobsConfig(t)
	cfg.Tenants = reg
	h := newHandler(t, testModel(t), cfg)

	id := submitJob(t, h, "/v1/jobs", "text/csv", typoCSV, "X-API-Key", "a-key")
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs/"+id, nil)
	req.Header.Set("X-API-Key", "b-key")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("cross-tenant job read status = %d, want 404", rec.Code)
	}
	lines := waitJobLine(t, h, id, "X-API-Key", "a-key")
	if lines[len(lines)-1]["state"] != "done" {
		t.Fatalf("owner's job = %+v, want done", lines[len(lines)-1])
	}
}

func TestJobEndpointRejections(t *testing.T) {
	h := newHandler(t, testModel(t), jobsConfig(t))
	for _, tc := range []struct {
		name   string
		method string
		path   string
		ct     string
		body   string
		status int
	}{
		{"bad-content-type", http.MethodPost, "/v1/jobs", "application/pdf", "x", http.StatusUnsupportedMediaType},
		{"get-on-submit", http.MethodGet, "/v1/jobs", "", "", http.StatusMethodNotAllowed},
		{"post-on-get", http.MethodPost, "/v1/jobs/job-000001", "text/csv", "x", http.StatusMethodNotAllowed},
		{"nested-id", http.MethodGet, "/v1/jobs/a/b", "", "", http.StatusBadRequest},
		{"unknown-id", http.MethodGet, "/v1/jobs/job-999999", "", "", http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if tc.ct != "" {
				req.Header.Set("Content-Type", tc.ct)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
		})
	}
}

// TestJobRoutesAbsentWithoutDir: with no JobsDir the async tier does
// not exist — the routes 404 rather than half-working.
func TestJobRoutesAbsentWithoutDir(t *testing.T) {
	h := newHandler(t, testModel(t), DefaultConfig())
	if rec := post(h, "/v1/jobs", typoCSV); rec.Code != http.StatusNotFound {
		t.Fatalf("jobs submit without JobsDir status = %d, want 404", rec.Code)
	}
}

// FuzzJobRequest throws arbitrary bodies and content types at the
// submission endpoint: every request must be answered with 202 or a
// 4xx, an accepted job must be streamable and reach a terminal
// state, and nothing may panic.
func FuzzJobRequest(f *testing.F) {
	f.Add([]byte("A,B\nx,1\ny,2\n"), "text/csv")
	f.Add([]byte(`{"a":"x"}`+"\n"), "application/x-ndjson")
	f.Add([]byte("not a ucol file"), "application/x-ucol")
	f.Add([]byte(""), "")
	f.Add([]byte("\"unterminated"), "text/csv; charset=utf-8")
	f.Add([]byte("x"), "application/pdf")
	f.Add([]byte("A\n"+strings.Repeat("y\n", 4096)), "text/csv")

	cfg := jobsConfig(f)
	cfg.MaxBody = 1 << 10 // keep the 413 path reachable
	s, err := New(testModel(f), cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	f.Fuzz(func(t *testing.T, data []byte, ct string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(data))
		req.Header.Set("Content-Type", ct)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code == http.StatusAccepted:
			var status jobStatusJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil || status.ID == "" {
				t.Fatalf("202 with unusable body %q: %v", rec.Body, err)
			}
		case rec.Code >= 400 && rec.Code < 500:
			// fine: rejected cleanly
		default:
			t.Fatalf("submit answered %d; want 202 or 4xx: %s", rec.Code, rec.Body)
		}
	})
}
