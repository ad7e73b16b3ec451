package e2e

// e2e_test.go drives the fleet. TestServingFleet is the multi-tenant
// acceptance run: three daemons behind the rendezvous router, seeded
// mixed load (sync detects + async jobs) from three tenants with
// different quota shapes, a hot /v1/reload mid-run, and a SIGKILL of
// one daemon followed by a restart that must rerun its jobs. The
// run asserts zero cross-tenant leakage and that client-side tallies
// match the /metrics exposition exactly. TestJobResumeByteIdentical
// is the crash-consistency drill, one sub-test per chaos seed: a
// killed-and-restarted scan must stream byte-identical findings to an
// uninterrupted control run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/tenants"
	"github.com/unidetect/unidetect/internal/testkit"
)

// fleetTenants is the tenant roster: one bursty-but-metered, one
// unthrottled, one tightly throttled so the 429 path sees real load.
var fleetTenants = []struct {
	id, key string
	rate    float64
	burst   int
}{
	{id: "acme", key: "acme-key-1", rate: 5, burst: 6},
	{id: "globex", key: "globex-key-2"},
	{id: "initech", key: "initech-key-3", rate: 1, burst: 3},
}

func writeTenantsFile(t *testing.T) string {
	t.Helper()
	ts := make([]tenants.Tenant, len(fleetTenants))
	for i, ft := range fleetTenants {
		ts[i] = tenants.Tenant{
			ID: ft.id, KeyHash: tenants.HashKey(ft.key),
			RatePerSec: ft.rate, Burst: ft.burst,
		}
	}
	path := filepath.Join(workDir, scratchName(t)+"-tenants.reg")
	if err := tenants.WriteFile(path, ts); err != nil {
		t.Fatal(err)
	}
	return path
}

// tenantCSV is a small tenant-tagged table with a guaranteed typo
// pair: every column name and value carries the tenant id, so any
// cross-tenant bleed is visible in the response bytes.
func tenantCSV(tenant string) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s_director\n", tenant)
	for _, v := range []string{"Kevin Doeling", "Kevin Dowling", "Alan Myerson", "Rob Morrow", "Lesli Glatter", "Peter Bonerz"} {
		fmt.Fprintf(&sb, "%s %s\n", tenant, v)
	}
	return sb.String()
}

// jobCSV is a larger deterministic table for the async path: unique
// filler rows plus the typo pair, tenant-tagged like tenantCSV, and one
// quantity scaled ×1000 mid-table — an outlier whole-table detection
// finds, so a job always streams a finding.
func jobCSV(tenant string, rows int, seed int64) string {
	rnd := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s_name,%s_qty\n", tenant, tenant)
	fmt.Fprintf(&sb, "%s Kevin Doeling,10\n%s Kevin Dowling,11\n", tenant, tenant)
	for i := 0; i < rows; i++ {
		qty := 10 + rnd.Intn(90)
		if i == rows/2 {
			qty *= 1000
		}
		fmt.Fprintf(&sb, "%s item-%06d,%d\n", tenant, i, qty)
	}
	return sb.String()
}

// tally is the client-side ledger for one daemon process: per-tenant
// protected requests and quota rejections, plus keyless 401s. It is
// reset when the daemon restarts, because the server's in-memory
// counters reset with it.
type tally struct {
	sent  map[string]int
	quota map[string]int
	auth  int
}

func newTally() *tally {
	return &tally{sent: map[string]int{}, quota: map[string]int{}}
}

type fleet struct {
	t       *testing.T
	router  *router
	tallies map[string]*tally // daemon name -> ledger since last (re)start
}

// call issues one protected request to the chosen daemon with the
// tenant's key and updates the ledger the /metrics comparison checks.
func (f *fleet) call(d *daemon, tenant, key, method, path, ct, body string) (int, []byte) {
	f.t.Helper()
	ledger := f.tallies[d.name]
	ledger.sent[tenant]++
	var code int
	var resp []byte
	if method == http.MethodGet {
		code, resp = d.Get(path, "X-API-Key", key)
	} else {
		code, resp = d.Post(path, ct, body, "X-API-Key", key)
	}
	if code == http.StatusTooManyRequests {
		ledger.quota[tenant]++
	}
	return code, resp
}

type jobRef struct {
	d      *daemon
	tenant string
	key    string
	name   string
	id     string
}

func TestServingFleet(t *testing.T) {
	tenantsPath := writeTenantsFile(t)
	f := &fleet{t: t, tallies: map[string]*tally{}}
	var daemons []*daemon
	for _, name := range []string{"a", "b", "c"} {
		d := startDaemon(t, name, "-tenants", tenantsPath, "-job-chunk-rows", "32")
		f.tallies[d.name] = newTally()
		daemons = append(daemons, d)
	}
	f.router = &router{daemons: daemons}

	// Seeded mixed load: sync detects with async job submissions mixed
	// in, a reload at the halfway mark, and a SIGKILL of daemon c at
	// three quarters. Sequential on purpose — it keeps the client-side
	// ledger exact, which is what makes the /metrics comparison sharp.
	rnd := rand.New(rand.NewSource(42))
	const total = 90
	var jobs []jobRef
	var killed *daemon
	detect2xx := 0
	for i := 0; i < total; i++ {
		ft := fleetTenants[rnd.Intn(len(fleetTenants))]
		d := f.router.pick(ft.id)

		switch {
		case i == total/2:
			// Hot swap on whichever daemon serves globex: retrain from a
			// synthetic spec, no restart, no dropped requests.
			rd := f.router.pick("globex")
			code, body := f.call(rd, "globex", "globex-key-2", http.MethodPost,
				"/v1/reload", "application/json", `{"tables": 120, "seed": 7}`)
			if code != http.StatusOK {
				t.Fatalf("mid-run reload: %d %s", code, body)
			}
			continue
		case i == 3*total/4:
			killed = f.router.daemons[2]
			killed.kill(t)
			continue
		}

		if rnd.Intn(5) == 0 { // async path
			name := fmt.Sprintf("%s-job-%d", ft.id, i)
			code, body := f.call(d, ft.id, ft.key, http.MethodPost,
				"/v1/jobs?name="+name, "text/csv", jobCSV(ft.id, 200, int64(i)))
			switch code {
			case http.StatusAccepted:
				var status struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(body, &status); err != nil {
					t.Fatalf("202 body %q: %v", body, err)
				}
				jobs = append(jobs, jobRef{d: d, tenant: ft.id, key: ft.key, name: name, id: status.ID})
			case http.StatusTooManyRequests:
				// quota; already tallied
			default:
				t.Fatalf("job submit for %s: %d %s", ft.id, code, body)
			}
			continue
		}

		name := ft.id + "-upload"
		code, body := f.call(d, ft.id, ft.key, http.MethodPost,
			"/v1/detect?name="+name, "text/csv", tenantCSV(ft.id))
		switch code {
		case http.StatusOK:
			detect2xx++
			var resp struct {
				Table    string `json:"table"`
				Findings []struct {
					Column string   `json:"column"`
					Values []string `json:"values"`
				} `json:"findings"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("detect body %q: %v", body, err)
			}
			if resp.Table != name {
				t.Fatalf("tenant %s got table %q back — cross-tenant leakage", ft.id, resp.Table)
			}
			for _, fd := range resp.Findings {
				if !strings.HasPrefix(fd.Column, ft.id+"_") {
					t.Fatalf("tenant %s got finding in column %q — cross-tenant leakage", ft.id, fd.Column)
				}
				for _, v := range fd.Values {
					if !strings.HasPrefix(v, ft.id+" ") {
						t.Fatalf("tenant %s got value %q — cross-tenant leakage", ft.id, v)
					}
				}
			}
		case http.StatusTooManyRequests:
			// quota; already tallied
		default:
			t.Fatalf("detect for %s: %d %s", ft.id, code, body)
		}
	}
	if detect2xx == 0 {
		t.Fatal("no detect request succeeded; load has no power")
	}
	if len(jobs) == 0 {
		t.Fatal("no job was accepted; load has no power")
	}

	// Restart the killed daemon with the same jobs dir: its accepted
	// jobs must run again and complete. Its in-memory counters restart
	// from zero, so its ledger resets with it.
	killed.spawn(t)
	f.tallies[killed.name] = newTally()

	// Keyless and bad-key probes must 401 on every daemon.
	for _, d := range f.router.daemons {
		for _, hdr := range [][]string{nil, {"X-API-Key", "no-such-key"}} {
			code, _ := d.Post("/v1/detect", "text/csv", "A\nx\n", hdr...)
			if code != http.StatusUnauthorized {
				t.Fatalf("%s: unauthenticated probe got %d, want 401", d.name, code)
			}
			f.tallies[d.name].auth++
		}
	}

	// Every accepted job — including the killed daemon's — must reach a
	// terminal state with tenant-tagged findings.
	for _, j := range jobs {
		lines := f.waitJob(j)
		last := lines[len(lines)-1]
		if last["state"] != "done" && last["state"] != "degraded" {
			t.Fatalf("job %s/%s for %s ended %v", j.d.name, j.id, j.tenant, last)
		}
		for _, line := range lines[:len(lines)-1] {
			if tbl, _ := line["table"].(string); tbl != j.name {
				t.Fatalf("job %s findings carry table %q, want %q — cross-tenant leakage", j.id, tbl, j.name)
			}
		}
	}
	// Job ids are tenant-scoped: another tenant's key sees a 404, not
	// even the job's existence.
	probe := jobs[0]
	for _, ft := range fleetTenants {
		if ft.id == probe.tenant {
			continue
		}
		code, _ := f.call(probe.d, ft.id, ft.key, http.MethodGet, "/v1/jobs/"+probe.id, "", "")
		if code != http.StatusNotFound {
			t.Fatalf("tenant %s reading %s's job: %d, want 404", ft.id, probe.tenant, code)
		}
	}

	// The ledger must match /metrics exactly, daemon by daemon, tenant
	// by tenant: requests (quota rejections included), rejections, and
	// auth failures.
	for _, d := range f.router.daemons {
		ledger := f.tallies[d.name]
		fams, _ := d.Metrics()
		metric := func(name, tenant string) float64 {
			var labels map[string]string
			if tenant != "" {
				labels = map[string]string{"tenant": tenant}
			}
			s, ok := obs.Sample(fams, name, labels)
			if !ok {
				return 0
			}
			return s.Value
		}
		for _, ft := range fleetTenants {
			if got, want := metric("unidetectd_tenant_requests_total", ft.id), float64(ledger.sent[ft.id]); got != want {
				t.Errorf("%s: tenant %s requests_total = %v, client sent %v", d.name, ft.id, got, want)
			}
			if got, want := metric("unidetectd_tenant_quota_rejected_total", ft.id), float64(ledger.quota[ft.id]); got != want {
				t.Errorf("%s: tenant %s quota_rejected_total = %v, client saw %v", d.name, ft.id, got, want)
			}
		}
		if got, want := metric("unidetectd_tenant_auth_failures_total", ""), float64(ledger.auth); got != want {
			t.Errorf("%s: auth_failures_total = %v, client sent %v", d.name, got, want)
		}
	}
	// The restarted daemon must have resumed at least one job if any of
	// its jobs were cut off mid-flight; either way its job counters must
	// be internally consistent.
	killedJobs := 0
	for _, j := range jobs {
		if j.d == killed {
			killedJobs++
		}
	}
	if killedJobs > 0 {
		fams, _ := killed.Metrics()
		if s, ok := obs.Sample(fams, "unidetect_jobs_finished_total", map[string]string{"state": "done"}); !ok || s.Value == 0 {
			t.Errorf("restarted daemon finished no jobs, had %d accepted", killedJobs)
		}
	}
}

// waitJob polls one job with its owner's key until terminal and
// returns the parsed NDJSON lines of the final reply.
func (f *fleet) waitJob(j jobRef) []map[string]any {
	f.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		code, body := f.call(j.d, j.tenant, j.key, http.MethodGet, "/v1/jobs/"+j.id, "", "")
		if code == http.StatusTooManyRequests {
			time.Sleep(300 * time.Millisecond)
			continue
		}
		if code != http.StatusOK {
			f.t.Fatalf("GET %s/%s: %d %s", j.d.name, j.id, code, body)
		}
		lines := parseNDJSON(f.t, body)
		switch lines[len(lines)-1]["state"] {
		case "done", "degraded", "failed":
			return lines
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.t.Fatalf("job %s/%s never reached a terminal state", j.d.name, j.id)
	return nil
}

func parseNDJSON(t *testing.T, body []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, raw := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatalf("non-JSON NDJSON line %q: %v", raw, err)
		}
		out = append(out, m)
	}
	return out
}

// TestJobResumeByteIdentical is the restart contract, one sub-test per
// chaos seed: SIGKILL a daemon mid-scan, restart it, and the streamed
// findings must be byte-for-byte what an uninterrupted run produces.
func TestJobResumeByteIdentical(t *testing.T) {
	for _, seed := range testkit.Seeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			csv := jobCSV("solo", 4000, seed)
			flags := []string{"-job-chunk-rows", "8", "-job-chunk-delay", "4ms"}

			// Control: uninterrupted scan, same throttle flags.
			control := startDaemon(t, fmt.Sprintf("ctl-%d", seed), flags...)
			ctlID := submitJob(t, control, csv)
			want := waitJobBytes(t, control, ctlID)
			control.stop(t)
			if bytes.Count(bytes.TrimSpace(want), []byte("\n")) == 0 {
				t.Fatal("control run streamed no findings; test has no power")
			}

			// Chaos: same upload, killed after its first folded chunk,
			// restarted, run again from the top of its spool.
			chaos := startDaemon(t, fmt.Sprintf("chaos-%d", seed), flags...)
			id := submitJob(t, chaos, csv)
			if id != ctlID {
				t.Fatalf("fresh stores disagree on ids: %s vs %s", id, ctlID)
			}
			deadline := time.Now().Add(30 * time.Second)
			for chaos.Metric("unidetect_jobs_chunks_total", nil) < 1 {
				if time.Now().After(deadline) {
					t.Fatal("the job folded no chunk in 30s")
				}
				time.Sleep(2 * time.Millisecond)
			}
			chaos.kill(t)
			chaos.spawn(t)
			got := waitJobBytes(t, chaos, id)

			if !bytes.Equal(got, want) {
				testkit.Artifact(t, "control.ndjson", string(want))
				testkit.Artifact(t, "resumed.ndjson", string(got))
				t.Fatalf("resumed findings differ from uninterrupted run (%d vs %d bytes); artifacts shipped", len(got), len(want))
			}
			if n := chaos.Metric("unidetect_jobs_resumes_total", nil); n < 1 {
				t.Errorf("restarted daemon reports %v resumes, want >= 1", n)
			}
		})
	}
}

func submitJob(t *testing.T, d *daemon, csv string) string {
	t.Helper()
	code, body := d.Post("/v1/jobs?name=resume-drill", "text/csv", csv)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var status struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &status); err != nil || status.ID == "" {
		t.Fatalf("202 body %q: %v", body, err)
	}
	return status.ID
}

// waitJobBytes polls until the job is terminal and returns the full
// final reply — findings stream plus terminal summary line — whose
// bytes the restart contract is stated over.
func waitJobBytes(t *testing.T, d *daemon, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		code, body := d.Get("/v1/jobs/" + id)
		if code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, code, body)
		}
		lines := parseNDJSON(t, body)
		switch lines[len(lines)-1]["state"] {
		case "done", "degraded":
			return body
		case "failed":
			t.Fatalf("job %s failed: %v", id, lines[len(lines)-1])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return nil
}
