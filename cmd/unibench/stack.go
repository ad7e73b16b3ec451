package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/unidetect/unidetect"
	"github.com/unidetect/unidetect/internal/obs"
	"github.com/unidetect/unidetect/internal/serving"
)

// stack is one set-up of the system under test, wired the way
// cmd/unidetectd wires it: a model trained on the fixed background corpus
// and the daemon's handler behind a loopback listener, with the async job
// tier on, all sharing one metrics registry.
type stack struct {
	model  *unidetect.Model
	reg    *obs.Registry
	server *serving.Server
	stop   context.CancelFunc
	served chan error
	base   string

	train, warm, total time.Duration
}

// corpusSeed fixes the background corpus: the set-up is identical on
// every commit and for every workload seed.
const corpusSeed = 1

// setUp trains, warms, builds the server and brings the listener up,
// timing each step. wrap, when non-nil, wraps the daemon's handler (the
// traced run's handler timer).
func setUp(ctx context.Context, corpusTables int, jobsDir string, wrap func(http.Handler) http.Handler) (*stack, error) {
	background := unidetect.SyntheticCorpus(unidetect.WebProfile, corpusTables, corpusSeed)

	start := time.Now()
	reg := obs.NewRegistry()
	model, err := unidetect.Train(ctx, background, &unidetect.Options{Obs: reg})
	if err != nil {
		return nil, err
	}
	trained := time.Now()
	model.Warm()
	warmed := time.Now()

	cfg := serving.DefaultConfig()
	cfg.Obs = reg
	cfg.JobsDir = jobsDir
	srv, err := serving.New(model, cfg)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	serveCtx, stop := context.WithCancel(ctx)
	st := &stack{
		model:  model,
		reg:    reg,
		server: srv,
		stop:   stop,
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		train:  trained.Sub(start),
		warm:   warmed.Sub(trained),
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { st.served <- serving.Serve(serveCtx, hs, ln, cfg.DrainTimeout, nil) }()
	// The listener is up once it answers.
	c := newClient(1)
	defer c.CloseIdleConnections()
	resp, err := c.Get(st.base + "/healthz")
	if err != nil {
		st.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	drain(resp)
	st.total = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		st.close()
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return st, nil
}

// close stops the listener, waits for the daemon's drain to finish and
// joins the job workers. A drain that times out still closes the
// listener, so its error changes nothing here.
func (s *stack) close() {
	s.stop()
	_ = <-s.served
	s.server.Close()
}

// newClient returns a client holding at most conns connections to the
// daemon: the load of one process with conns callers.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 2 * time.Minute,
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}

// spanHeader carries the client's span id to the traced handler wrapper,
// which records the server-side span as its child.
const spanHeader = "X-Unibench-Span"

// post sends body and returns the status and reply.
func post(ctx context.Context, c *http.Client, target, contentType string, body []byte, span int) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if span > 0 {
		req.Header.Set(spanHeader, strconv.Itoa(span))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

func get(ctx context.Context, c *http.Client, target string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	return resp.StatusCode, reply, err
}

func (s *stack) detectURL(name string) string {
	return s.base + "/v1/detect?name=" + url.QueryEscape(name)
}

// jobTiming is what a client observes of one job.
type jobTiming struct {
	submit  time.Duration // POST /v1/jobs round trip: spool and record
	started time.Duration // from submit to the first poll that saw it leave the queue
	done    time.Duration // from submit to the poll that saw it terminal
}

// runJob submits body as a job, polls every poll until it is terminal and
// returns its decoded findings. A job that fails or degrades is an error.
func (s *stack) runJob(ctx context.Context, c *http.Client, name string, body []byte, poll time.Duration) ([]finding, jobTiming, error) {
	var tm jobTiming
	t0 := time.Now()
	code, reply, err := post(ctx, c, s.base+"/v1/jobs?name="+url.QueryEscape(name), "text/csv", body, 0)
	if err != nil {
		return nil, tm, fmt.Errorf("submit %s: %w", name, err)
	}
	submitted := time.Now()
	tm.submit = submitted.Sub(t0)
	if code != http.StatusAccepted {
		return nil, tm, fmt.Errorf("submit %s: status %d: %s", name, code, bytes.TrimSpace(reply))
	}
	var st jobStatus
	if err := json.Unmarshal(reply, &st); err != nil {
		return nil, tm, fmt.Errorf("submit %s: %w", name, err)
	}
	for {
		time.Sleep(poll)
		code, reply, err := get(ctx, c, s.base+"/v1/jobs/"+st.ID)
		if err != nil {
			return nil, tm, fmt.Errorf("poll %s: %w", st.ID, err)
		}
		if code != http.StatusOK {
			return nil, tm, fmt.Errorf("poll %s: status %d", st.ID, code)
		}
		fs, status, err := decodeJob(reply)
		if err != nil {
			return nil, tm, err
		}
		if status.State != "queued" && tm.started == 0 {
			tm.started = time.Since(t0)
		}
		switch status.State {
		case "queued", "running":
			continue
		case "done":
			tm.done = time.Since(t0)
			return fs, tm, nil
		default:
			return nil, tm, fmt.Errorf("job %s is %s: %s", st.ID, status.State, status.Error)
		}
	}
}

// scrape reads the registry through its text exposition — the numbers
// /metrics serves — keyed name{label=value}. Reading it this way
// registers nothing.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var sb strings.Builder
	if err := reg.WritePromText(&sb); err != nil {
		return nil, err
	}
	fams, err := obs.ParseProm(sb.String())
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, fam := range fams {
		for _, s := range fam.Samples {
			keys := make([]string, 0, len(s.Labels))
			for k := range s.Labels {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			name := s.Name
			if len(keys) > 0 {
				parts := make([]string, len(keys))
				for i, k := range keys {
					parts[i] = k + "=" + s.Labels[k]
				}
				name += "{" + strings.Join(parts, ",") + "}"
			}
			out[name] = s.Value
		}
	}
	return out, nil
}

// Registry series the benchmark reads.
const (
	cacheHits   = "unidetect_predict_measure_cache_total{result=hit}"
	cacheMisses = "unidetect_predict_measure_cache_total{result=miss}"
	mapSeconds  = "unidetect_mapreduce_phase_seconds_sum{phase=map}"
	redSeconds  = "unidetect_mapreduce_phase_seconds_sum{phase=reduce}"
)
