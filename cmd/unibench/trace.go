package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call — never inside the program. Spans of one request share req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing; a tracer that is off records nothing either, which is how the
// traced run measures its own untraced half.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu sync.Mutex
	// guarded by mu
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id-1]
	sp.End = now
	return time.Duration(sp.End - sp.Start)
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

// wrap times every request the daemon's handler serves as a child of the
// client span named in spanHeader.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		if parent == 0 {
			h.ServeHTTP(w, r)
			return
		}
		req := 0
		t.mu.Lock()
		if parent <= len(t.spans) {
			req = t.spans[parent-1].Req
		}
		t.mu.Unlock()
		id := t.begin("serving.handler", parent, req)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns each span's self time in seconds: its duration minus
// the part of its interval its children cover.
func selfTimes(spans []span) []float64 {
	children := make([][]int, len(spans)+1)
	for i, s := range spans {
		children[s.Parent] = append(children[s.Parent], i)
	}
	self := make([]float64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[i] = float64(s.End-s.Start-covered) / 1e9
	}
	return self
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
