package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"wayplace/internal/api"
	"wayplace/internal/check"
	"wayplace/internal/sim"
	"wayplace/internal/store"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanClient  = "client.request" // serve.Client.Run or the async submit+poll loop
	spanServe   = "serve.handler"  // serve.Server.Handler, POST /v1/runs
	spanCoord   = "fleet.coord"    // fleet.Coordinator.Handler, POST /v1/runs
	spanBackend = "fleet.backend"  // a fleet backend's serve.Server.Handler, POST /v1/runs
	spanSection = "grid.section"   // one step of the paper evaluation
	spanEngine  = "engine.run"     // experiment.Runner call into engine.Engine.Run
	spanPrepare = "experiment.prepare"
	spanVerify  = "check.verify"
	spanLoad    = "store.load"
	spanSave    = "store.save"
)

// span is one timed call into a layer. The first-tier span of a
// request carries the benchmark-stamped request id. Parent is 0 when
// the span is a root or when its parent cannot be known from outside
// the program (engine-worker callbacks); such layers are reported as
// per-workload totals.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Cells  int    `json:"cells,omitempty"`
	Status int    `json:"status,omitempty"`
	// link joins a span to its parent after the run: the connection's
	// address, or the first cell key of the request body.
	link string
	// ok reports a store.load hit.
	ok bool
}

func (s span) interval(t0 time.Time) interval {
	return interval{t0.Add(time.Duration(s.Start)), t0.Add(time.Duration(s.End))}
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// disabled tracer: every method is a no-op and every wrapper returns
// the unwrapped function, so the untraced run pays nothing.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) since(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return int64(at.Sub(t.t0))
}

// add records a finished span and returns its id.
func (t *tracer) add(s span) int64 {
	if t == nil {
		return 0
	}
	if s.ID == 0 {
		s.ID = t.next.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// id reserves a span id, for a span whose children finish before it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// timed records a span of name from start to now.
func (t *tracer) timed(name string, start time.Time, parent int64) int64 {
	if t == nil {
		return 0
	}
	return t.add(span{Name: name, Parent: parent, Start: t.since(start), End: t.since(time.Now())})
}

// setParents records parents joined after the run: parent[id] for
// every span id in the map.
func (t *tracer) setParents(parent map[int64]int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if p, ok := parent[t.spans[i].ID]; ok {
			t.spans[i].Parent = p
		}
	}
}

// named returns a copy of every span called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// reset drops every recorded span (set-up noise before a timed phase).
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durationsMS returns the durations of spans, in milliseconds.
func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = ms(s.dur())
	}
	return out
}

// verifier wraps check.VerifyCell. Engine workers call it, so its
// spans are unparented.
func (t *tracer) verifier() func(sim.Config, *sim.RunStats) error {
	if t == nil {
		return check.VerifyCell
	}
	return func(cfg sim.Config, rs *sim.RunStats) error {
		start := time.Now()
		err := check.VerifyCell(cfg, rs)
		t.timed(spanVerify, start, 0)
		return err
	}
}

// tier wraps a *store.Store as the engine's StoreTier, timing every
// Load and Save.
type tier struct {
	st *store.Store
	tr *tracer
}

func (t tier) Load(key string) (*sim.RunStats, []sim.AreaChange, bool) {
	start := time.Now()
	stats, changes, ok := t.st.Load(key)
	t.tr.add(span{Name: spanLoad, Start: t.tr.since(start), End: t.tr.since(time.Now()), ok: ok})
	return stats, changes, ok
}

func (t tier) Save(key string, stats *sim.RunStats, changes []sim.AreaChange) {
	start := time.Now()
	t.st.Save(key, stats, changes)
	t.tr.timed(spanSave, start, 0)
}

// statusWriter captures the status code a handler answers with.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// linkBy selects how a handler span is joined to its parent.
type linkBy int

const (
	linkConn     linkBy = iota // the client connection's address (one connection per closed-loop client)
	linkFirstKey               // the first cell key of the request body (cells are unique per batch)
)

// handler wraps an http.Handler, recording one span per POST /v1/runs.
func (t *tracer) handler(name string, by linkBy, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			next.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		var breq api.BatchRequest
		_ = json.Unmarshal(body, &breq) // the wrapped handler reports malformed bodies
		link := r.RemoteAddr
		if by == linkFirstKey && len(breq.Requests) > 0 {
			link = breq.Requests[0].Key()
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now() // after the wrapper's own body decode
		next.ServeHTTP(sw, r)
		t.add(span{Name: name, Start: t.since(start), End: t.since(time.Now()),
			Cells: len(breq.Requests), Status: sw.status, link: link})
	})
}

// countingTransport counts HTTP round trips: attempts beyond one per
// batch are client retries.
type countingTransport struct {
	next http.RoundTripper
	n    atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return c.next.RoundTrip(r)
}
