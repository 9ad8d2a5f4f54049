package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of the traced run. Times are nanoseconds
// since the tracer's origin; Parent is the ID of the span that caused
// this one (0 for a root) and Req groups the spans of one request or
// replayed operation.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Path   string `json:"path,omitempty"` // serve.handler: the endpoint
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run.
type tracer struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64    { return int64(time.Since(t.origin)) }
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// all returns a copy of the spans recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// timed runs f inside a span named name.
func (t *tracer) timed(name string, parent, req uint64, f func()) {
	s := span{Name: name, ID: t.newID(), Parent: parent, Req: req, Start: t.now()}
	f()
	s.End = t.now()
	t.add(s)
}

// spanHeader carries the client span's ID to the server-side span.
const spanHeader = "X-Bench-Span"

// traceHandler wraps the serving edge's handler with a serve.handler
// span whenever a tracer is installed in tr; with none installed it adds
// one atomic load per request.
func traceHandler(next http.Handler, tr *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t := tr.Load()
		if t == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		s := span{Name: "serve.handler", ID: t.newID(), Parent: parent, Req: parent, Start: t.now(), Path: r.URL.Path}
		next.ServeHTTP(w, r)
		s.End = t.now()
		t.add(s)
	})
}

// layerOf maps a span name to its layer: the part before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval that its child spans cover. Overlapping children (two
// concurrent calls under one parent) are merged first, so overlap is not
// subtracted twice, and children are clipped to the parent's interval.
func selfTimes(spans []span) map[string]time.Duration {
	kids := make(map[uint64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		self := s.End - s.Start - covered(s.Start, s.End, kids[s.ID])
		out[layerOf(s.Name)] += time.Duration(self)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	cl := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a < b {
			cl = append(cl, [2]int64{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i][0] < cl[j][0] })
	var total, curA, curB int64
	for i, iv := range cl {
		switch {
		case i == 0:
			curA, curB = iv[0], iv[1]
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if len(cl) > 0 {
		total += curB - curA
	}
	return total
}

// durationsUS returns the durations in microseconds of the spans named
// name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeSpans writes one JSON span per line to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return fmt.Errorf("write span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write span file: %w", err)
	}
	return f.Close()
}
