package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// record is the outcome of one request.
type record struct {
	kind opKind
	nvec int           // query vectors carried (0 for writes)
	lat  time.Duration // from send (closed loop) or due time (open loop)
	// late is, in the open loop, how far after its due time a request was
	// sent although its connection was free at that time; -1 when the
	// connection was still busy with the previous request.
	late      time.Duration
	done      time.Duration // closed loop: completion time since the phase began
	ok        bool
	reqBytes  int
	respBytes int
}

// wireSample is a kept query response, compared after the timed phases
// with the in-process reference answer.
type wireSample struct {
	vecs [][]float64
	body []byte
}

// conn is one client connection of the load generator: its op stream,
// its reusable buffers, and its record of what the server acknowledged.
type conn struct {
	hc   *http.Client
	base string
	g    *gen
	buf  []byte
	resp bytes.Buffer

	// acked holds, for every key this connection wrote and the server
	// acknowledged, the latest vector (nil once deleted); uncertain holds
	// keys whose last write failed, whose final state is unknown.
	acked     map[uint64][]float64
	uncertain map[uint64]bool
	// bad lists acknowledged responses that contradict the generator's
	// model, e.g. a delete of a live key reported as not deleted.
	bad []string

	// Every keepEvery-th query response is kept while sampleBudget bytes
	// remain.
	keepEvery    int
	sampleBudget int
	queries      int
	samples      []wireSample
}

// send issues one op and fills everything in the record except lat, late
// and done. When tr is non-nil the request runs inside a client.request
// span whose ID travels to the server-side span. It also returns the
// response body, valid until the next send, for the caller to parse.
func (c *conn) send(o op, tr *tracer) (rec record, body []byte) {
	rec.kind = o.kind
	if o.kind == opQuery {
		rec.nvec = len(o.vecs)
	}
	c.buf = o.body(c.buf[:0])
	rec.reqBytes = len(c.buf)
	req, err := http.NewRequest(http.MethodPost, c.base+o.path(), bytes.NewReader(c.buf))
	if err != nil {
		return rec, nil
	}
	req.Header.Set("Content-Type", "application/json")
	var sp span
	if tr != nil {
		sp = span{Name: "client.request", ID: tr.newID(), Start: tr.now()}
		sp.Req = sp.ID
		req.Header.Set(spanHeader, strconv.FormatUint(sp.ID, 10))
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		c.resp.Reset()
		_, err = c.resp.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	if tr != nil {
		sp.End = tr.now()
		tr.add(sp)
	}
	if err != nil || resp.StatusCode != http.StatusOK {
		if o.kind.isWrite() {
			c.uncertain[o.key] = true
		}
		return rec, nil
	}
	body = c.resp.Bytes()
	rec.respBytes = len(body)
	rec.ok = true
	switch o.kind {
	case opQuery:
		c.queries++
		if c.keepEvery > 0 && c.queries%c.keepEvery == 0 && c.sampleBudget >= len(body) {
			c.sampleBudget -= len(body)
			c.samples = append(c.samples, wireSample{vecs: o.vecs, body: append([]byte(nil), body...)})
		}
	case opDelete:
		if !bytes.Contains(body, []byte(`"deleted":true`)) {
			c.bad = append(c.bad, fmt.Sprintf("delete of live key %d acknowledged as not deleted", o.key))
		}
		c.acked[o.key] = nil
		delete(c.uncertain, o.key)
	default:
		c.acked[o.key] = o.vecs[0]
		delete(c.uncertain, o.key)
	}
	return rec, body
}

// phase is the merged outcome of one load phase.
type phase struct {
	recs []record
}

// ops counts completed operations: one per query vector answered and one
// per acknowledged write.
func (p phase) ops() int {
	n := 0
	for _, r := range p.recs {
		if r.ok {
			n += max(r.nvec, 1)
		}
	}
	return n
}

// windowedRate splits the first d of a closed-loop phase into equal
// windows and returns the median over them of the operations completed
// per second, so one stalled window does not set the figure.
func (p phase) windowedRate(d time.Duration, windows int) float64 {
	w := d / time.Duration(windows)
	counts := make([]float64, windows)
	for _, r := range p.recs {
		if i := int(r.done / w); r.ok && i < windows {
			counts[i] += float64(max(r.nvec, 1))
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

func (p phase) failures() (attempted, failed int) {
	for _, r := range p.recs {
		attempted += max(r.nvec, 1)
		if !r.ok {
			failed += max(r.nvec, 1)
		}
	}
	return attempted, failed
}

// latencies returns the latencies in milliseconds of the successful
// records selected by keep.
func (p phase) latencies(keep func(record) bool) []float64 {
	var out []float64
	for _, r := range p.recs {
		if r.ok && keep(r) {
			out = append(out, float64(r.lat)/1e6)
		}
	}
	return out
}

// runConns runs body once per connection concurrently and merges the
// records.
func runConns(cs []*conn, body func(i int, c *conn) []record) phase {
	out := make([][]record, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = body(i, c)
		}()
	}
	wg.Wait()
	var p phase
	for _, rs := range out {
		p.recs = append(p.recs, rs...)
	}
	return p
}

// runClosed is the closed loop: every connection sends its next request
// as soon as the previous one is answered, until d has passed.
func runClosed(cs []*conn, d time.Duration, tr *tracer) phase {
	start := time.Now()
	end := start.Add(d)
	return runConns(cs, func(_ int, c *conn) []record {
		var recs []record
		for time.Now().Before(end) {
			o := c.g.next()
			t0 := time.Now()
			rec, _ := c.send(o, tr)
			rec.lat = time.Since(t0)
			rec.done = time.Since(start)
			recs = append(recs, rec)
		}
		return recs
	})
}

// runOpen is the open loop: requests fall due at a fixed total rate
// (requests per second), spread evenly and alternating across the
// connections, for d. A request is sent at its due time, or as soon as
// its connection is free when that is later; its latency is timed from
// the due time, so a stall is charged to every request it delays.
func runOpen(cs []*conn, d time.Duration, rate float64) phase {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	n := len(cs)
	return runConns(cs, func(i int, c *conn) []record {
		var recs []record
		for k := 0; ; k++ {
			due := start.Add(time.Duration(k*n+i) * interval)
			if due.Sub(start) >= d {
				return recs
			}
			free := time.Now().Before(due)
			o := c.g.next()
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			sent := time.Now()
			rec, _ := c.send(o, nil)
			rec.lat = time.Since(due)
			rec.late = -1
			if free {
				rec.late = sent.Sub(due)
			}
			recs = append(recs, rec)
		}
	})
}

// queryResponse is the union of the /v1/query and /v1/querybatch
// response bodies.
type queryResponse struct {
	IDs     []int   `json:"ids"`
	Results [][]int `json:"results"`
	Epoch   uint64  `json:"epoch"`
}

// parseQuery returns one id list per query vector of a response body.
func parseQuery(body []byte, nvec int) ([][]int, uint64, error) {
	var r queryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, 0, fmt.Errorf("decode query response: %w", err)
	}
	if nvec == 1 && r.Results == nil {
		r.Results = [][]int{r.IDs}
	}
	if len(r.Results) != nvec {
		return nil, 0, fmt.Errorf("query response has %d result lists for %d vectors", len(r.Results), nvec)
	}
	return r.Results, r.Epoch, nil
}
