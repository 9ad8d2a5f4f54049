package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"dsh/internal/core"
	"dsh/internal/durable"
	"dsh/internal/index"
	"dsh/internal/obs"
	"dsh/internal/serve"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name      string
	batch     int     // query vectors per request: 1 = /v1/query, else /v1/querybatch
	writeFrac float64 // share of ops that are writes (mixed only)
	rate      float64 // open-loop offered load, requests per second
	durable   bool    // FsyncAlways durable store instead of in-memory
}

// The open-loop rates are a fifth to a third of each workload's
// closed-loop capacity on the tree this benchmark was defined on (2 vCPU
// x86-64); README.md says why they are not higher.
var workloads = map[string]workloadSpec{
	"read":  {name: "read", batch: 1, rate: 250},
	"bulk":  {name: "bulk", batch: 64, rate: 40},
	"mixed": {name: "mixed", batch: 1, writeFrac: 0.3, rate: 200, durable: true},
}

// Pinned serving configuration.
const (
	family = "fastcp" // selective, unlike dshserve's default simhash
	shards = 4
	// maxConns bounds the client connections; never more than NumCPU.
	maxConns = 2
)

// config is one run.
type config struct {
	spec    workloadSpec
	seed    uint64
	seconds float64 // timed phases: a fifth closed loop, the rest open loop
	trace   bool
	outDir  string // durable stores (removed at exit) and span files

	points       int
	dim          int
	setups       int // set-ups timed; the median is reported
	warmup       time.Duration
	checkVectors int // quiesced check queries
	replayVecs   int // traced replay: query vectors (read-only workloads)
	replayWrites int // traced replay: writes (mixed)

	// wrap, when set, wraps the server's handler; tests use it to corrupt
	// responses.
	wrap func(http.Handler) http.Handler
}

func defaultConfig(spec workloadSpec, seed uint64, seconds float64, trace bool) config {
	return config{
		spec: spec, seed: seed, seconds: seconds, trace: trace,
		outDir:       ".bench_out",
		points:       50000,
		dim:          128,
		setups:       3,
		warmup:       500 * time.Millisecond,
		checkVectors: 1024,
		replayVecs:   4096,
		replayWrites: 1600,
	}
}

// report is the printed result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	values   map[string]float64
	problems []string // failed output checks
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// system is one self-hosted server: index, serving edge and loopback
// HTTP listener.
type system struct {
	ix     *index.ShardedIndex[[]float64]
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	dir    string // durable store, "" when in memory
	tr     atomic.Pointer[tracer]
}

// startSystem builds the index the way cmd/dshserve does (hash-routed
// shards, zero DynamicOptions, durable.Options{} when durable), preloads
// the corpus with InsertKeyed(i, p), mounts the serving edge with
// serve.Options{Dim} defaults on a loopback listener and waits until
// /healthz answers.
func startSystem(cfg *config, fam core.Family[[]float64], L int, corpus [][]float64, dir string) (*system, error) {
	s := &system{dir: dir, served: make(chan error, 1)}
	sopts := index.ShardOptions{Shards: shards, Routing: index.RouteHash}
	if dir == "" {
		s.ix = index.NewSharded(xrand.New(cfg.seed), fam, L, nil, sopts)
	} else {
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		ix, err := index.NewDurableSharded(dir, cfg.seed, fam, L, durable.Float64Codec{}, sopts, durable.Options{})
		if err != nil {
			return nil, fmt.Errorf("create store: %w", err)
		}
		s.ix = ix
	}
	for i, p := range corpus {
		s.ix.InsertKeyed(uint64(i), p)
	}
	s.srv = serve.New(s.ix, serve.Options{Dim: cfg.dim})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		s.ix.Close()
		return nil, err
	}
	h := traceHandler(s.srv.Handler(), &s.tr)
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	s.base = "http://" + ln.Addr().String()
	for i := 0; ; i++ {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 1000 {
			s.stop()
			return nil, errors.New("server never became healthy")
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the serving edge, shuts the listener down, waits for it,
// and closes the index.
func (s *system) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.ix.Close()
	if derr := s.ix.DurableErr(); err == nil {
		err = derr
	}
	return err
}

// newConns opens the load generator's connections over one pooled
// transport.
func newConns(cfg *config, corpus [][]float64, base string, n int) ([]*conn, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	hc := &http.Client{Transport: tr}
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = &conn{
			hc: hc, base: base,
			g:         newGen(cfg.seed, i, cfg.spec, corpus, cfg.dim, i, n),
			acked:     make(map[uint64][]float64),
			uncertain: make(map[uint64]bool),
		}
		if cfg.spec.writeFrac == 0 {
			// Keep about 1 in 16 query responses, up to 16 MiB per
			// connection, for the wire-vs-reference check.
			cs[i].keepEvery, cs[i].sampleBudget = 16, 16<<20
		}
	}
	return cs, tr
}

// run executes one benchmark run and returns its report. Errors are for
// runs that could not be carried out; failed output checks are reported
// with Correct = false.
func run(cfg config) (*report, error) {
	spec := cfg.spec
	conns := min(maxConns, runtime.NumCPU())
	rep := &report{values: map[string]float64{}}
	val := rep.values
	// A per-layer metric of a layer the workload does not run (the
	// durable tier on read, say) stays 0.
	for _, d := range perLayer {
		val[d.name] = 0
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	fam, L, err := workload.ServingFamily(family, cfg.dim)
	if err != nil {
		return nil, err
	}
	start0 := time.Now()
	corpus := workload.SpherePoints(xrand.New(cfg.seed+1), cfg.points, cfg.dim)

	// Set-up, timed several times; the last system serves the run.
	var sys *system
	var setups []float64
	storeDir := func(i int) string {
		if !spec.durable {
			return ""
		}
		return filepath.Join(cfg.outDir, fmt.Sprintf("store-%s-%d-%d", spec.name, cfg.seed, i))
	}
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			if err := sys.stop(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(sys.dir); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if sys, err = startSystem(&cfg, fam, L, corpus, storeDir(i)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = sys.stop()
		}
		if sys.dir != "" {
			_ = os.RemoveAll(sys.dir)
		}
	}()
	val["setup_s"] = median(setups)
	mark := phaseTimer(start0)
	mark("set-up")
	// Collect the earlier set-ups' garbage before anything is timed.
	runtime.GC()

	cs, transport := newConns(&cfg, corpus, sys.base, conns)
	defer transport.CloseIdleConnections()
	count := func(p phase) {
		a, f := p.failures()
		rep.Attempted += a
		rep.Failed += f
	}

	// Timed phases: the open loop at the pinned rate, then the closed
	// loop. Open loop first because it sends a fixed number of requests:
	// on mixed, where every write adds index layers, the latencies, the
	// heap and the closed loop all see the same write history in every
	// run.
	closedDur := time.Duration(cfg.seconds / 5 * float64(time.Second))
	openDur := time.Duration(cfg.seconds*float64(time.Second)) - closedDur
	count(runClosed(cs, cfg.warmup, nil))
	m0 := obs.Default.Snapshot()
	open := runOpen(cs, openDur, spec.rate)
	val["heap_mb"] = liveHeapMB(sys.ix)
	// The closed loop sends queries only. With mixed's writes in it, its
	// throughput followed the machine's fsync latency and the seed (ten-seed
	// spread 0.27, past the 0.25 maximum bound); without them it measures
	// query capacity over the write history the open loop left, the same
	// in every run.
	for _, c := range cs {
		c.g.spec.writeFrac = 0
	}
	closed := runClosed(cs, closedDur, nil)
	m1 := obs.Default.Snapshot()
	count(open)
	count(closed)
	timed := delta{m0, m1}

	val["qps"] = closed.windowedRate(closedDur, 4)
	reads := open.latencies(func(r record) bool { return r.kind == opQuery })
	writes := open.latencies(func(r record) bool { return r.kind.isWrite() })
	val["gen.samples_read"] = float64(len(reads))
	val["gen.samples_write"] = float64(len(writes))
	val["read_p50_ms"] = pctOrZero(reads, 0.5)
	val["read_p90_ms"] = pctOrZero(reads, 0.9)
	val["read_p99_ms"] = pctOrZero(reads, 0.99)
	val["write_p50_ms"] = pctOrZero(writes, 0.5)
	val["write_p99_ms"] = pctOrZero(writes, 0.99)
	var late []float64
	for _, r := range open.recs {
		if r.late >= 0 {
			late = append(late, float64(r.late)/1e6)
		}
	}
	val["gen.late_p99_ms"] = pctOrZero(late, 0.99)
	var reqBytes, reqs float64
	for _, p := range []phase{closed, open} {
		for _, r := range p.recs {
			reqBytes += float64(r.reqBytes)
			reqs++
		}
	}
	val["wire.req_bytes"] = ratio(reqBytes, reqs)
	timedCounters(val, timed, closed.ops()+open.ops(), sys.ix)

	mark("timed phases")

	// Output checks, with no other traffic.
	if spec.writeFrac == 0 {
		if hits := timed.counter("dsh_serve_cache_hits_total"); hits > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("%.0f hot-query cache hits on a fresh-query workload", hits))
		}
		checked, bad, errs := checkSamples(cs, sys.ix)
		rep.problems = append(rep.problems, errs...)
		if bad > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("%d of %d sampled wire answers differ from QueryBatch", bad, checked))
		}
	}
	for _, c := range cs {
		rep.problems = append(rep.problems, c.bad...)
	}
	st := buildStore(corpus, cs)
	checkSpec := spec
	checkSpec.writeFrac = 0
	checker := &conn{hc: cs[0].hc, base: sys.base, g: newGen(cfg.seed, 1000, checkSpec, nil, cfg.dim, 0, 1)}
	chk := runCheck(checker, sys.ix, st, cfg.checkVectors)
	rep.Attempted += chk.attempted
	rep.Failed += chk.failed
	rep.problems = append(rep.problems, chk.errs...)
	if chk.mismatches > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d check answers differ from QueryBatch", chk.mismatches, chk.vectors))
	}
	val["recall"] = chk.recall
	val["index.precision"] = chk.precision
	val["resp_bytes"] = ratio(float64(chk.respBytes), float64(chk.vectors))
	q := chk.counters.counter("dsh_queries_total")
	val["index.probes_per_q"] = ratio(chk.counters.counter("dsh_query_probes_total"), q)
	val["index.candidates_per_q"] = ratio(chk.counters.counter("dsh_query_candidates_total"), q)
	val["index.distinct_per_q"] = ratio(chk.counters.counter("dsh_query_distinct_total"), q)
	val["sphere.hash_evals_per_q"] = ratio(chk.counters.counter("dsh_query_hash_evals_total"), q)

	mark("checks")

	// Traced closed loop: client and serve spans, and the overhead.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		sys.tr.Store(tr)
		t0 := obs.Default.Snapshot()
		traced := runClosed(cs, closedDur, tr)
		t1 := obs.Default.Snapshot()
		sys.tr.Store(nil)
		count(traced)
		tracedCounters(val, tr.all(), delta{t0, t1}, traced.ops(), val["qps"]/traced.windowedRate(closedDur, 4))
	}

	mark("traced loop")
	replayIx := sys.ix
	if spec.durable {
		st = buildStore(corpus, cs)
		stopped = true
		if err := sys.stop(); err != nil {
			return nil, fmt.Errorf("drain and close: %w", err)
		}
		size, err := dirBytes(sys.dir)
		if err != nil {
			return nil, err
		}
		live, _ := st.live()
		val["space_amp"] = ratio(float64(size), float64(len(live)*cfg.dim*8))
		r0 := obs.Default.Snapshot()
		start := time.Now()
		ix, err := index.OpenSharded(sys.dir, fam, durable.Float64Codec{}, index.DynamicOptions{}, durable.Options{})
		if err != nil {
			return nil, fmt.Errorf("reopen store: %w", err)
		}
		val["recover_s"] = time.Since(start).Seconds()
		defer ix.Close()
		rec := delta{r0, obs.Default.Snapshot()}
		val["durable.recover_replay_ms"] = histMeanMS(rec, "dsh_recover_replay_ns")
		val["durable.recover_segments_ms"] = histMeanMS(rec, "dsh_recover_segments_ns")
		lost, resurrected := checkDurable(ix, st)
		if lost > 0 || resurrected > 0 {
			rep.problems = append(rep.problems, fmt.Sprintf("after reopen: %d acknowledged writes lost, %d deleted or unknown keys live", lost, resurrected))
		}
		replayIx = ix
	}

	if cfg.trace {
		walDir := ""
		if spec.durable {
			walDir = filepath.Join(cfg.outDir, fmt.Sprintf("replay-wal-%s-%d", spec.name, cfg.seed))
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
			defer os.RemoveAll(walDir)
		}
		g := newGen(cfg.seed, 2000, spec, corpus, cfg.dim, 0, 1)
		res, err := replay(tr, replayIx, fam, g, max(conns, spec.batch), cfg.replayVecs, cfg.replayWrites, walDir)
		if err != nil {
			return nil, err
		}
		spans := tr.all()
		replayMetrics(val, spans, res)
		self := selfTimes(spans)
		val["trace.index_self_us"] = ratio(float64(self["index"])/1e3, float64(res.ops))
		val["trace.sphere_self_us"] = ratio(float64(self["sphere"])/1e3, float64(res.ops))
		val["trace.durable_self_us"] = ratio(float64(self["durable"])/1e3, float64(res.ops))
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", spec.name, cfg.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "servebench: %d spans written to %s\n", len(spans), path)
	}

	mark("recovery and replay")
	val["error_rate"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Correct = len(rep.problems) == 0
	return rep, nil
}

// phaseTimer returns a function that reports on standard error how long
// each phase of the run took.
func phaseTimer(start time.Time) func(string) {
	last := start
	return func(name string) {
		now := time.Now()
		fmt.Fprintf(os.Stderr, "servebench: %-20s %6.1f s\n", name, now.Sub(last).Seconds())
		last = now
	}
}

// timedCounters derives the per-layer counters of the timed phases.
func timedCounters(val map[string]float64, d delta, ops int, ix *index.ShardedIndex[[]float64]) {
	kop := float64(ops) / 1e3
	val["serve.queue_wait_p50_us"] = d.histPct("dsh_serve_queue_wait_ns", 0.5, 1e3)
	val["serve.queue_wait_p99_us"] = d.histPct("dsh_serve_queue_wait_ns", 0.99, 1e3)
	bs := d.hist("dsh_serve_batch_size")
	val["serve.batch_size_mean"] = ratio(float64(bs.Sum), float64(bs.Count))
	val["serve.snapshot_refreshes_per_kop"] = ratio(d.counter("dsh_serve_snapshot_refreshes_total"), kop)
	hits := d.counter("dsh_serve_cache_hits_total")
	val["serve.cache_hit_rate"] = ratio(hits, hits+d.counter("dsh_serve_cache_misses_total"))
	val["serve.shed"] = d.counter("dsh_serve_shed_total")
	val["serve.timeouts"] = d.counter("dsh_serve_timeouts_total")
	val["index.batch_p50_us"] = d.histPct("dsh_batch_latency_ns", 0.5, 1e3)

	writes := d.counter("dsh_upserts_total") + d.counter("dsh_deletes_keyed_total")
	kw := writes / 1e3
	val["index.freezes_per_kwrite"] = ratio(d.counter("dsh_freezes_inline_total")+d.counter("dsh_freezes_async_total"), kw)
	val["index.freeze_build_p99_us"] = d.histPct("dsh_freeze_build_ns", 0.99, 1e3)
	val["index.compaction_rows_per_write"] = ratio(d.counter("dsh_compaction_rows_total"), writes)
	val["index.compaction_ms"] = float64(d.hist("dsh_compaction_ns").Sum) / 1e6
	val["durable.fsyncs_per_write"] = ratio(d.counter("dsh_wal_fsyncs_total"), writes)
	val["durable.wal_bytes_per_write"] = ratio(d.counter("dsh_wal_append_bytes_total"), writes)
	val["durable.segment_writes_per_kwrite"] = ratio(d.counter("dsh_segment_writes_total"), kw)
	val["durable.manifest_commits_per_kwrite"] = ratio(d.counter("dsh_manifest_commits_total"), kw)

	layers := 0
	for s := 0; s < ix.Shards(); s++ {
		sh := ix.Shard(s)
		layers += sh.Segments() + sh.PendingFreezes()
		if sh.MemtableLen() > 0 {
			layers++
		}
	}
	val["index.layers_per_shard"] = float64(layers) / float64(ix.Shards())
	gc := ix.GCStats()
	val["index.dead_frac"] = ratio(float64(gc.DeadRows), float64(gc.LiveRows+gc.DeadRows))
}

// tracedCounters derives the serving-edge metrics of the traced closed
// loop from its client.request and serve.handler spans.
func tracedCounters(val map[string]float64, spans []span, d delta, ops int, overhead float64) {
	handler := make(map[uint64]int64) // client span ID -> handler duration
	var handlerUS []float64
	for _, s := range spans {
		if s.Name == "serve.handler" {
			handler[s.Parent] = s.End - s.Start
			if strings.HasPrefix(s.Path, "/v1/query") {
				handlerUS = append(handlerUS, float64(s.End-s.Start)/1e3)
			}
		}
	}
	var clientUS []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && s.Name == "client.request" {
			clientUS = append(clientUS, float64(s.End-s.Start-h)/1e3)
		}
	}
	val["serve.handler_p50_us"] = pctOrZero(handlerUS, 0.5)
	val["wire.client_p50_us"] = pctOrZero(clientUS, 0.5)
	// Means add up where percentiles do not: a query's handler time is
	// its decode, queue wait, batch and encode.
	wait, batch := d.hist("dsh_serve_queue_wait_ns"), d.hist("dsh_batch_latency_ns")
	val["serve.self_mean_us"] = mean(handlerUS) -
		ratio(float64(wait.Sum), float64(wait.Count))/1e3 - ratio(float64(batch.Sum), float64(batch.Count))/1e3
	self := selfTimes(spans)
	val["trace.client_self_us"] = ratio(float64(self["client"])/1e3, float64(ops))
	val["trace.serve_self_us"] = ratio(float64(self["serve"])/1e3, float64(ops))
	val["trace.overhead"] = overhead
}

// replayMetrics derives the replay spans' per-call latencies.
func replayMetrics(val map[string]float64, spans []span, res replayResult) {
	val["index.query_p50_us"] = pctOrZero(durationsUS(spans, "index.query"), 0.5)
	val["index.snapshot_p99_us"] = pctOrZero(durationsUS(spans, "index.snapshot"), 0.99)
	writes := durationsUS(spans, "index.write")
	val["index.write_p50_us"] = pctOrZero(writes, 0.5)
	val["index.write_p99_us"] = pctOrZero(writes, 0.99)
	var hashUS float64
	for _, d := range durationsUS(spans, "sphere.hash") {
		hashUS += d
	}
	val["sphere.hash_us"] = ratio(hashUS, float64(res.vectors))
}

func histMeanMS(d delta, name string) float64 {
	h := d.hist(name)
	return ratio(float64(h.Sum), float64(h.Count)) / 1e6
}

// liveHeapMB is the live Go heap after forced collections, taken once
// the background freezes queued by the timed phases have been installed,
// so it does not depend on how far the freezer lagged at that instant.
// The second collection empties the sync.Pool caches (querier scratch),
// whose size depends on how many goroutines happened to run at once.
func liveHeapMB(ix *index.ShardedIndex[[]float64]) float64 {
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		pending := 0
		for s := 0; s < ix.Shards(); s++ {
			pending += ix.Shard(s).PendingFreezes()
		}
		if pending == 0 {
			break
		}
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}
