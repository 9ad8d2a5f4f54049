package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // 10 samples beyond the 990th
		{999, 0.99, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	}
	for _, c := range cases {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(xs[:999], 0.99); ok || v != 0 {
		t.Errorf("p99 of 999 samples = %v, %v; want unreported", v, ok)
	}
	if v := pctOrZero(xs[:15], 0.5); v != 0 {
		t.Errorf("p50 of 15 samples reported as %v", v)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "client.request", ID: 1, Start: 0, End: 100},
		// Two overlapping children and one running past the parent's end:
		// they cover [10, 60] and [90, 100] of the parent, 60 in all.
		{Name: "serve.handler", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "serve.handler", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "index.query", ID: 4, Parent: 1, Start: 90, End: 120},
		// A grandchild covers part of span 2 only.
		{Name: "sphere.hash", ID: 5, Parent: 2, Start: 15, End: 25},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"client": 40,
		"serve":  (30 - 10) + 30,
		"index":  30,
		"sphere": 10,
	}
	for layer, w := range want {
		if self[layer] != w {
			t.Errorf("self time of %s = %d, want %d", layer, self[layer], w)
		}
	}
	if got := covered(0, 10, [][2]int64{{20, 30}}); got != 0 {
		t.Errorf("child outside the parent covers %d", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the result
// format, and BENCHMARK.json against the metrics this program prints.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("bad metric name %q", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("bad unit %q of %s", d.unit, d.name)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better = %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s listed twice", d.name)
		}
		seen[d.name] = true
	}
	for name := range workloads {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad workload name %q", name)
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the program prints %d+%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, program has %+v", i, m, d)
		}
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, program has %+v", i, m, d)
		}
	}
}

func TestGenFreshAndPartitioned(t *testing.T) {
	spec := workloads["mixed"]
	corpus := make([][]float64, 100)
	for i := range corpus {
		corpus[i] = make([]float64, 4)
		corpus[i][i%4] = 1
	}
	seen := map[[4]float64]bool{}
	for conn := 0; conn < 2; conn++ {
		a := newGen(7, conn, spec, corpus, 4, conn, 2)
		b := newGen(7, conn, spec, corpus, 4, conn, 2)
		for i := 0; i < 2000; i++ {
			x, y := a.next(), b.next()
			if x.kind != y.kind || x.key != y.key || len(x.vecs) != len(y.vecs) {
				t.Fatalf("conn %d op %d differs between two generators of one seed", conn, i)
			}
			if x.kind.isWrite() && x.key%2 != uint64(conn) {
				t.Fatalf("conn %d wrote key %d of the other partition", conn, x.key)
			}
			for _, v := range x.vecs {
				k := [4]float64(v)
				if seen[k] {
					t.Fatalf("vector repeated: %v", v)
				}
				seen[k] = true
			}
		}
	}
}

func toyConfig(t *testing.T, name string) config {
	cfg := defaultConfig(workloads[name], 3, 1.5, true)
	cfg.outDir = t.TempDir()
	cfg.points = 2000
	cfg.dim = 32
	cfg.setups = 1
	cfg.warmup = 50 * time.Millisecond
	cfg.checkVectors = 128
	cfg.replayVecs = 256
	cfg.replayWrites = 64
	return cfg
}

// dropID removes one id from every non-empty query answer.
func dropID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/query") {
			next.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		var body map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err == nil {
			if ids, ok := body["ids"].([]any); ok && len(ids) > 0 {
				body["ids"] = ids[1:]
			}
			if res, ok := body["results"].([]any); ok {
				for i, r := range res {
					if ids, ok := r.([]any); ok && len(ids) > 0 {
						res[i] = ids[1:]
						break
					}
				}
			}
		}
		w.WriteHeader(rec.Code)
		_ = json.NewEncoder(w).Encode(body)
	})
}

// TestSmoke runs every workload at toy size: it must pass its output
// checks, and fail them when the server drops an id from its answers.
func TestSmoke(t *testing.T) {
	for _, name := range []string{"read", "bulk", "mixed"} {
		t.Run(name, func(t *testing.T) {
			rep, err := run(toyConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("clean run: correct=%v failed=%d problems=%v", rep.Correct, rep.Failed, rep.problems)
			}
			if err := rep.fill(true); err != nil {
				t.Fatal(err)
			}
			if rep.values["serve.cache_hit_rate"] != 0 {
				t.Errorf("cache hit rate %v on fresh queries", rep.values["serve.cache_hit_rate"])
			}
			if rep.values["trace.index_self_us"] <= 0 || rep.values["trace.serve_self_us"] <= 0 {
				t.Errorf("traced run reported no self time: %v", rep.values)
			}

			cfg := toyConfig(t, name)
			cfg.wrap = dropID
			rep, err = run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Correct {
				t.Fatal("run passed its checks although every answer lost an id")
			}
		})
	}
}

// TestWorkCountersRepeat: on the read-only workloads the check-phase work
// counters, response size, recall and precision are functions of the
// seed alone.
func TestWorkCountersRepeat(t *testing.T) {
	keys := []string{"index.probes_per_q", "index.candidates_per_q", "resp_bytes", "recall", "index.precision"}
	for _, name := range []string{"read", "bulk"} {
		var first map[string]float64
		for i := 0; i < 2; i++ {
			cfg := toyConfig(t, name)
			cfg.trace = false
			rep, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = rep.values
				continue
			}
			for _, k := range keys {
				if rep.values[k] != first[k] {
					t.Errorf("%s: %s = %v then %v", name, k, first[k], rep.values[k])
				}
			}
		}
	}
}
