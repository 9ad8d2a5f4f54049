package main

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"dsh/internal/index"
	"dsh/internal/obs"
	"dsh/internal/vec"
	"dsh/internal/workload"
)

// store is the generator's model of the store: every key's latest
// acknowledged vector. It starts as the preload and takes each
// connection's acknowledged writes; keys whose last write failed are
// left out of every check.
type store struct {
	keys    []uint64    // ascending
	vecs    [][]float64 // latest vector per key, nil once deleted
	skipped int         // keys left out because their last write failed
}

func buildStore(corpus [][]float64, cs []*conn) store {
	latest := make(map[uint64][]float64, len(corpus))
	for k, v := range corpus {
		latest[uint64(k)] = v
	}
	var st store
	for _, c := range cs {
		for k, v := range c.acked {
			latest[k] = v
		}
	}
	for _, c := range cs {
		for k := range c.uncertain {
			if _, ok := latest[k]; ok {
				delete(latest, k)
				st.skipped++
			}
		}
	}
	for k := range latest {
		st.keys = append(st.keys, k)
	}
	// Sorted, so the check queries are a function of the seed and the
	// acknowledged state alone.
	slices.Sort(st.keys)
	st.vecs = make([][]float64, len(st.keys))
	for i, k := range st.keys {
		st.vecs[i] = latest[k]
	}
	return st
}

// live returns the keys and vectors of the keys that are not deleted.
func (st store) live() ([]uint64, [][]float64) {
	var ks []uint64
	var vs [][]float64
	for i, v := range st.vecs {
		if v != nil {
			ks = append(ks, st.keys[i])
			vs = append(vs, v)
		}
	}
	return ks, vs
}

// checkOutcome is what the quiesced check phase measured.
type checkOutcome struct {
	vectors    int
	respBytes  int
	recall     float64 // mean fraction of exact in-range keys returned
	precision  float64 // in-range ids returned over ids returned
	mismatches int     // responses not bit-identical to the reference
	counters   delta   // metrics registry across the wire requests
	attempted  int
	failed     int
	errs       []string
}

// runCheck sends n fresh queries near live points over one connection,
// with no other traffic, and holds each answer against
// ShardedSnapshot.QueryBatch over a snapshot at the answer's epoch (it
// must be bit-identical) and against an exact scan of the live points
// (recall and precision). The registry delta around the wire requests
// gives per-query work counts that repeat exactly for a seed on the
// read-only workloads.
func runCheck(c *conn, ix *index.ShardedIndex[[]float64], st store, n int) checkOutcome {
	var out checkOutcome
	keys, vecs := st.live()
	c.g.corpus = vecs
	var queries [][]float64
	var got [][]int
	var epochs []uint64
	before := obs.Default.Snapshot()
	for out.attempted < n {
		o := c.g.next()
		rec, body := c.send(o, nil)
		out.attempted += rec.nvec
		if !rec.ok {
			out.failed += rec.nvec
			out.errs = append(out.errs, "check query failed on the wire")
			continue
		}
		ids, epoch, err := parseQuery(body, len(o.vecs))
		if err != nil {
			out.errs = append(out.errs, err.Error())
			continue
		}
		out.respBytes += rec.respBytes
		queries = append(queries, o.vecs...)
		got = append(got, ids...)
		for range ids {
			epochs = append(epochs, epoch)
		}
	}
	out.counters = delta{before, obs.Default.Snapshot()}
	out.vectors = len(queries)

	ss := ix.Snapshot()
	defer ss.Release()
	for _, e := range epochs {
		if e != ss.Epoch() {
			out.errs = append(out.errs, fmt.Sprintf("check answer at epoch %d, quiesced index at %d", e, ss.Epoch()))
			return out
		}
	}
	ref, _, _ := ss.QueryBatch(queries, index.BatchOptions{})
	for i := range queries {
		if !slices.Equal(got[i], ref[i]) {
			out.mismatches++
		}
	}

	idKey := make(map[int]uint64, len(keys))
	for _, k := range keys {
		if id, ok := ix.LookupKey(k); ok {
			idKey[id] = k
		}
	}
	truth := scanAll(vecs, queries)
	var recallSum float64
	var recallN, returned, inRange int
	for i, q := range queries {
		found := make(map[uint64]bool, len(got[i]))
		for _, id := range got[i] {
			found[idKey[id]] = true
			if vec.Dot(ix.Point(id), q) >= rangeAlpha {
				inRange++
			}
		}
		returned += len(got[i])
		if len(truth[i]) == 0 {
			continue
		}
		hit := 0
		for _, j := range truth[i] {
			if found[keys[j]] {
				hit++
			}
		}
		recallSum += float64(hit) / float64(len(truth[i]))
		recallN++
	}
	out.recall = ratio(recallSum, float64(recallN))
	out.precision = ratio(float64(inRange), float64(returned))
	return out
}

// scanAll is the exact range ground truth for every query, on two
// goroutines.
func scanAll(points, queries [][]float64) [][]int {
	out := make([][]int, len(queries))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(queries); i += workers {
				out[i] = workload.ScanSphereRange(points, queries[i], rangeAlpha)
			}
		}()
	}
	wg.Wait()
	return out
}

// checkSamples holds every kept timed-phase response against the
// reference answer over the current snapshot; on the read-only
// workloads the epoch never moves, so each must be bit-identical.
func checkSamples(cs []*conn, ix *index.ShardedIndex[[]float64]) (checked, mismatches int, errs []string) {
	ss := ix.Snapshot()
	defer ss.Release()
	for _, c := range cs {
		for _, s := range c.samples {
			ids, epoch, err := parseQuery(s.body, len(s.vecs))
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			if epoch != ss.Epoch() {
				errs = append(errs, fmt.Sprintf("sampled answer at epoch %d on a read-only index at %d", epoch, ss.Epoch()))
				continue
			}
			ref, _, _ := ss.QueryBatch(s.vecs, index.BatchOptions{})
			for i := range ref {
				checked++
				if !slices.Equal(ids[i], ref[i]) {
					mismatches++
				}
			}
		}
	}
	return checked, mismatches, errs
}

// checkDurable verifies a reopened store against the model: every key's
// latest acknowledged vector is present bit for bit, no acknowledged
// delete is present, and nothing else is live.
func checkDurable(ix *index.ShardedIndex[[]float64], st store) (lost, resurrected int) {
	live := 0
	for i, k := range st.keys {
		want := st.vecs[i]
		id, ok := ix.LookupKey(k)
		if want == nil {
			if ok {
				resurrected++
			}
			continue
		}
		live++
		if !ok || !sameBits(ix.Point(id), want) {
			lost++
		}
	}
	if extra := ix.Len() - live - st.skipped; extra > 0 {
		resurrected += extra
	}
	return lost, resurrected
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
