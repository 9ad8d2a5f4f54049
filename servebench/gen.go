package main

import (
	"strconv"

	"dsh/internal/vec"
	"dsh/internal/workload"
	"dsh/internal/xrand"
)

// opKind is one wire operation of the load generator.
type opKind uint8

const (
	opQuery  opKind = iota // /v1/query (batch 1) or /v1/querybatch
	opInsert               // /v1/insert under a key never used before
	opUpsert               // /v1/insert over a live key
	opDelete               // /v1/delete of a live key
)

func (k opKind) isWrite() bool { return k != opQuery }

// op is one generated request. Query ops carry spec.batch fresh vectors;
// insert and upsert carry one fresh vector.
type op struct {
	kind opKind
	key  uint64
	vecs [][]float64
}

// Query vectors sit at a uniform inner product alpha in [alphaLo, alphaHi]
// from a random corpus point, so each has at least one in-range neighbour
// at the alpha = rangeAlpha ground-truth threshold.
const (
	alphaLo    = 0.5
	alphaHi    = 0.95
	rangeAlpha = 0.5
)

// gen is one connection's deterministic op stream. Keys are partitioned
// by connection (key mod conns == conn), so every upsert or delete of a
// key is issued, and acknowledged, in one connection's order and the
// expected final store state is exact. Every query and insert vector is
// drawn fresh: nothing repeats, so the server's hot-query cache can never
// answer a request.
type gen struct {
	rng    *xrand.Rand
	spec   workloadSpec
	corpus [][]float64
	dim    int
	conns  uint64

	nextKey uint64         // next fresh key of this partition
	live    []uint64       // live keys of this partition (mixed only)
	pos     map[uint64]int // key -> index in live
}

func newGen(seed uint64, stream int, spec workloadSpec, corpus [][]float64, dim, conn, conns int) *gen {
	g := &gen{
		rng:    xrand.New(seed ^ (uint64(stream+1) * 0x9e3779b97f4a7c15)),
		spec:   spec,
		corpus: corpus,
		dim:    dim,
		conns:  uint64(conns),
	}
	n := uint64(len(corpus))
	g.nextKey = n + (uint64(conn)+g.conns-n%g.conns)%g.conns
	if spec.writeFrac > 0 {
		g.pos = make(map[uint64]int)
		for k := uint64(conn); k < n; k += g.conns {
			g.addLive(k)
		}
	}
	return g
}

func (g *gen) addLive(k uint64) {
	g.pos[k] = len(g.live)
	g.live = append(g.live, k)
}

func (g *gen) removeLive(k uint64) {
	i := g.pos[k]
	last := g.live[len(g.live)-1]
	g.live[i] = last
	g.pos[last] = i
	g.live = g.live[:len(g.live)-1]
	delete(g.pos, k)
}

// query returns a fresh query vector near a random corpus point.
func (g *gen) query() []float64 {
	src := g.corpus[g.rng.Intn(len(g.corpus))]
	return workload.PointAtAlpha(g.rng, src, g.rng.Float64Range(alphaLo, alphaHi))
}

// next draws the stream's next op. The write mix of a mixed workload is
// 15% fresh inserts, 10% upserts and 5% deletes out of writeFrac = 30%.
func (g *gen) next() op {
	if g.spec.writeFrac > 0 && len(g.live) > 0 {
		u := g.rng.Float64()
		w := g.spec.writeFrac
		switch {
		case u < w/2:
			k := g.nextKey
			g.nextKey += g.conns
			g.addLive(k)
			return op{kind: opInsert, key: k, vecs: [][]float64{vec.RandomUnit(g.rng, g.dim)}}
		case u < w*5/6:
			k := g.live[g.rng.Intn(len(g.live))]
			return op{kind: opUpsert, key: k, vecs: [][]float64{vec.RandomUnit(g.rng, g.dim)}}
		case u < w:
			k := g.live[g.rng.Intn(len(g.live))]
			g.removeLive(k)
			return op{kind: opDelete, key: k}
		}
	}
	qs := make([][]float64, g.spec.batch)
	for i := range qs {
		qs[i] = g.query()
	}
	return op{kind: opQuery, vecs: qs}
}

// path returns the endpoint an op is sent to.
func (o op) path() string {
	switch {
	case o.kind == opDelete:
		return "/v1/delete"
	case o.kind.isWrite():
		return "/v1/insert"
	case len(o.vecs) == 1:
		return "/v1/query"
	}
	return "/v1/querybatch"
}

// body appends the op's JSON request body to dst. Floats use the
// shortest round-trip form, so the server decodes the exact float64 bits
// the generator holds and the reference answers can be recomputed from
// the generator's copy.
func (o op) body(dst []byte) []byte {
	switch {
	case o.kind == opDelete:
		dst = append(dst, `{"key":`...)
		dst = strconv.AppendUint(dst, o.key, 10)
		return append(dst, '}')
	case o.kind.isWrite():
		dst = append(dst, `{"key":`...)
		dst = strconv.AppendUint(dst, o.key, 10)
		dst = append(dst, `,"vector":`...)
		return append(appendVector(dst, o.vecs[0]), '}')
	case len(o.vecs) == 1:
		dst = append(dst, `{"vector":`...)
		return append(appendVector(dst, o.vecs[0]), '}')
	}
	dst = append(dst, `{"vectors":[`...)
	for i, v := range o.vecs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendVector(dst, v)
	}
	return append(dst, "]}"...)
}

func appendVector(dst []byte, v []float64) []byte {
	dst = append(dst, '[')
	for i, x := range v {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, x, 'g', -1, 64)
	}
	return append(dst, ']')
}
