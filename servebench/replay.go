package main

import (
	"encoding/binary"
	"fmt"
	"runtime"

	"dsh/internal/core"
	"dsh/internal/durable"
	"dsh/internal/index"
	"dsh/internal/xrand"
)

// replayResult counts what the in-process replay executed.
type replayResult struct {
	ops     int // replayed operations (query vectors plus writes)
	vectors int // query vectors hashed and queried
	writes  int
}

// replay sends a fresh op stream of the workload, in-process, through the
// public index and sphere calls with the serving edge's batch shapes, one
// span per call under a replay.op root per batch or write:
//
//   - index.snapshot: ShardedIndex.Snapshot, taken before a query batch
//     whenever the index epoch moved, as the dispatcher does;
//   - sphere.hash: the query hashers of L fresh Family.Sample draws over
//     the batch (HashBatch when the hasher has it and the batch has at
//     least 8 vectors, as the batch engine's pre-hash does);
//   - index.query: ShardedSnapshot.QueryBatchSigned over the batch;
//   - index.write: InsertKeyed or DeleteKeyed;
//   - durable.append: on a durable workload, a WAL append of the same
//     record size through the durable package under durable.Options{},
//     i.e. with its fsync.
//
// Query batches carry groupSize vectors (a bulk op already carries its
// own 64). Writes are replayed until minWrites have run on a writing
// workload, query vectors until minVectors otherwise.
func replay(tr *tracer, ix *index.ShardedIndex[[]float64], fam core.Family[[]float64], g *gen, groupSize, minVectors, minWrites int, walDir string) (res replayResult, err error) {
	L := ix.L()
	rng := xrand.New(g.rng.Uint64())
	pairs := make([]core.Pair[[]float64], L)
	for i := range pairs {
		pairs[i] = fam.Sample(rng)
	}
	var wal *durable.WAL
	if walDir != "" {
		env, err := durable.OpenEnv(walDir, durable.Options{})
		if err != nil {
			return res, fmt.Errorf("replay wal: %w", err)
		}
		if wal, err = env.CreateWAL(1); err != nil {
			return res, fmt.Errorf("replay wal: %w", err)
		}
		defer func() {
			if cerr := wal.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("replay wal: %w", cerr)
			}
		}()
	}
	var ss *index.ShardedSnapshot[[]float64]
	var ssEpoch uint64
	defer func() {
		if ss != nil {
			ss.Release()
		}
	}()
	keys := make([]uint64, 64)
	var pending [][]float64
	flush := func() {
		if len(pending) == 0 {
			return
		}
		root := span{Name: "replay.op", ID: tr.newID(), Start: tr.now()}
		root.Req = root.ID
		if ss == nil || ix.Epoch() != ssEpoch {
			tr.timed("index.snapshot", root.ID, root.Req, func() {
				if ss != nil {
					ss.Release()
				}
				ss = ix.Snapshot()
				ssEpoch = ss.Epoch()
			})
		}
		if len(keys) < len(pending) {
			keys = make([]uint64, len(pending))
		}
		tr.timed("sphere.hash", root.ID, root.Req, func() {
			for _, p := range pairs {
				if bh, ok := p.G.(core.BatchHasher[[]float64]); ok && len(pending) >= 8 {
					bh.HashBatch(pending, keys)
					continue
				}
				for i, q := range pending {
					keys[i] = p.G.Hash(q)
				}
			}
		})
		tr.timed("index.query", root.ID, root.Req, func() {
			ss.QueryBatchSigned(pending, index.BatchOptions{Workers: runtime.GOMAXPROCS(0)})
		})
		root.End = tr.now()
		tr.add(root)
		res.vectors += len(pending)
		res.ops += len(pending)
		pending = pending[:0]
	}
	var rec []byte
	for {
		if g.spec.writeFrac > 0 && res.writes >= minWrites || g.spec.writeFrac == 0 && res.vectors >= minVectors {
			flush()
			return res, nil
		}
		o := g.next()
		if o.kind == opQuery {
			pending = append(pending, o.vecs...)
			if len(pending) >= groupSize {
				flush()
			}
			continue
		}
		flush()
		root := span{Name: "replay.op", ID: tr.newID(), Start: tr.now()}
		root.Req = root.ID
		tr.timed("index.write", root.ID, root.Req, func() {
			if o.kind == opDelete {
				ix.DeleteKeyed(o.key)
			} else {
				ix.InsertKeyed(o.key, o.vecs[0])
			}
		})
		if wal != nil {
			rec = walRecord(rec[:0], o, L)
			tr.timed("durable.append", root.ID, root.Req, func() { _, err = wal.Append(rec) })
			if err != nil {
				return res, fmt.Errorf("replay wal append: %w", err)
			}
		}
		root.End = tr.now()
		tr.add(root)
		res.writes++
		res.ops++
	}
}

// walRecord builds a record laid out like the index's own keyed WAL
// records: op byte, key, then for an upsert the local id, the point
// length, the encoded point and the L hash keys.
func walRecord(dst []byte, o op, L int) []byte {
	dst = append(dst, byte(o.kind))
	dst = binary.LittleEndian.AppendUint64(dst, o.key)
	if o.kind == opDelete {
		return dst
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(o.key))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(8*len(o.vecs[0])))
	dst = durable.Float64Codec{}.AppendPoint(dst, o.vecs[0])
	for i := 0; i < L; i++ {
		dst = binary.LittleEndian.AppendUint64(dst, o.key+uint64(i))
	}
	return dst
}
