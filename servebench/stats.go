package main

import (
	"math"
	"sort"

	"dsh/internal/obs"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a p99 needs 1000 samples.
const minBeyond = 10

// supported reports whether a q-quantile of n samples has at least
// minBeyond samples beyond it.
func supported(n int, q float64) bool {
	if n <= 0 {
		return false
	}
	rank := int(math.Ceil(q * float64(n)))
	return n-rank >= minBeyond
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place)
// and whether the percentile rule lets it be reported.
func percentile(xs []float64, q float64) (float64, bool) {
	if !supported(len(xs), q) {
		return 0, false
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1], true
}

// pctOrZero is percentile for per-layer metrics: an unsupported
// percentile reads 0, which no measured duration can be, and the sample
// counts beside it say why.
func pctOrZero(xs []float64, q float64) float64 {
	v, _ := percentile(xs, q)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	n := len(ys)
	if n%2 == 1 {
		return ys[n/2]
	}
	return (ys[n/2-1] + ys[n/2]) / 2
}

// delta is the change of the process metrics registry between two
// snapshots.
type delta struct{ a, b obs.Snapshot }

func (d delta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

func (d delta) hist(name string) obs.HistogramSnapshot {
	x, y := d.a.Histograms[name], d.b.Histograms[name]
	out := obs.HistogramSnapshot{Count: y.Count - x.Count, Sum: y.Sum - x.Sum}
	for i := range out.Buckets {
		out.Buckets[i] = y.Buckets[i] - x.Buckets[i]
	}
	return out
}

// histPct is a per-layer histogram quantile under the percentile rule,
// scaled by unit (e.g. 1e3 for ns -> us); 0 when unsupported.
func (d delta) histPct(name string, q, unit float64) float64 {
	h := d.hist(name)
	if !supported(int(h.Count), q) {
		return 0
	}
	return h.Quantile(q) / unit
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
