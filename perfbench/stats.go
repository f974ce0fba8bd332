package main

import (
	"math"
	"sort"
	"sync"
)

// recorder accumulates per-op-type outcomes and latencies. Each slot
// goroutine owns one tally and merges it once, at the end.
type recorder struct {
	mu sync.Mutex
	t  tally
}

type tally struct {
	attempted  [nKinds]int64
	failed     [nKinds]int64
	lat        [nKinds][]int64 // ns, successful ops only
	mismatches int64           // verification failures (also counted in failed)
	unverified int64           // sectors the model could not decide
	bytes      int64           // payload bytes moved by successful reads and writes
	spans      []span
}

// span is one op observed at a rung boundary: the benchmark wraps each
// call into a layer's public API in one.
type span struct {
	rung  uint8
	kind  opKind
	id    uint64
	start int64 // ns since the rung started
	end   int64
}

func (t *tally) add(k opKind, ns int64, err error) {
	t.attempted[k]++
	if err != nil {
		t.failed[k]++
		return
	}
	t.lat[k] = append(t.lat[k], ns)
}

// verdict folds a verification outcome into the tally: a mismatch turns
// an op that succeeded on the wire into a failed one.
func (t *tally) verdict(k opKind, v verdict) {
	switch v {
	case vMismatch:
		t.mismatches++
		t.failed[k]++
		if n := len(t.lat[k]); n > 0 {
			t.lat[k] = t.lat[k][:n-1]
		}
	case vUnverified:
		t.unverified++
	}
}

func (r *recorder) merge(t *tally) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t.merge(t)
}

func (t *tally) merge(o *tally) {
	for k := range o.attempted {
		t.attempted[k] += o.attempted[k]
		t.failed[k] += o.failed[k]
		t.lat[k] = append(t.lat[k], o.lat[k]...)
	}
	t.mismatches += o.mismatches
	t.unverified += o.unverified
	t.bytes += o.bytes
	t.spans = append(t.spans, o.spans...)
}

func (t *tally) totals() (attempted, failed int64) {
	for k := range t.attempted {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return attempted, failed
}

// permilleLadder lists the percentiles a tail may be reported at, in
// tenths of a percent, highest first. Integer per-mille keeps the rank
// arithmetic exact.
var permilleLadder = []int{999, 990, 950, 900, 750, 500}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the pm-per-mille point of n
// samples.
func rank(n, pm int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	return r
}

// tailPercentile returns the highest ladder percentile not above want that
// leaves at least minBeyond of n samples beyond it, or 0 when none does.
func tailPercentile(n int, want float64) float64 {
	for _, pm := range permilleLadder {
		if float64(pm) <= want*10 && n-rank(n, pm) >= minBeyond {
			return float64(pm) / 10
		}
	}
	return 0
}

// quantile returns the nearest-rank p-th percentile of sorted samples.
func quantile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return float64(sorted[rank(len(sorted), int(math.Round(p*10)))-1])
}

// latency summarises one op type: the median and the tail at the highest
// percentile up to want that the sample count supports.
type latency struct {
	n       int
	p50     float64 // µs
	tailPct float64
	tail    float64 // µs
}

func summarize(ns []int64, want float64) latency {
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	l := latency{n: len(s), p50: quantile(s, 50) / 1e3, tailPct: tailPercentile(len(s), want)}
	if l.tailPct > 0 {
		l.tail = quantile(s, l.tailPct) / 1e3
	}
	return l
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
