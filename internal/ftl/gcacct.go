package ftl

// Incremental valid-page accounting for the vanilla cleaner.
//
// The vanilla FTL has a single validity bitmap, so per-segment valid counts
// can be maintained exactly on every bit flip — there is no epoch set to go
// stale, hence no generation stamps or cache rebuilds (contrast with the
// snapshot-aware gcAcct in package iosnap). Victim selection becomes O(log S)
// for the greedy policy (a min-valid heap) and O(S) for cost-benefit (a
// counter scan), instead of O(S × pages-per-segment) bitmap popcounts per
// decision.
//
// Determinism: the old selectVictim scanned UsedSegs oldest-first and kept
// the first strict maximum. The heap reproduces that order by breaking
// valid-count ties on a monotone insertion stamp; segments are tracked in
// the order they enter UsedSegs, and removals never reorder survivors, so
// stamp order always equals UsedSegs order.

import "iosnap/internal/logcore"

// segCounter is one tracked (in-use) segment's heap entry.
type segCounter struct {
	seg     int
	stamp   uint64 // monotone tracking order; ties on valid break oldest-first
	heapIdx int
}

// gcAcct holds the per-segment counters and the greedy selection heap.
type gcAcct struct {
	f     *FTL
	valid []int         // valid pages per segment; exact at all times
	bySeg []*segCounter // tracked segments by index (nil = not tracked)
	heap  []*segCounter // min-heap: valid asc, then stamp asc
	stamp uint64
}

func newGCAcct(f *FTL) *gcAcct {
	return &gcAcct{
		f:     f,
		valid: make([]int, f.cfg.Nand.Segments),
		bySeg: make([]*segCounter, f.cfg.Nand.Segments),
	}
}

// track registers a segment that just entered UsedSegs.
func (a *gcAcct) track(seg int) {
	if a.bySeg[seg] != nil {
		return
	}
	a.stamp++
	e := &segCounter{seg: seg, stamp: a.stamp}
	a.bySeg[seg] = e
	a.heapPush(e)
}

// untrack drops a segment that left UsedSegs (erased or retired). Nil-safe:
// retirement may hit segments that were already in the free pool.
func (a *gcAcct) untrack(seg int) {
	e := a.bySeg[seg]
	if e == nil {
		return
	}
	a.heapRemove(e)
	a.bySeg[seg] = nil
}

func (a *gcAcct) validCount(seg int) int { return a.valid[seg] }

// onSet / onClear keep the counters exact; FTL.markValid / markInvalid
// guarantee each call corresponds to a real bit transition.
func (a *gcAcct) onSet(p int64) {
	seg := int(p) / a.f.cfg.Nand.PagesPerSegment
	a.valid[seg]++
	if e := a.bySeg[seg]; e != nil {
		a.heapFix(e)
	}
}

func (a *gcAcct) onClear(p int64) {
	seg := int(p) / a.f.cfg.Nand.PagesPerSegment
	a.valid[seg]--
	if e := a.bySeg[seg]; e != nil {
		a.heapFix(e)
	}
}

// onRunDelta applies delta bit transitions at once for a run contained in
// the segment holding page p — the batched data path's bulk counterpart of
// onSet/onClear (callers pass the number of bits that actually flipped).
func (a *gcAcct) onRunDelta(p int64, delta int) {
	seg := int(p) / a.f.cfg.Nand.PagesPerSegment
	a.valid[seg] += delta
	if e := a.bySeg[seg]; e != nil {
		a.heapFix(e)
	}
}

// bestGreedy returns the cleanable segment with the most invalid pages
// (fewest valid), oldest-first on ties — or nil when nothing is reclaimable.
// The log head and an in-flight victim are parked aside during the search.
func (a *gcAcct) bestGreedy() *segCounter {
	f := a.f
	var parked []*segCounter
	var best *segCounter
	for len(a.heap) > 0 {
		top := a.heap[0]
		// A victim must itself hold reclaimable pages: cleaning a segment
		// that is fully valid — counting pinned checkpoint chunks, which the
		// cleaner copies but can never invalidate — reclaims nothing, burns
		// an erase, and (picked repeatedly) would wedge the emergency-clean
		// loop shuffling pins from segment to segment.
		if top.seg == f.HeadSeg || top.seg == f.gcVictim ||
			f.cfg.Nand.PagesPerSegment-a.valid[top.seg]-f.PinnedInSeg(top.seg) <= 0 {
			a.heapRemove(top)
			parked = append(parked, top)
			continue
		}
		best = top
		break
	}
	for _, e := range parked {
		a.heapPush(e)
	}
	return best
}

// bestCostBenefit scans UsedSegs oldest-first with the classic LFS
// benefit/cost score over the cached counters. O(S), no bitmap walks.
func (a *gcAcct) bestCostBenefit() *segCounter {
	f := a.f
	pps := f.cfg.Nand.PagesPerSegment
	var best *segCounter
	bestScore := -1.0
	for _, seg := range f.UsedSegs {
		if seg == f.HeadSeg || seg == f.gcVictim {
			continue
		}
		valid := a.valid[seg]
		invalid := pps - valid - f.PinnedInSeg(seg)
		if invalid <= 0 {
			continue
		}
		score := logcore.VictimScore(logcore.VictimCostBenefit, invalid, valid, f.Seq, f.SegLastSeq[seg])
		if score > bestScore {
			best, bestScore = a.bySeg[seg], score
		}
	}
	return best
}

// ---- heap (min by valid count, then by insertion stamp) ----

func (a *gcAcct) better(x, y *segCounter) bool {
	vx, vy := a.valid[x.seg], a.valid[y.seg]
	if vx != vy {
		return vx < vy
	}
	return x.stamp < y.stamp
}

func (a *gcAcct) heapSwap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.heap[i].heapIdx = i
	a.heap[j].heapIdx = j
}

func (a *gcAcct) heapPush(e *segCounter) {
	e.heapIdx = len(a.heap)
	a.heap = append(a.heap, e)
	a.siftUp(e.heapIdx)
}

func (a *gcAcct) heapRemove(e *segCounter) {
	i := e.heapIdx
	last := len(a.heap) - 1
	if i != last {
		a.heapSwap(i, last)
	}
	a.heap = a.heap[:last]
	e.heapIdx = -1
	if i < last {
		a.heapFix(a.heap[i])
	}
}

func (a *gcAcct) heapFix(e *segCounter) {
	i := e.heapIdx
	a.siftUp(i)
	a.siftDown(e.heapIdx)
}

func (a *gcAcct) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !a.better(a.heap[i], a.heap[parent]) {
			return
		}
		a.heapSwap(i, parent)
		i = parent
	}
}

func (a *gcAcct) siftDown(i int) {
	n := len(a.heap)
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && a.better(a.heap[l], a.heap[min]) {
			min = l
		}
		if r < n && a.better(a.heap[r], a.heap[min]) {
			min = r
		}
		if min == i {
			return
		}
		a.heapSwap(i, min)
		i = min
	}
}
