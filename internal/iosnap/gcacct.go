package iosnap

import (
	"iosnap/internal/bitmap"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Incremental merged-validity accounting for the snapshot-aware cleaner.
//
// The cleaner's victim choice needs, per used segment, the number of blocks
// valid in ANY live epoch (the merged view, paper §5.4.3). Recomputing that
// merge for every used segment at every scheduling decision costs
// O(segments × live-epochs × pages-per-segment); this layer makes it
// incremental instead:
//
//   - every used segment carries a cached merged bitmap plus a merged-valid
//     counter, updated O(1) on each validity-bit flip (write, trim,
//     copy-forward re-point);
//   - epoch create/delete (and view publish/retire) invalidates lazily by
//     advancing a generation stamp; a stale segment's cache is rebuilt
//     word-at-a-time — one pass per live epoch over just that segment —
//     at most once per epoch-set change;
//   - greedy victim selection reads a score-ordered heap (most merged-
//     invalid first), so a decision with fresh caches costs O(log segments)
//     instead of a device-wide re-merge. Cost-benefit scores depend on a
//     globally drifting age term, so that policy scans the cached counters
//     (O(segments) integer work, still no merging).
//
// To keep view-epoch clears O(1), two bitmaps are cached per segment: the
// full merge ("merged") and the merge over live epochs that do NOT back a
// view ("frozen"). Frozen epochs only change under the cleaner's re-points,
// where the affected epochs are known exactly, so after a view epoch clears
// bit p the new merged bit is frozen(p) OR the other views' bits — a
// constant number of probes.

// segAcct is one used segment's cached cleaning state.
type segAcct struct {
	seg     int
	merged  *bitmap.Bitmap // OR of validity across all live epochs (segment-relative)
	frozen  *bitmap.Bitmap // OR across live epochs not backing a view
	valid   int            // merged.Count()
	gen     uint64         // accounting generation the caches were built against
	stamp   uint64         // log-order insertion stamp (victim tie-break)
	heapIdx int            // position in the greedy heap (-1 when untracked)
}

// gcAcct owns the per-segment caches and the greedy selection heap.
type gcAcct struct {
	f        *FTL
	bySeg    []*segAcct // indexed by segment; nil when not in UsedSegs
	heap     []*segAcct // best victim first: fewest merged-valid, oldest stamp
	stamp    uint64
	viewGen  uint64 // advanced when the set of view-backing epochs changes
	freshGen uint64 // generation as of the last complete refreshAll
}

func newGCAcct(f *FTL) *gcAcct {
	return &gcAcct{f: f, bySeg: make([]*segAcct, f.cfg.Nand.Segments)}
}

// curGen combines the validity store's epoch generation (create/delete)
// with the view generation (publish/deactivate): cached merges are exact
// only while both stand still.
func (a *gcAcct) curGen() uint64 { return a.f.vstore.Gen() + a.viewGen }

// bumpViewGen invalidates the frozen/view epoch split (an epoch moved
// between the "backs a view" and "frozen" classes without the store's
// epoch set changing).
func (a *gcAcct) bumpViewGen() { a.viewGen++ }

// track registers a segment that just entered UsedSegs. freshEmpty marks a
// just-erased segment entering service as log head: no live epoch holds a
// bit there, so its cache starts exact (all-zero) with no rebuild charge.
// Recovery passes false — caches start stale and the first selection
// decision rebuilds them.
func (a *gcAcct) track(seg int, freshEmpty bool) {
	pps := int64(a.f.cfg.Nand.PagesPerSegment)
	a.stamp++
	e := &segAcct{seg: seg, stamp: a.stamp, heapIdx: -1}
	if freshEmpty {
		e.merged = bitmap.New(pps)
		e.frozen = bitmap.New(pps)
		e.gen = a.curGen()
	}
	a.bySeg[seg] = e
	a.heapPush(e)
}

// untrack drops a segment that left UsedSegs (erased back to the pool, or
// retired). Untracking an untracked segment is a no-op so RetireSegment can
// call it unconditionally.
func (a *gcAcct) untrack(seg int) {
	e := a.bySeg[seg]
	if e == nil {
		return
	}
	a.heapRemove(e)
	a.bySeg[seg] = nil
}

// entryFor returns the fresh cache entry covering physical page p, or nil
// when the page's segment is untracked or its cache is stale (a stale cache
// ignores flips; the next rebuild recomputes it exactly).
func (a *gcAcct) entryFor(p int64) (*segAcct, int64) {
	pps := int64(a.f.cfg.Nand.PagesPerSegment)
	e := a.bySeg[p/pps]
	if e == nil || e.gen != a.curGen() {
		return nil, 0
	}
	return e, p % pps
}

// onViewSet records that a view epoch set validity bit p (write path, note
// append). A set bit in any live epoch sets the merged bit.
func (a *gcAcct) onViewSet(p int64) {
	e, rel := a.entryFor(p)
	if e == nil {
		return
	}
	if !e.merged.Test(rel) {
		e.merged.Set(rel)
		e.valid++
		a.heapFix(e)
	}
}

// onViewClear records that view epoch ve cleared validity bit p (overwrite
// of a previous translation, or trim). The post-clear merged bit is the
// frozen cache ORed with the remaining views' bits.
func (a *gcAcct) onViewClear(ve bitmap.Epoch, p int64) {
	e, rel := a.entryFor(p)
	if e == nil || !e.merged.Test(rel) {
		return
	}
	if e.frozen.Test(rel) {
		return
	}
	for _, v := range a.f.views {
		if v.epoch != ve && a.f.vstore.Test(v.epoch, p) {
			return
		}
	}
	e.merged.Clear(rel)
	e.valid--
	a.heapFix(e)
}

// onViewSetRun is onViewSet over one segment-contained physical run: the
// merged cache absorbs the range word-at-a-time and the heap fixes once,
// recording exactly the transitions per-bit calls would have.
func (a *gcAcct) onViewSetRun(lo, hi int64) {
	e, rel := a.entryFor(lo)
	if e == nil {
		return
	}
	n := hi - lo
	delta := int(n) - e.merged.CountRange(rel, rel+n)
	if delta > 0 {
		e.merged.SetRange(rel, rel+n)
		e.valid += delta
		a.heapFix(e)
	}
}

// onViewClearRun is onViewClear over one segment-contained run. The
// per-bit holder checks (frozen cache, other live views) cannot be
// batched — they depend on each bit's cross-epoch state — but the heap
// fixes once for the whole run.
func (a *gcAcct) onViewClearRun(ve bitmap.Epoch, lo, hi int64) {
	e, rel := a.entryFor(lo)
	if e == nil {
		return
	}
	delta := 0
	for p, r := lo, rel; p < hi; p, r = p+1, r+1 {
		if !e.merged.Test(r) || e.frozen.Test(r) {
			continue
		}
		held := false
		for _, v := range a.f.views {
			if v.epoch != ve && a.f.vstore.Test(v.epoch, p) {
				held = true
				break
			}
		}
		if held {
			continue
		}
		e.merged.Clear(r)
		delta++
	}
	if delta > 0 {
		e.valid -= delta
		a.heapFix(e)
	}
}

// onBlockMoved records a cleaner copy-forward: every live holder's validity
// bit moved from old to dst. frozenHolder reports whether any holder epoch
// does not back a view, i.e. whether the frozen cache's bit moves too.
func (a *gcAcct) onBlockMoved(old, dst nand.PageAddr, anyHolder, frozenHolder bool) {
	if !anyHolder {
		return
	}
	if e, rel := a.entryFor(int64(old)); e != nil {
		if e.merged.Test(rel) {
			e.merged.Clear(rel)
			e.valid--
			a.heapFix(e)
		}
		e.frozen.Clear(rel)
	}
	if e, rel := a.entryFor(int64(dst)); e != nil {
		if !e.merged.Test(rel) {
			e.merged.Set(rel)
			e.valid++
			a.heapFix(e)
		}
		if frozenHolder {
			e.frozen.Set(rel)
		}
	}
}

// ensureFresh rebuilds seg's caches if they are stale and returns the
// modeled CPU charge: one pass per live epoch over this segment's pages
// (the same per-segment work the old selection paid device-wide, now paid
// at most once per epoch-set change per segment). Fresh caches charge
// nothing.
func (a *gcAcct) ensureFresh(seg int) sim.Duration {
	e := a.bySeg[seg]
	gen := a.curGen()
	if e.gen == gen {
		return 0
	}
	f := a.f
	pps := int64(f.cfg.Nand.PagesPerSegment)
	lo, hi := int64(seg)*pps, int64(seg+1)*pps
	isView := make(map[bitmap.Epoch]bool, len(f.views))
	for _, v := range f.views {
		isView[v.epoch] = true
	}
	var frozenEps, viewEps []bitmap.Epoch
	for _, ep := range f.vstore.Epochs() {
		if f.vstore.Deleted(ep) {
			continue
		}
		if isView[ep] {
			viewEps = append(viewEps, ep)
		} else {
			frozenEps = append(frozenEps, ep)
		}
	}
	e.frozen = f.vstore.MergeRangeInto(frozenEps, lo, hi, e.frozen)
	if e.merged == nil || e.merged.Len() != pps {
		e.merged = e.frozen.Clone()
	} else {
		e.merged.CopyFrom(e.frozen)
	}
	f.vstore.OrRangeInto(viewEps, lo, hi, e.merged)
	e.valid = e.merged.Count()
	e.gen = gen
	a.heapFix(e)
	f.stats.GCCacheRebuilds++
	f.stats.GCCacheRebuildPages += pps
	live := int64(len(frozenEps) + len(viewEps))
	return sim.Duration(live) * sim.Duration(pps) * f.cfg.MergeCPUPerBlock
}

// refreshAll brings every used segment's cache up to the current generation
// before a selection decision. When nothing changed since the last decision
// this is a single counter compare; after an epoch-set change each stale
// segment pays one rebuild. Deleted epochs can only shrink merged validity,
// so stale counters may under-estimate a segment's score — selection must
// therefore run on all-fresh caches, not pop lazily from the heap.
func (a *gcAcct) refreshAll() sim.Duration {
	if a.freshGen == a.curGen() {
		return 0
	}
	var total sim.Duration
	for _, seg := range a.f.UsedSegs {
		total += a.ensureFresh(seg)
	}
	a.freshGen = a.curGen()
	return total
}

// mergedClone hands out a private copy of seg's cached merged bitmap (the
// caller must have refreshed it). The clone decouples the cleaner's copy
// plan from accounting updates that land while the clean is paced out.
func (a *gcAcct) mergedClone(seg int) *bitmap.Bitmap {
	return a.bySeg[seg].merged.Clone()
}

// validCount returns seg's cached merged-valid counter (caller refreshes).
func (a *gcAcct) validCount(seg int) int {
	return a.bySeg[seg].valid
}

// bestGreedy returns the heap top excluding the log head and an in-flight
// victim, or nil when no candidate has a merged-invalid block. Parked
// entries are pushed back, so the heap is unchanged on return.
func (a *gcAcct) bestGreedy() *segAcct {
	f := a.f
	pps := f.cfg.Nand.PagesPerSegment
	var parked []*segAcct
	var best *segAcct
	for len(a.heap) > 0 {
		top := a.heap[0]
		// Skip the head, an in-flight victim, and segments with nothing
		// reclaimable once pinned checkpoint chunks count as live.
		if top.seg == f.HeadSeg || top.seg == f.gcVictim ||
			pps-top.valid-f.PinnedInSeg(top.seg) <= 0 {
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

// bestCostBenefit scans the cached counters in log order (the age term
// drifts with every write, so a static heap key cannot order it). Segments
// with no merged-invalid block are never candidates.
func (a *gcAcct) bestCostBenefit() *segAcct {
	f := a.f
	pps := f.cfg.Nand.PagesPerSegment
	var best *segAcct
	bestScore := -1.0
	for _, seg := range f.UsedSegs {
		if seg == f.HeadSeg || seg == f.gcVictim {
			continue
		}
		e := a.bySeg[seg]
		invalid := pps - e.valid - f.PinnedInSeg(seg)
		if invalid <= 0 {
			continue
		}
		score := logcore.VictimScore(logcore.VictimCostBenefit, invalid, e.valid, f.Seq, f.SegLastSeq[seg])
		if score > bestScore {
			best, bestScore = e, score
		}
	}
	return best
}

// ---- Greedy max-heap: fewest merged-valid first, oldest stamp on ties. ----
// The stamp tie-break reproduces the old linear scan's first-max rule:
// stamps are handed out at every UsedSegs append, so stamp order IS log
// order.

func (a *gcAcct) better(x, y *segAcct) bool {
	if x.valid != y.valid {
		return x.valid < y.valid
	}
	return x.stamp < y.stamp
}

func (a *gcAcct) heapSwap(i, j int) {
	a.heap[i], a.heap[j] = a.heap[j], a.heap[i]
	a.heap[i].heapIdx = i
	a.heap[j].heapIdx = j
}

func (a *gcAcct) heapPush(e *segAcct) {
	e.heapIdx = len(a.heap)
	a.heap = append(a.heap, e)
	a.siftUp(e.heapIdx)
}

func (a *gcAcct) heapRemove(e *segAcct) {
	i := e.heapIdx
	last := len(a.heap) - 1
	a.heapSwap(i, last)
	a.heap = a.heap[:last]
	e.heapIdx = -1
	if i < last {
		moved := a.heap[i]
		a.siftUp(moved.heapIdx)
		a.siftDown(moved.heapIdx)
	}
}

// heapFix restores the heap property after e's valid counter changed.
func (a *gcAcct) heapFix(e *segAcct) {
	if e.heapIdx < 0 {
		return
	}
	a.siftUp(e.heapIdx)
	a.siftDown(e.heapIdx)
}

func (a *gcAcct) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !a.better(a.heap[i], a.heap[p]) {
			break
		}
		a.heapSwap(i, p)
		i = p
	}
}

func (a *gcAcct) siftDown(i int) {
	n := len(a.heap)
	for {
		best := i
		if l := 2*i + 1; l < n && a.better(a.heap[l], a.heap[best]) {
			best = l
		}
		if r := 2*i + 2; r < n && a.better(a.heap[r], a.heap[best]) {
			best = r
		}
		if best == i {
			return
		}
		a.heapSwap(i, best)
		i = best
	}
}
