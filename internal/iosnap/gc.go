package iosnap

import (
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// The snapshot-aware segment cleaner (paper §5.4.3). Cleaning a segment:
//
//  1. merge the per-epoch validity bitmaps (logical OR, skipping deleted
//     epochs) into a cumulative map for the segment;
//  2. copy-forward the blocks valid in the merged map, preserving their
//     epoch tags (the OOB header moves verbatim);
//  3. for every live epoch that referenced a moved block, clear the old bit
//     and set the new one — in the worst case as many flips as epochs;
//  4. re-point the forward map of every view (active and activated) whose
//     translation referenced the moved block;
//  5. erase the victim.

// mergeSegment computes the merged validity for one segment from scratch.
// The hot paths read the incremental caches in gcacct.go instead; this stays
// as the reference implementation for the accounting invariant check, the
// victim-selection benchmark, and diagnostics.
func (f *FTL) mergeSegment(seg int) (*bitmap.Bitmap, sim.Duration) {
	pps := int64(f.cfg.Nand.PagesPerSegment)
	lo, hi := int64(seg)*pps, int64(seg+1)*pps
	epochs := f.vstore.Epochs()
	merged := f.vstore.MergeRange(epochs, lo, hi)
	// Host cost: one pass per live (non-deleted) epoch over the segment.
	live := 0
	for _, e := range epochs {
		if !f.vstore.Deleted(e) {
			live++
		}
	}
	cost := sim.Duration(int64(live)) * sim.Duration(pps) * f.cfg.MergeCPUPerBlock
	return merged, cost
}

// selectVictim picks the non-head segment with the best score under the
// *merged* view (the only correct notion of invalid once snapshots exist),
// returning the victim, its merged valid count, the active-epoch valid
// count (the vanilla estimate), and the merge CPU charged for bringing
// stale caches up to date. A segment with no merged-invalid block is never
// a victim — cleaning it would be pure copy-forward churn. The log head and
// a segment mid-clean are never picked (a forced clean stealing the latter
// would erase it twice and corrupt the free pool).
func (f *FTL) selectVictim() (victim, mergedValid, activeValid int, cost sim.Duration) {
	cost = f.acct.refreshAll()
	f.stats.GCVictimSelects++
	if cost == 0 {
		f.stats.GCCacheHits++
	}
	var e *segAcct
	if f.cfg.VictimPolicy == logcore.VictimCostBenefit {
		e = f.acct.bestCostBenefit()
	} else {
		e = f.acct.bestGreedy()
	}
	if e == nil {
		return -1, 0, 0, cost
	}
	pps := int64(f.cfg.Nand.PagesPerSegment)
	lo, hi := int64(e.seg)*pps, int64(e.seg+1)*pps
	return e.seg, e.valid, f.vstore.CountValid(f.active.epoch, lo, hi), cost
}

// selectVictimScratch re-derives the victim by a full re-merge of every
// used segment — the pre-incremental algorithm. Kept (uncharged) as the
// reference the accounting cross-check and BenchmarkVictimSelect compare
// against.
func (f *FTL) selectVictimScratch() (victim, mergedValid int) {
	pps := int64(f.cfg.Nand.PagesPerSegment)
	best := -1
	bestScore := -1.0
	bestMerged := 0
	for _, seg := range f.UsedSegs {
		if seg == f.HeadSeg || seg == f.gcVictim {
			continue
		}
		merged, _ := f.mergeSegment(seg)
		mv := merged.Count()
		invalid := int(pps) - mv - f.PinnedInSeg(seg)
		if invalid <= 0 {
			continue
		}
		score := logcore.VictimScore(f.cfg.VictimPolicy, invalid, mv, f.Seq, f.SegLastSeq[seg])
		if score > bestScore {
			best, bestScore, bestMerged = seg, score, mv
		}
	}
	return best, bestMerged
}

// releaseGCGate returns a background clean's budget token, if a gate is
// arbitrating cleans across FTL instances.
func (f *FTL) releaseGCGate() {
	if f.cfg.GCGate != nil {
		f.cfg.GCGate.Release()
	}
}

// maybeScheduleGC starts background cleaning when the pool is low. With a
// GCGate configured, a clean only starts when the shared budget grants a
// token; a denied shard retries on its next head advance.
func (f *FTL) maybeScheduleGC(now sim.Time) {
	if f.gcActive || f.Closed || len(f.FreeSegs) > f.cfg.ReserveSegments {
		return
	}
	if f.cfg.GCGate != nil && !f.cfg.GCGate.TryAcquire() {
		return
	}
	victim, mergedValid, activeValid, cost := f.selectVictim()
	f.stats.GCMergeTime += cost
	if victim < 0 {
		f.releaseGCGate()
		return
	}
	est := mergedValid
	if f.cfg.GCPolicy == GCVanillaEstimate {
		// The unmodified driver plans from the active epoch only; with
		// snapshots present this underestimates the copy-forward work and
		// the tail of the clean runs unpaced (Figure 10b).
		est = activeValid
	}
	quanta := (est + f.cfg.GCChunk - 1) / f.cfg.GCChunk
	f.gcActive = true
	f.gcVictim = victim
	// Hand the selection-time merged map to the task: re-merging it in the
	// task's first quantum would charge GCMergeTime twice for one clean.
	merged := f.acct.mergedClone(victim)
	f.orPinsInto(victim, merged)
	task := &gcTask{
		f:       f,
		victim:  victim,
		pacer:   ratelimit.NewPacer(now, quanta, f.cfg.GCWindow),
		started: now,
		merged:  merged,
		order:   f.copyOrder(victim, merged),
	}
	f.sched.Schedule(now, task)
}

// gcTask incrementally cleans one victim under pacing.
type gcTask struct {
	f       *FTL
	victim  int
	pacer   *ratelimit.Pacer
	started sim.Time
	order   []int // victim page indices to examine, in copy order
	cursor  int
	merged  *bitmap.Bitmap
}

// Name implements sim.Task.
func (t *gcTask) Name() string { return fmt.Sprintf("iosnap-gc(seg %d)", t.victim) }

// Run implements sim.Task.
func (t *gcTask) Run(now sim.Time) (sim.Time, bool) {
	f := t.f

	var err error
	t.cursor, now, err = f.copyForward(now, t.victim, t.merged, t.order, t.cursor, f.cfg.GCChunk)
	if err != nil {
		// Abort, but leave the victim cleanable: blocks already moved had
		// their validity bits and translations re-pointed one by one, the
		// failed destination page was rolled back by copyForward, and the
		// victim stays in UsedSegs for a later clean to re-select. Record
		// the error instead of dropping it on the floor.
		t.abort(err)
		return 0, true
	}
	if t.cursor < len(t.order) {
		next := t.pacer.Ready(now)
		if _, overrun := t.pacer.Consumed(); overrun {
			// The estimate was exhausted: this quantum (and the rest of the
			// segment) runs unthrottled — the failure mode of a snapshot-
			// unaware work estimate (Figure 10b).
			f.stats.GCUnpacedQuanta++
		}
		return next, false
	}
	now, err = f.finishClean(now, t.victim)
	f.gcActive = false
	f.gcVictim = -1
	f.releaseGCGate()
	if err != nil {
		// Erase failed: finishClean left the victim in UsedSegs and its
		// remaining valid blocks untouched, so the device is consistent.
		f.stats.GCErrors++
		f.stats.GCLastErr = err.Error()
		return 0, true
	}
	f.stats.GCRuns++
	f.stats.GCTotalTime += now.Sub(t.started)
	f.stats.GCLastAt = now
	f.maybeScheduleGC(now)
	return 0, true
}

// abort ends a background clean on a device error, recording it in Stats.
func (t *gcTask) abort(err error) {
	f := t.f
	f.gcActive = false
	f.gcVictim = -1
	f.releaseGCGate()
	f.stats.GCErrors++
	f.stats.GCLastErr = err.Error()
}

// copyOrder lists the victim's valid page indices. With EpochSegregation
// the cleaner groups blocks by epoch so data of one snapshot stays
// co-located after cleaning (§5.4.2's policy, built as an ablation).
func (f *FTL) copyOrder(victim int, merged *bitmap.Bitmap) []int {
	pps := f.cfg.Nand.PagesPerSegment
	idxs := make([]int, 0, pps)
	for i := 0; i < pps; i++ {
		if merged.Test(int64(i)) {
			idxs = append(idxs, i)
		}
	}
	if !f.cfg.EpochSegregation {
		return idxs
	}
	type tagged struct{ idx, epoch int }
	tags := make([]tagged, 0, len(idxs))
	for _, i := range idxs {
		e := 0
		if oob, err := f.dev.PageOOB(f.dev.Addr(victim, i)); err == nil {
			if h, err := header.Unmarshal(oob); err == nil {
				e = int(h.Epoch)
			}
		}
		tags = append(tags, tagged{i, e})
	}
	sort.SliceStable(tags, func(a, b int) bool { return tags[a].epoch < tags[b].epoch })
	out := make([]int, len(tags))
	for i, tg := range tags {
		out[i] = tg.idx
	}
	return out
}

// CleanOnce implements logcore.Policy: it synchronously cleans the best
// victim (forced path). Selection already leaves the victim's merged map
// cached and fresh, so the clean reuses it instead of merging (and
// charging) a second time.
func (f *FTL) CleanOnce(now sim.Time, forced bool) (sim.Time, error) {
	victim, _, _, cost := f.selectVictim()
	f.stats.GCMergeTime += cost
	now = now.Add(cost)
	if victim < 0 {
		return now, ErrDeviceFull
	}
	merged := f.acct.mergedClone(victim)
	f.orPinsInto(victim, merged)
	order := f.copyOrder(victim, merged)
	start := now
	cursor := 0
	for cursor < len(order) {
		var err error
		cursor, now, err = f.copyForward(now, victim, merged, order, cursor, len(order))
		if err != nil {
			return now, err
		}
	}
	now, err := f.finishClean(now, victim)
	if err != nil {
		return now, err
	}
	f.stats.GCRuns++
	if forced {
		f.stats.GCForced++
	}
	f.stats.GCTotalTime += now.Sub(start)
	f.stats.GCLastAt = now
	return now, nil
}

// copyForward moves up to max blocks from order[cursor:], fixing every
// epoch's validity bits and every view's translation.
//
// The quantum is planned first (destination allocation + header decode are
// host-side) and then issued as one devCopyPages call per head segment.
// Copies within one quantum were always pipelined — submitted together at
// the quantum's start and serialized by the device's per-channel queues —
// so the batch submission is virtual-time identical to the per-page
// reference loop below (nand.CopyPages is exactly sequential-equivalent).
func (f *FTL) copyForward(now sim.Time, victim int, merged *bitmap.Bitmap, order []int, cursor, max int) (int, sim.Time, error) {
	if f.cfg.ReferenceDataPath {
		return f.copyForwardRef(now, victim, merged, order, cursor, max)
	}
	copied := 0
	submit := now
	maxDone := now
	pps := f.cfg.Nand.PagesPerSegment
	var (
		froms, tos []nand.PageAddr
		hs         []header.Header
		pins       []bool
	)
	for cursor < len(order) && copied < max {
		froms, tos, hs, pins = froms[:0], tos[:0], hs[:0], pins[:0]
		room := max - copied
		var planErr error
		for len(froms) < room && cursor < len(order) {
			idx := order[cursor]
			cursor++
			old := f.dev.Addr(victim, idx)
			dst, _, err := f.AllocPageGC(submit)
			if err != nil {
				planErr = err
				break
			}
			oob, err := f.dev.PageOOB(old)
			if err != nil {
				f.UngetPage(dst)
				planErr = fmt.Errorf("iosnap: cleaner reading header: %w", err)
				break
			}
			h, err := header.Unmarshal(oob)
			if err != nil {
				f.UngetPage(dst)
				planErr = fmt.Errorf("iosnap: cleaner decoding header: %w", err)
				break
			}
			froms = append(froms, old)
			tos = append(tos, dst)
			hs = append(hs, h)
			pins = append(pins, f.Pinned(old))
			if len(froms) == 1 {
				// Confine the batch to the current head segment so a
				// mid-batch failure rolls back with a plain headIdx walk.
				if r := 1 + pps - f.HeadIdx; r < room {
					room = r
				}
			}
		}
		n, d, copyErr := f.DevCopyPages(submit, froms, tos)
		if d > maxDone {
			maxDone = d
		}
		for j := 0; j < n; j++ {
			f.gcFixup(victim, froms[j], tos[j], hs[j], pins[j])
		}
		copied += n
		if copyErr != nil {
			// Hand back the destinations that were planned but never
			// attempted, then the failing page's own (which may have landed
			// after all — UngetPage checks). The cursor resumes just past
			// the failing entry in order, exactly as the per-page loop would.
			unattempted := len(tos) - n - 1
			f.HeadIdx -= unattempted
			f.UngetPage(tos[n])
			cursor -= unattempted
			return cursor, maxDone, fmt.Errorf("iosnap: copy-forward: %w", copyErr)
		}
		if planErr != nil {
			return cursor, maxDone, planErr
		}
	}
	return cursor, maxDone, nil
}

// copyForwardRef is the per-page reference implementation of copyForward,
// kept for the batched-vs-reference equivalence tests (Config.ReferenceDataPath).
func (f *FTL) copyForwardRef(now sim.Time, victim int, merged *bitmap.Bitmap, order []int, cursor, max int) (int, sim.Time, error) {
	copied := 0
	// Copies within one quantum are pipelined: all are submitted at the
	// quantum's start and the device's per-channel queues serialize them,
	// exactly like a cleaner thread issuing a batch of copyback commands.
	submit := now
	maxDone := now
	for cursor < len(order) && copied < max {
		idx := order[cursor]
		cursor++
		old := f.dev.Addr(victim, idx)
		dst, t, err := f.AllocPageGC(submit)
		if err != nil {
			return cursor, maxDone, err
		}
		_ = t
		oob, err := f.dev.PageOOB(old)
		if err != nil {
			f.UngetPage(dst)
			return cursor, maxDone, fmt.Errorf("iosnap: cleaner reading header: %w", err)
		}
		h, err := header.Unmarshal(oob)
		if err != nil {
			f.UngetPage(dst)
			return cursor, maxDone, fmt.Errorf("iosnap: cleaner decoding header: %w", err)
		}
		pinned := f.Pinned(old)
		done, err := f.DevCopyPage(submit, old, dst)
		if err != nil {
			f.UngetPage(dst)
			return cursor, maxDone, fmt.Errorf("iosnap: copy-forward: %w", err)
		}
		if done > maxDone {
			maxDone = done
		}
		f.gcFixup(victim, old, dst, h, pinned)
		copied++
	}
	return cursor, maxDone, nil
}

// gcFixup applies the host-side metadata moves for one copied block: the
// destination inherits the block's age and epoch presence, pins and anchors
// follow pinned pages, every holding epoch's validity bit is re-pointed
// (step 3), and every view's forward map entry follows (step 4).
func (f *FTL) gcFixup(victim int, old, dst nand.PageAddr, h header.Header, pinned bool) {
	// The destination inherits the block's age (its original seq), so
	// segments holding cold data still look old to cost-benefit.
	dseg := f.dev.SegmentOf(dst)
	if h.Seq > f.SegLastSeq[dseg] {
		f.SegLastSeq[dseg] = h.Seq
	}
	// Checkpoint chunks carry chunk geometry in the Epoch field, not an
	// epoch, and translation pages are valid in no epoch: neither
	// contributes to presence, and their pins follow the page instead of
	// validity bits.
	if !h.Type.IsCheckpoint() && h.Type != header.TypeMapPage {
		f.presence.add(dseg, bitmap.Epoch(h.Epoch))
	}
	if pinned {
		f.MovePin(old, dst, h, f.pagedActive())
	}

	// Step 3: re-point every live epoch that saw the old block. In the
	// worst case this flips bits in as many maps as there are epochs.
	// Holders MUST be computed before any mutation: clearing an
	// ancestor's bit first would make an inheriting descendant test
	// false and silently lose the block.
	var holders []bitmap.Epoch
	for _, e := range f.vstore.Epochs() {
		if !f.vstore.Deleted(e) && f.vstore.Test(e, int64(old)) {
			holders = append(holders, e)
		}
	}
	// Epochs() enumerates in map order; the clear/set order below decides
	// which epochs pay CoW push-down copies, so fix it for reproducibility.
	sort.Slice(holders, func(a, b int) bool { return holders[a] < holders[b] })
	for _, e := range holders {
		f.vstore.Clear(e, int64(old))
		f.vstore.Set(e, int64(dst))
	}
	// Mirror the re-point in the incremental accounting: the holders are
	// known exactly here, so both the merged and the frozen caches can be
	// fixed without a rebuild.
	frozenHolder := false
	for _, e := range holders {
		isView := false
		for _, v := range f.views {
			if v.epoch == e {
				isView = true
				break
			}
		}
		if !isView {
			frozenHolder = true
			break
		}
	}
	f.acct.onBlockMoved(old, dst, len(holders) > 0, frozenHolder)
	// Step 4: re-point forward maps.
	if h.Type == header.TypeData {
		for _, v := range f.views {
			if cur, ok := v.fmap.Lookup(h.LBA); ok && cur == uint64(old) {
				v.fmap.Insert(h.LBA, uint64(dst))
			}
		}
	}
	// Keep in-flight activations and exports coherent.
	for _, a := range f.activations {
		a.onBlockMoved(old, dst, h)
	}
	for _, x := range f.exports {
		x.onBlockMoved(old, dst, h)
	}
	f.stats.GCCopied++
	if f.dev.SegmentHealth(victim) != nand.Healthy {
		f.stats.RescuedPages++
	}
}

// finishClean erases the cleaned victim and returns it to the pool, or
// retires it (logcore.ReclaimSegment). By this point every block valid in
// ANY live epoch has been copied off (copy-forward runs under the merged
// validity map), so a retired victim loses no byte of any snapshot.
func (f *FTL) finishClean(now sim.Time, victim int) (sim.Time, error) {
	done, erased, err := f.ReclaimSegment(now, victim)
	if erased {
		f.stats.GCErases++
	}
	return done, err
}

// SegmentEpochRuns measures epoch intermixing: the number of maximal runs
// of equal-epoch programmed pages in a segment (1 = perfectly co-located).
// Used by the epoch-segregation ablation bench.
func (f *FTL) SegmentEpochRuns(seg int) int {
	pps := f.cfg.Nand.PagesPerSegment
	runs := 0
	prev := int64(-1)
	for i := 0; i < pps; i++ {
		oob, err := f.dev.PageOOB(f.dev.Addr(seg, i))
		if err != nil {
			continue
		}
		h, err := header.Unmarshal(oob)
		if err != nil {
			continue
		}
		if int64(h.Epoch) != prev {
			runs++
			prev = int64(h.Epoch)
		}
	}
	return runs
}
