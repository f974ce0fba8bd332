package ftl

import (
	"fmt"

	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// maybeScheduleGC starts a background cleaning task when the free pool is at
// or below the reserve and no cleaner is already running.
func (f *FTL) maybeScheduleGC(now sim.Time) {
	if f.gcActive || f.Closed || len(f.FreeSegs) > f.cfg.ReserveSegments {
		return
	}
	victim, est := f.selectVictim()
	if victim < 0 {
		return
	}
	f.gcActive = true
	f.gcVictim = victim
	quanta := (est + f.cfg.GCChunk - 1) / f.cfg.GCChunk
	task := &gcTask{
		f:       f,
		victim:  victim,
		pacer:   ratelimit.NewPacer(now, quanta, f.cfg.GCWindow),
		started: now,
	}
	f.sched.Schedule(now, task)
}

// selectVictim picks the cleaning victim per the configured policy,
// returning its index and the number of valid pages it still holds (the
// vanilla cleaner's work estimate). It returns -1 when no candidate exists —
// including when every candidate is fully valid, since cleaning a segment
// with nothing invalid reclaims no space and only burns an erase. (The log
// head and a segment the background task is mid-way through cleaning are
// never picked: a forced clean stealing the latter would erase it twice and
// corrupt the free pool.)
//
// Selection runs entirely over the incrementally-maintained counters in
// f.acct: O(log S) for greedy, O(S) for cost-benefit, no bitmap walks.
func (f *FTL) selectVictim() (victim, validPages int) {
	var e *segCounter
	if f.cfg.VictimPolicy == logcore.VictimCostBenefit {
		e = f.acct.bestCostBenefit()
	} else {
		e = f.acct.bestGreedy()
	}
	if e == nil {
		return -1, 0
	}
	return e.seg, f.acct.validCount(e.seg)
}

// gcTask incrementally cleans one victim segment under pacing.
type gcTask struct {
	f       *FTL
	victim  int
	pacer   *ratelimit.Pacer
	started sim.Time
	cursor  int // next page index to examine within the victim
	merged  bool
}

// Name implements sim.Task.
func (t *gcTask) Name() string { return fmt.Sprintf("ftl-gc(seg %d)", t.victim) }

// Run implements sim.Task: one paced quantum of copy-forward.
func (t *gcTask) Run(now sim.Time) (sim.Time, bool) {
	f := t.f
	if !t.merged {
		// Validity examination: a single pass over the segment's bitmap.
		mergeCost := sim.Duration(f.cfg.Nand.PagesPerSegment) * f.cfg.MergeCPUPerBlock
		f.stats.GCMergeTime += mergeCost
		now = now.Add(mergeCost)
		t.merged = true
	}
	var err error
	t.cursor, now, _, err = f.copyForward(now, t.victim, t.cursor, f.cfg.GCChunk)
	if err != nil {
		// Abandon the clean but record why: the victim keeps its remaining
		// valid pages (already-moved ones were re-pointed one by one and the
		// failed destination was rolled back), so forced cleaning can retry.
		f.gcActive = false
		f.gcVictim = -1
		f.stats.GCErrors++
		f.stats.GCLastErr = err.Error()
		return 0, true
	}
	if t.cursor < f.cfg.Nand.PagesPerSegment {
		return t.pacer.Ready(now), false
	}
	now, err = f.finishClean(now, t.victim)
	f.gcActive = false
	f.gcVictim = -1
	if err != nil {
		// Erase failed; the victim stays in UsedSegs, consistent.
		f.stats.GCErrors++
		f.stats.GCLastErr = err.Error()
		return 0, true
	}
	f.stats.GCRuns++
	f.stats.GCTotalTime += now.Sub(t.started)
	f.stats.GCLastAt = now
	f.maybeScheduleGC(now) // chain onto the next victim if still low
	return 0, true
}

// CleanOnce implements logcore.Policy: it synchronously cleans the best
// victim (the forced path taken by writers when the pool is nearly empty).
func (f *FTL) CleanOnce(now sim.Time, forced bool) (sim.Time, error) {
	victim, _ := f.selectVictim()
	if victim < 0 {
		return now, ErrDeviceFull
	}
	mergeCost := sim.Duration(f.cfg.Nand.PagesPerSegment) * f.cfg.MergeCPUPerBlock
	f.stats.GCMergeTime += mergeCost
	now = now.Add(mergeCost)
	start := now
	cursor := 0
	for cursor < f.cfg.Nand.PagesPerSegment {
		var err error
		cursor, now, _, err = f.copyForward(now, victim, cursor, f.cfg.Nand.PagesPerSegment)
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

// copyForward moves up to max valid pages of the victim starting at page
// index cursor, returning the new cursor, the completion time, and how many
// pages were copied.
//
// The quantum is planned first (destination allocation + header decode are
// host-side) and then issued as one devCopyPages call per head segment.
// Copies within one quantum were always pipelined — submitted together at
// the quantum's start, serialized by the device's per-channel queues — so
// the batch submission is virtual-time identical to the per-page reference
// loop below (nand.CopyPages is exactly sequential-equivalent).
func (f *FTL) copyForward(now sim.Time, victim, cursor, max int) (int, sim.Time, int, error) {
	if f.cfg.ReferenceDataPath {
		return f.copyForwardRef(now, victim, cursor, max)
	}
	pps := f.cfg.Nand.PagesPerSegment
	copied := 0
	submit := now
	maxDone := now
	var (
		froms, tos []nand.PageAddr
		hs         []header.Header
		pins       []bool
		idxs       []int // victim page index per planned copy
	)
	for cursor < pps && copied < max {
		froms, tos, hs, pins, idxs = froms[:0], tos[:0], hs[:0], pins[:0], idxs[:0]
		room := max - copied
		var planErr error
		for len(froms) < room && cursor < pps {
			idx := cursor
			cursor++
			old := f.dev.Addr(victim, idx)
			// Checkpoint chunks and translation pages are never valid in the
			// bitmap (they are consumed at recovery or faulted by the map
			// cache, not translated) but pinned pages must survive cleaning:
			// they are copied like valid ones and the anchor / GTD follows.
			pinned := f.Pinned(old)
			if !f.validity.Test(int64(old)) && !pinned {
				continue
			}
			dst, _, err := f.AllocPageGC(submit)
			if err != nil {
				planErr = err
				break
			}
			oob, err := f.dev.PageOOB(old)
			if err != nil {
				f.UngetPage(dst)
				planErr = fmt.Errorf("ftl: cleaner reading header: %w", err)
				break
			}
			h, err := header.Unmarshal(oob)
			if err != nil {
				f.UngetPage(dst)
				planErr = fmt.Errorf("ftl: cleaner decoding header: %w", err)
				break
			}
			froms = append(froms, old)
			tos = append(tos, dst)
			hs = append(hs, h)
			pins = append(pins, pinned)
			idxs = append(idxs, idx)
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
			f.gcFixup(froms[j], tos[j], hs[j], pins[j])
		}
		copied += n
		if copyErr != nil {
			// Hand back the destinations that were planned but never
			// attempted, then the failing page's own (which may have landed
			// after all — UngetPage checks). The cursor resumes just past
			// the failing victim page, exactly as the per-page loop would.
			f.HeadIdx -= len(tos) - n - 1
			f.UngetPage(tos[n])
			return idxs[n] + 1, maxDone, copied, fmt.Errorf("ftl: copy-forward: %w", copyErr)
		}
		if planErr != nil {
			return cursor, maxDone, copied, planErr
		}
	}
	return cursor, maxDone, copied, nil
}

// copyForwardRef is the per-page reference implementation of copyForward,
// kept for the batched-vs-reference equivalence tests (Config.ReferenceDataPath).
func (f *FTL) copyForwardRef(now sim.Time, victim, cursor, max int) (int, sim.Time, int, error) {
	pps := f.cfg.Nand.PagesPerSegment
	copied := 0
	// Copies within one quantum are pipelined (submitted together, the
	// device's per-channel queues serialize them), like a cleaner thread
	// issuing a batch of copyback commands.
	submit := now
	maxDone := now
	for cursor < pps && copied < max {
		idx := cursor
		cursor++
		old := f.dev.Addr(victim, idx)
		pinned := f.Pinned(old)
		if !f.validity.Test(int64(old)) && !pinned {
			continue
		}
		dst, _, err := f.AllocPageGC(submit)
		if err != nil {
			return cursor, maxDone, copied, err
		}
		oob, err := f.dev.PageOOB(old)
		if err != nil {
			f.UngetPage(dst)
			return cursor, maxDone, copied, fmt.Errorf("ftl: cleaner reading header: %w", err)
		}
		h, err := header.Unmarshal(oob)
		if err != nil {
			f.UngetPage(dst)
			return cursor, maxDone, copied, fmt.Errorf("ftl: cleaner decoding header: %w", err)
		}
		done, err := f.DevCopyPage(submit, old, dst)
		if err != nil {
			f.UngetPage(dst)
			return cursor, maxDone, copied, fmt.Errorf("ftl: copy-forward: %w", err)
		}
		if done > maxDone {
			maxDone = done
		}
		f.gcFixup(old, dst, h, pinned)
		copied++
	}
	return cursor, maxDone, copied, nil
}

// gcFixup applies the host-side metadata moves for one copied page: the
// destination inherits the block's age, pins and anchors follow pinned
// pages, and data pages get their translation and validity bit re-pointed.
func (f *FTL) gcFixup(old, dst nand.PageAddr, h header.Header, pinned bool) {
	// The destination inherits the block's age (its original seq), so
	// segments holding cold data still look old to cost-benefit.
	if dseg := f.dev.SegmentOf(dst); h.Seq > f.SegLastSeq[dseg] {
		f.SegLastSeq[dseg] = h.Seq
	}
	if pinned {
		// The pin and the anchor (or in-flight chunk list, or GTD entry)
		// follow the page; no translation or validity bit exists to move.
		f.MovePin(old, dst, h, f.fmap.Paged())
	} else {
		// Re-point the translation and move the validity bit.
		if h.Type == header.TypeData {
			f.fmap.Insert(h.LBA, uint64(dst))
		}
		f.markInvalid(int64(old))
		f.markValid(int64(dst))
	}
	f.stats.GCCopied++
}

// finishClean erases the cleaned victim and returns it to the free pool,
// or retires it (logcore.ReclaimSegment).
func (f *FTL) finishClean(now sim.Time, victim int) (sim.Time, error) {
	done, erased, err := f.ReclaimSegment(now, victim)
	if erased {
		f.stats.GCErases++
	}
	return done, err
}
