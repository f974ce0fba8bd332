package iosnap

// ioSnap's side of the batched data path (the run machinery itself lives in
// logcore): translations move through the view's forward map, and validity
// flips through the CoW store's word-level range kernels — one CoW page
// copy per touched bitmap page, exactly what per-bit flips would have
// copied. The path stays snapshot-oblivious: no per-snapshot work appears
// anywhere; only CoW page copies — charged once, in aggregate, at the end
// of the run — betray a snapshot's existence (Figure 7's spikes).
//
// Config.ReferenceDataPath selects per-bit flips instead, on the same
// virtual-time skeleton, so batched and reference runs of any fault-free
// workload produce bit-identical device state, Stats, and completion times.

import (
	"fmt"

	"iosnap/internal/bitmap"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// readVia serves a run read against any view. It returns the number of
// sectors completed (all of them unless the device failed mid-run), the
// completion time of the work performed, and the first error.
func (f *FTL) readVia(v *view, now sim.Time, lba int64, buf []byte) (completed int, done sim.Time, err error) {
	ss := f.cfg.Nand.SectorSize
	if len(buf)%ss != 0 {
		return 0, now, fmt.Errorf("%w: %d", ErrBadLength, len(buf))
	}
	n := len(buf) / ss
	if err := f.checkIO(lba, n); err != nil {
		return 0, now, err
	}
	return f.ReadRun(now, v.fmap, lba, n, buf)
}

// writeVia appends a run to the log on behalf of a writable view: the run
// lands in per-segment chunks at the head, the view's map absorbs it with
// one descent per touched leaf, and the view epoch's validity flips in
// ranges. CoW page copies are charged in aggregate at the end of the run.
func (f *FTL) writeVia(v *view, now sim.Time, lba int64, data []byte) (completed int, done sim.Time, err error) {
	if f.frozen {
		return 0, now, ErrFrozen
	}
	ss := f.cfg.Nand.SectorSize
	if len(data)%ss != 0 {
		return 0, now, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	if err := f.checkIO(lba, len(data)/ss); err != nil {
		return 0, now, err
	}
	totalCows := 0
	completed, done, err = f.WriteRun(now, v.fmap, lba, data, uint64(v.epoch), func(lba0 uint64, addrs []nand.PageAddr) {
		f.presence.add(f.dev.SegmentOf(addrs[0]), v.epoch)
		totalCows += f.commitWriteRun(v, lba0, addrs)
	})
	if totalCows > 0 {
		done = done.Add(sim.Duration(totalCows) * f.cfg.CoWPageCost)
	}
	return completed, done, err
}

// commitWriteRun installs view translations for a run of freshly-programmed
// pages (addrs[j] backs lba0+j) and flips the view epoch's validity: the
// new pages set as one contiguous range, the displaced translations clear
// in coalesced runs. It returns the number of CoW bitmap-page copies the
// flips triggered — identical to what per-bit flips would have copied,
// since each inherited page is copied exactly once per epoch regardless of
// how many bits in it flip.
func (f *FTL) commitWriteRun(v *view, lba0 uint64, addrs []nand.PageAddr) int {
	cows := 0
	if f.cfg.ReferenceDataPath {
		for j, a := range addrs {
			if prev, existed := v.fmap.Insert(lba0+uint64(j), uint64(a)); existed {
				if f.vstore.Clear(v.epoch, int64(prev)) {
					cows++
				}
				f.acct.onViewClear(v.epoch, int64(prev))
			}
			if f.vstore.Set(v.epoch, int64(a)) {
				cows++
			}
			f.acct.onViewSet(int64(a))
		}
		return cows
	}
	prevs := f.InsertRun(v.fmap, lba0, addrs)
	lo, hi := int64(addrs[0]), int64(addrs[0])+int64(len(addrs))
	cows += f.vstore.SetRange(v.epoch, lo, hi)
	f.acct.onViewSetRun(lo, hi)
	return cows + f.clearViewRuns(v.epoch, prevs)
}

// clearViewRuns clears the given physical pages in epoch e, coalescing
// sorted neighbours into ClearRange calls (split at segment boundaries so
// the accounting hook stays within one merge cache). Returns CoW copies.
func (f *FTL) clearViewRuns(e bitmap.Epoch, prevs []uint64) int {
	cows := 0
	f.SegmentRuns(prevs, func(lo, hi int64) {
		cows += f.vstore.ClearRange(e, lo, hi)
		f.acct.onViewClearRun(e, lo, hi)
	})
	return cows
}

// Trim drops active-view translations for the run. The pages remain live in
// any snapshot that captured them; only the active epoch's bits clear. Like
// the other run operations it charges one MapCPUCost per touched leaf.
func (f *FTL) Trim(now sim.Time, lba int64, n int64) (sim.Time, error) {
	// A closed device refuses trims with ErrClosed even if it was frozen
	// when it closed — closed beats frozen, matching Read and Write.
	if err := f.checkIO(lba, int(n)); err != nil {
		return now, err
	}
	if f.frozen {
		return now, ErrFrozen
	}
	charge := f.ChargeRun(int(n))
	// Paged map: fault only the translation pages that exist inside the
	// trimmed range (a discard over a hole touches nothing).
	t, err := f.MapEnsureRange(now, f.active.fmap, uint64(lba), uint64(lba)+uint64(n))
	if err != nil {
		return t, err
	}
	if f.cfg.ReferenceDataPath {
		for i := int64(0); i < n; i++ {
			if prev, existed := f.active.fmap.Delete(uint64(lba + i)); existed {
				f.vstore.Clear(f.active.epoch, int64(prev))
				f.acct.onViewClear(f.active.epoch, int64(prev))
			}
		}
	} else {
		f.clearViewRuns(f.active.epoch, f.DeleteRange(f.active.fmap, uint64(lba), uint64(lba)+uint64(n)))
	}
	f.stats.Trims += n
	return t.Add(charge), nil
}
