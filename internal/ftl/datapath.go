package ftl

// The vanilla FTL's side of the batched data path (the run machinery
// itself lives in logcore): validity flips word-at-a-time over the single
// bitmap, with the per-segment counters adjusted by the number of bits that
// actually transitioned. Config.ReferenceDataPath selects guarded per-bit
// flips instead, on the same virtual-time skeleton, so the two paths
// produce bit-identical device state, Stats, and completion times.

import (
	"fmt"

	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Read implements blockdev.Device. Unmapped sectors read as zeros. Reads
// that fail mid-run report the sectors completed before the failure in
// UserReads/BytesRead and return the virtual time already consumed.
func (f *FTL) Read(now sim.Time, lba int64, buf []byte) (sim.Time, error) {
	ss := f.cfg.Nand.SectorSize
	if len(buf)%ss != 0 {
		return now, fmt.Errorf("%w: %d", ErrBadLength, len(buf))
	}
	n := len(buf) / ss
	if err := f.checkIO(lba, n); err != nil {
		return now, err
	}
	completed, done, err := f.ReadRun(now, f.fmap, lba, n, buf)
	f.stats.UserReads += int64(completed)
	f.stats.BytesRead += int64(completed) * int64(ss)
	return done, err
}

// Write implements blockdev.Device: the run is appended at the log head in
// per-segment chunks, old translations are invalidated, and the forward map
// absorbs the run — Remap-on-Write, one descent per touched leaf. A
// mid-run device failure leaves the completed sectors committed and counted.
func (f *FTL) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	ss := f.cfg.Nand.SectorSize
	if len(data)%ss != 0 {
		return now, fmt.Errorf("%w: %d", ErrBadLength, len(data))
	}
	if err := f.checkIO(lba, len(data)/ss); err != nil {
		return now, err
	}
	written, done, err := f.WriteRun(now, f.fmap, lba, data, 0, f.commitWriteRun)
	f.stats.UserWrites += int64(written)
	f.stats.BytesWritten += int64(written) * int64(ss)
	return done, err
}

// commitWriteRun installs translations for a run of freshly-programmed
// pages: addrs[j] now backs lba0+j. New pages are one contiguous physical
// run in the head segment; displaced translations are invalidated in
// coalesced runs.
func (f *FTL) commitWriteRun(lba0 uint64, addrs []nand.PageAddr) {
	if f.cfg.ReferenceDataPath {
		for j, a := range addrs {
			if prev, existed := f.fmap.Insert(lba0+uint64(j), uint64(a)); existed {
				f.markInvalid(int64(prev))
			}
			f.markValid(int64(a))
		}
		return
	}
	prevs := f.InsertRun(f.fmap, lba0, addrs)
	f.markValidRun(int64(addrs[0]), int64(addrs[0])+int64(len(addrs)))
	f.SegmentRuns(prevs, f.markInvalidRun)
}

// markValidRun sets validity over one segment-contained physical run with a
// word-level kernel, adjusting the per-segment counter by the number of
// bits that actually transitioned — exactly what per-bit markValid calls
// would have recorded.
func (f *FTL) markValidRun(lo, hi int64) {
	delta := int(hi-lo) - f.validity.CountRange(lo, hi)
	if delta == 0 {
		return
	}
	f.validity.SetRange(lo, hi)
	f.acct.onRunDelta(lo, delta)
}

// markInvalidRun is markValidRun's inverse.
func (f *FTL) markInvalidRun(lo, hi int64) {
	if delta := f.validity.CountRange(lo, hi); delta > 0 {
		f.validity.ClearRange(lo, hi)
		f.acct.onRunDelta(lo, -delta)
	}
}

// Trim implements blockdev.Trimmer: it drops the run's translations and
// invalidates the backing pages, making them reclaimable. Like the other
// run operations it charges one MapCPUCost per touched leaf.
func (f *FTL) Trim(now sim.Time, lba int64, n int64) (sim.Time, error) {
	if err := f.checkIO(lba, int(n)); err != nil {
		return now, err
	}
	charge := f.ChargeRun(int(n))
	t, err := f.MapEnsureRange(now, f.fmap, uint64(lba), uint64(lba)+uint64(n))
	if err != nil {
		return t, err
	}
	if f.cfg.ReferenceDataPath {
		for i := int64(0); i < n; i++ {
			if prev, existed := f.fmap.Delete(uint64(lba + i)); existed {
				f.markInvalid(int64(prev))
			}
		}
	} else {
		f.SegmentRuns(f.DeleteRange(f.fmap, uint64(lba), uint64(lba)+uint64(n)), f.markInvalidRun)
	}
	f.stats.Trims += n
	return t.Add(charge), nil
}
