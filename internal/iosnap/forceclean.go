package iosnap

import (
	"fmt"

	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// ForceClean schedules a paced background clean of a specific segment —
// the methodology of the paper's Table 4 / Figure 10, which forces the
// cleaner onto the segment holding snapshotted data while foreground I/O
// continues. The work estimate (and hence pacing) follows the configured
// GCPolicy. Use CleaningActive to observe completion.
func (f *FTL) ForceClean(now sim.Time, seg int) error {
	if f.Closed {
		return ErrClosed
	}
	if f.gcActive {
		return fmt.Errorf("iosnap: cleaner already active")
	}
	if seg < 0 || seg >= f.cfg.Nand.Segments || seg == f.HeadSeg {
		return fmt.Errorf("iosnap: segment %d not cleanable", seg)
	}
	if !f.InUse(seg) {
		return fmt.Errorf("iosnap: segment %d not in use", seg)
	}
	pps := int64(f.cfg.Nand.PagesPerSegment)
	lo, hi := int64(seg)*pps, int64(seg+1)*pps
	cost := f.acct.ensureFresh(seg)
	f.stats.GCMergeTime += cost
	est := f.acct.validCount(seg)
	if f.cfg.GCPolicy == GCVanillaEstimate {
		est = f.vstore.CountValid(f.active.epoch, lo, hi)
	}
	quanta := (est + f.cfg.GCChunk - 1) / f.cfg.GCChunk
	f.gcActive = true
	f.gcVictim = seg
	merged := f.acct.mergedClone(seg)
	f.orPinsInto(seg, merged)
	f.sched.Schedule(now, &gcTask{
		f:       f,
		victim:  seg,
		pacer:   ratelimit.NewPacer(now, quanta, f.cfg.GCWindow),
		started: now,
		merged:  merged,
		order:   f.copyOrder(seg, merged),
	})
	return nil
}

// CleaningActive reports whether a cleaner task (scheduled or forced) is in
// flight.
func (f *FTL) CleaningActive() bool { return f.gcActive }

// UsedSegments returns the segments currently holding data, oldest first
// (the log head is last).
func (f *FTL) UsedSegments() []int { return append([]int(nil), f.UsedSegs...) }

// CountValidActive counts active-epoch-valid blocks in [lo, hi) physical
// pages (experiment/diagnostic hook).
func (f *FTL) CountValidActive(lo, hi int64) int {
	return f.vstore.CountValid(f.active.epoch, lo, hi)
}

// CountValidMerged counts merged-valid blocks in [lo, hi) physical pages
// across all live epochs (experiment/diagnostic hook).
func (f *FTL) CountValidMerged(lo, hi int64) int {
	return f.vstore.MergeRange(f.vstore.Epochs(), lo, hi).Count()
}
