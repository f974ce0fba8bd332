package ftl

import (
	"fmt"

	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// ForceClean schedules a paced background clean of a specific segment (the
// experimental methodology of the paper's Table 4: "we force the cleaner to
// pick up the segment which was just written"). Use CleaningActive to
// observe completion.
func (f *FTL) ForceClean(now sim.Time, seg int) error {
	if f.Closed {
		return ErrClosed
	}
	if f.gcActive {
		return fmt.Errorf("ftl: cleaner already active")
	}
	if seg < 0 || seg >= f.cfg.Nand.Segments || seg == f.HeadSeg {
		return fmt.Errorf("ftl: segment %d not cleanable", seg)
	}
	if !f.InUse(seg) {
		return fmt.Errorf("ftl: segment %d not in use", seg)
	}
	valid := f.acct.validCount(seg)
	quanta := (valid + f.cfg.GCChunk - 1) / f.cfg.GCChunk
	f.gcActive = true
	f.gcVictim = seg
	f.sched.Schedule(now, &gcTask{
		f:       f,
		victim:  seg,
		pacer:   ratelimit.NewPacer(now, quanta, f.cfg.GCWindow),
		started: now,
	})
	return nil
}

// CleaningActive reports whether a cleaner task is in flight.
func (f *FTL) CleaningActive() bool { return f.gcActive }

// UsedSegments returns the segments currently holding data, oldest first
// (the log head is last).
func (f *FTL) UsedSegments() []int { return append([]int(nil), f.UsedSegs...) }
