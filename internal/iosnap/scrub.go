package iosnap

import (
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// The background scrubber walks the used segments oldest-first (the log
// order of UsedSegs), read-verifying every programmed page's OOB header and
// rescuing + retiring any segment found (or already marked) suspect. Each
// pass is a single sim.Task: it finishes after one walk rather than
// rescheduling itself forever, so Scheduler.Drain terminates; the next pass
// is re-armed opportunistically from the allocation path once ScrubInterval
// has elapsed (or immediately when a suspect segment is waiting). Scans are
// paced by the same work/sleep budget activation throttling uses, so a scrub
// shares the device with foreground I/O instead of monopolizing it.

// maybeScheduleScrub arms a scrub pass when scrubbing is enabled and either
// the interval has elapsed or a suspect segment awaits rescue.
func (f *FTL) maybeScheduleScrub(now sim.Time) {
	if f.scrubActive || f.Closed || f.cfg.ScrubInterval <= 0 {
		return
	}
	suspect, _ := f.dev.HealthCounts()
	if suspect == 0 && now.Sub(f.lastScrub) < f.cfg.ScrubInterval {
		return
	}
	f.StartScrub(now)
}

// StartScrub arms one scrub pass immediately, regardless of ScrubInterval.
// It reports whether a pass was started (false when one is already running
// or the device is closed).
func (f *FTL) StartScrub(now sim.Time) bool {
	if f.scrubActive || f.Closed {
		return false
	}
	f.scrubActive = true
	f.sched.Schedule(now, &scrubTask{
		f:      f,
		segs:   append([]int(nil), f.UsedSegs...),
		budget: ratelimit.NewBudget(f.cfg.ScrubLimit),
	})
	return true
}

// ScrubActive reports whether a scrub pass is in flight.
func (f *FTL) ScrubActive() bool { return f.scrubActive }

// scrubTask is one paced pass over a snapshot of the used-segment list.
type scrubTask struct {
	f      *FTL
	segs   []int
	cursor int
	budget *ratelimit.Budget
}

// Name implements sim.Task.
func (t *scrubTask) Name() string { return "iosnap-scrub" }

// Run implements sim.Task: verify segments until the budget exhausts, then
// sleep; finish the pass after one walk.
func (t *scrubTask) Run(now sim.Time) (sim.Time, bool) {
	f := t.f
	if f.Closed {
		f.scrubActive = false
		return 0, true
	}
	for t.cursor < len(t.segs) {
		seg := t.segs[t.cursor]
		t.cursor++
		if seg == f.HeadSeg || seg == f.gcVictim || !f.InUse(seg) {
			// The head is still being appended; a segment mid-clean belongs
			// to the cleaner; a since-freed segment has nothing to verify.
			continue
		}
		start := now
		if f.dev.SegmentHealth(seg) == nand.Healthy {
			// Read-verify: the scan exercises every programmed page's OOB
			// read path; a permanent failure marks the segment suspect via
			// the media wrapper, and the rescue below picks it up.
			if _, done, err := f.DevScanSegmentOOB(now, seg); err == nil {
				now = done
			}
		}
		f.stats.ScrubSegments++
		if f.dev.SegmentHealth(seg) == nand.Suspect {
			// Rescue failures (e.g. ErrDeviceFull) leave the segment suspect
			// for the cleaner or the next pass; its data is still readable.
			if done, err := f.rescueSegment(now, seg); err == nil {
				now = done
				f.stats.ScrubRescues++
			}
		}
		if sleep, exhausted := t.budget.Charge(now.Sub(start)); exhausted && t.cursor < len(t.segs) {
			return now.Add(sleep), false
		}
	}
	f.scrubActive = false
	f.lastScrub = now
	f.stats.ScrubPasses++
	f.stats.ScrubLastAt = now
	return 0, true
}
