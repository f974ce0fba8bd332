// Package logcore is the log-structured core both FTLs share: the VSL log
// of the paper's §5.2 without any notion of validity. It owns the log head
// and its Remap-on-Write appends, the free and used segment pools, the
// retry-wrapped media boundary with segment suspicion and retirement,
// checkpoint chunk pinning and anchoring, the flash-resident paged map's
// fault and write-back glue, the batched foreground data path, and the
// cleaner's victim scoring.
//
// What a block's validity means — one bitmap in the vanilla FTL, epoch CoW
// bitmaps plus a snapshot tree in ioSnap — stays with the FTL, which embeds
// a Log and hands it a Policy for the few decisions that depend on it.
package logcore

import (
	"errors"
	"fmt"
	"sort"

	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// Policy is what an FTL supplies to its Log: the cleaner, the accounting
// hooks for segments entering and leaving the log, the background work a
// head advance arms, and the checkpoint contents.
type Policy interface {
	// CleanOnce synchronously cleans one victim segment. The log head calls
	// it with forced=true when the free pool is down to the reserve; it
	// returns ErrDeviceFull when nothing is reclaimable.
	CleanOnce(now sim.Time, forced bool) (sim.Time, error)
	// SegmentOpened is called once for every erased segment that becomes
	// the log head.
	SegmentOpened(seg int)
	// SegmentReleased is called once for every segment that leaves service
	// in its current life: erased back to the free pool, or retired.
	SegmentReleased(seg int)
	// HeadAdvanced runs after the head moved onto a new segment on the
	// write path, where the FTL arms its background cleaner, checkpoint and
	// any other periodic task.
	HeadAdvanced(now sim.Time)
	// MapFrozen reports that the device forbids programs, so the paged map
	// must keep dirty translation pages resident instead of writing them
	// back.
	MapFrozen() bool
	// SerializeCheckpoint captures the FTL's checkpoint at this instant:
	// its identity (the log sequence number it covers) and the chunks to
	// program.
	SerializeCheckpoint() (id uint64, chunks []Chunk, err error)
}

// Log is the shared log state. An FTL embeds one and calls Init before use
// with the device and scheduler it owns; the simulation is single-threaded,
// so nothing here locks.
type Log struct {
	HeadSeg    int      // segment currently absorbing appends
	HeadIdx    int      // next page index within HeadSeg
	Seq        uint64   // global write sequence number
	FreeSegs   []int    // erased segments available for the log head
	UsedSegs   []int    // segments with data, oldest first (HeadSeg is last)
	SegLastSeq []uint64 // newest write sequence in each segment (victim aging)

	Degraded bool // write path currently shedding load with ErrOutOfSpace
	Closed   bool

	// Checkpoint state. Chunk pages are never valid — they are consumed at
	// recovery, not translated — so the pin set is what keeps the cleaner
	// from erasing the newest durable checkpoint (and one in flight) out
	// from under a future recovery; pinned pages are copy-forwarded like
	// valid ones and the anchor follows them. AnchorID/AnchorAddrs mirror
	// the device anchor; CkptInflight is the partial chunk list of a
	// running background checkpoint task.
	CkptActive   bool
	LastCkpt     sim.Time // completion time of the last committed checkpoint
	CkptPins     map[nand.PageAddr]bool
	AnchorID     uint64
	AnchorAddrs  []nand.PageAddr
	CkptInflight []nand.PageAddr

	// MapPins protects on-flash translation pages (paged map mode) the same
	// way CkptPins protects checkpoint chunks: translation pages are never
	// valid, so the pin is their only cleaning protection. Keyed by flash
	// address, valued by translation-page index.
	MapPins map[nand.PageAddr]uint64

	Counters Counters

	cfg   Config
	dev   *nand.Device
	sched *sim.Scheduler
	pol   Policy
	ws    scratch
}

// Counters is the log core's share of an FTL's Stats; each FTL copies them
// into its own Stats.
type Counters struct {
	Retries          int64 // NAND operations re-attempted by the retry policy
	MediaFailures    int64 // permanent media failures (each marks a segment suspect)
	OutOfSpaceWrites int64 // writes shed with ErrOutOfSpace

	// Batched data-path accounting. The reference path reports the same
	// numbers — what the batched path would have submitted.
	BatchDescents  int64 // leaf descents charged for run operations
	BatchPages     int64 // pages submitted through batch NAND entry points
	BatchNandCalls int64 // batch NAND calls issued (one per run chunk)

	Checkpoints       int64  // checkpoints committed (anchor updated)
	CheckpointChunks  int64  // chunk pages programmed by committed checkpoints
	CheckpointErrors  int64  // checkpoint attempts aborted by errors
	CheckpointLastErr string // most recent aborting error ("" when none)
}

// Init prepares an empty log over dev with no segment in use. Callers then
// either Format it or rebuild the pools from a recovery scan.
func (l *Log) Init(cfg Config, dev *nand.Device, sched *sim.Scheduler, pol Policy) {
	*l = Log{
		SegLastSeq: make([]uint64, cfg.Nand.Segments),
		CkptPins:   make(map[nand.PageAddr]bool),
		MapPins:    make(map[nand.PageAddr]uint64),
		cfg:        cfg,
		dev:        dev,
		sched:      sched,
		pol:        pol,
	}
}

// Format lays out a freshly erased device: segment 0 is the log head and
// every other segment is free.
func (l *Log) Format() {
	for s := l.cfg.Nand.Segments - 1; s >= 1; s-- {
		l.FreeSegs = append(l.FreeSegs, s)
	}
	l.HeadSeg = 0
	l.UsedSegs = []int{0}
	l.pol.SegmentOpened(0)
}

// openSegment makes the first free segment the log head.
func (l *Log) openSegment() {
	l.HeadSeg = l.FreeSegs[0]
	l.FreeSegs = l.FreeSegs[1:]
	l.HeadIdx = 0
	l.UsedSegs = append(l.UsedSegs, l.HeadSeg)
	l.pol.SegmentOpened(l.HeadSeg)
}

// AllocPage returns the next log-head page, forcing synchronous cleaning
// when the pool is down to the rescue reserve. The returned time reflects
// any cleaning the caller had to wait for.
func (l *Log) AllocPage(now sim.Time) (nand.PageAddr, sim.Time, error) {
	return l.AllocPageReserve(now, l.cfg.DataReserve())
}

// AllocPageReserve allocates a log-head page while keeping at least reserve
// segments free. Space-freeing operations pass a lower reserve so they
// still work while the device is degraded; everything else goes through
// AllocPage.
func (l *Log) AllocPageReserve(now sim.Time, reserve int) (nand.PageAddr, sim.Time, error) {
	if l.HeadIdx == l.cfg.Nand.PagesPerSegment {
		// Forced cleaning: the pool is down to the reserve and the writer
		// must wait. If cleaning cannot lift it back out, the write is shed
		// instead of bricking the device — reads, trims, and GC continue,
		// and the next write re-evaluates the pool from scratch.
		for len(l.FreeSegs) <= reserve {
			var err error
			now, err = l.pol.CleanOnce(now, true)
			if err != nil {
				if errors.Is(err, ErrDeviceFull) {
					l.Degraded = true
					l.Counters.OutOfSpaceWrites++
					return 0, now, ErrOutOfSpace
				}
				return 0, now, err
			}
		}
		l.Degraded = false
		l.openSegment()
		l.pol.HeadAdvanced(now)
	}
	addr := l.dev.Addr(l.HeadSeg, l.HeadIdx)
	l.HeadIdx++
	return addr, now, nil
}

// AllocPageGC allocates a log-head page for the cleaner. Unlike writer
// allocation it never forces a nested clean; if the pool is exhausted the
// device is genuinely out of reclaimable space.
func (l *Log) AllocPageGC(now sim.Time) (nand.PageAddr, sim.Time, error) {
	if l.HeadIdx == l.cfg.Nand.PagesPerSegment {
		if len(l.FreeSegs) == 0 {
			return 0, now, ErrDeviceFull
		}
		l.openSegment()
	}
	addr := l.dev.Addr(l.HeadSeg, l.HeadIdx)
	l.HeadIdx++
	return addr, now, nil
}

// UngetPage rolls back the most recent AllocPage/AllocPageGC after a failed
// program. Without it the unprogrammed page becomes a permanent hole at the
// log head: SequentialProg devices reject every later program in the
// segment with ErrOutOfOrder, turning one transient fault into a bricked
// log. Only the exact page just handed out is reclaimed, and only if the
// program really did not land.
func (l *Log) UngetPage(addr nand.PageAddr) {
	if l.HeadIdx == 0 || addr != l.dev.Addr(l.HeadSeg, l.HeadIdx-1) {
		return
	}
	if _, err := l.dev.PageOOB(addr); err == nil {
		return // the program landed after all (e.g. a post-program fault)
	}
	l.HeadIdx--
}

// SealHead abandons the rest of a suspect head segment so subsequent
// appends land on healthy media; the suspect segment's existing data is
// rescued when the cleaner (or a scrubber) picks it. With no spare free
// segment the head stays put (the next write retries in place rather than
// starving the cleaner).
func (l *Log) SealHead() {
	if l.dev.SegmentHealth(l.HeadSeg) == nand.Healthy || len(l.FreeSegs) <= 1 {
		return
	}
	l.openSegment()
}

// RetireSegment removes a fully-rescued segment from service: the device
// refuses further programs/erases, and the segment leaves both pools for
// good. Callers must have moved every valid page off it first.
func (l *Log) RetireSegment(seg int) {
	l.dev.Retire(seg)
	l.UsedSegs = removeSeg(l.UsedSegs, seg)
	l.FreeSegs = removeSeg(l.FreeSegs, seg)
	l.pol.SegmentReleased(seg)
}

// ReclaimSegment erases a cleaned victim and returns it to the free pool —
// or retires it. By this point every valid page has been copied off, so a
// permanently failing or suspect victim can leave service without losing a
// byte; returning it to the pool would just let the next writer trip over
// the same dying segment. erased reports whether an erase completed (the
// cleaner's erase counter). On a non-media erase error the victim stays in
// the used list, consistent, for a later clean to retry.
func (l *Log) ReclaimSegment(now sim.Time, victim int) (done sim.Time, erased bool, err error) {
	done, err = l.DevEraseSegment(now, victim)
	if err != nil {
		if retry.MediaFailure(err) {
			l.RetireSegment(victim)
			return now, false, nil
		}
		return now, false, fmt.Errorf("log: erasing segment %d: %w", victim, err)
	}
	if l.dev.SegmentHealth(victim) != nand.Healthy {
		l.RetireSegment(victim)
		return done, true, nil
	}
	l.UsedSegs = removeSeg(l.UsedSegs, victim)
	l.FreeSegs = append(l.FreeSegs, victim)
	l.pol.SegmentReleased(victim)
	return done, true, nil
}

// RebuildGeometry reconstructs the segment pools and the log head from the
// per-segment summaries a recovery scan produced: used segments in log
// order (oldest newest-sequence first), the rest free, retired ones in
// neither. The head resumes at the newest segment if it still has room —
// and is healthy; appending onto suspect media would repeat the failure
// that made it suspect. No Policy hook runs: the caller registers the used
// segments with its accounting itself.
func (l *Log) RebuildGeometry(segUsed []bool, segMaxSeq []uint64) error {
	type segOrder struct {
		seg int
		seq uint64
	}
	var used []segOrder
	for seg := 0; seg < l.cfg.Nand.Segments; seg++ {
		switch {
		case l.dev.SegmentHealth(seg) == nand.Retired:
			// Belongs to neither pool: a grown bad block stays out of service.
		case segUsed[seg]:
			used = append(used, segOrder{seg, segMaxSeq[seg]})
		default:
			l.FreeSegs = append(l.FreeSegs, seg)
		}
	}
	sort.SliceStable(used, func(i, j int) bool { return used[i].seq < used[j].seq })
	for _, u := range used {
		l.UsedSegs = append(l.UsedSegs, u.seg)
	}
	copy(l.SegLastSeq, segMaxSeq)
	if n := len(l.UsedSegs); n > 0 {
		last := l.UsedSegs[n-1]
		if next := l.dev.NextFreeInSegment(last); next < l.cfg.Nand.PagesPerSegment && l.dev.SegmentHealth(last) == nand.Healthy {
			l.HeadSeg, l.HeadIdx = last, next
			return nil
		}
	}
	if len(l.FreeSegs) == 0 {
		return ErrDeviceFull
	}
	l.HeadSeg = l.FreeSegs[0]
	l.FreeSegs = l.FreeSegs[1:]
	l.HeadIdx = 0
	l.UsedSegs = append(l.UsedSegs, l.HeadSeg)
	return nil
}

// InUse reports whether seg is in the used list.
func (l *Log) InUse(seg int) bool {
	for _, s := range l.UsedSegs {
		if s == seg {
			return true
		}
	}
	return false
}

// removeSeg deletes the first occurrence of seg, preserving order.
func removeSeg(segs []int, seg int) []int {
	for i, s := range segs {
		if s == seg {
			return append(segs[:i], segs[i+1:]...)
		}
	}
	return segs
}
