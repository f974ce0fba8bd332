package iosnap

import (
	"fmt"

	"iosnap/internal/sim"
)

// rescueSegment synchronously copies every block valid in ANY live epoch off
// seg — reusing the snapshot-aware merge and copy-forward, so snapshotted
// data and note pages survive and every epoch's validity bits plus every
// view's translations are re-pointed — then erases and retires it via
// finishClean. It is the targeted form of CleanOnce, used by the scrubber
// (and available to forced cleaning) when a specific segment is dying.
func (f *FTL) rescueSegment(now sim.Time, seg int) (sim.Time, error) {
	if seg == f.HeadSeg {
		return now, fmt.Errorf("iosnap: cannot rescue the log head segment %d", seg)
	}
	if seg == f.gcVictim {
		return now, fmt.Errorf("iosnap: segment %d is mid-clean", seg)
	}
	if !f.InUse(seg) {
		return now, fmt.Errorf("iosnap: segment %d not in use", seg)
	}
	cost := f.acct.ensureFresh(seg)
	f.stats.GCMergeTime += cost
	now = now.Add(cost)
	merged := f.acct.mergedClone(seg)
	f.orPinsInto(seg, merged)
	order := f.copyOrder(seg, merged)
	cursor := 0
	for cursor < len(order) {
		var err error
		cursor, now, err = f.copyForward(now, seg, merged, order, cursor, len(order))
		if err != nil {
			return now, fmt.Errorf("iosnap: rescuing segment %d: %w", seg, err)
		}
	}
	return f.finishClean(now, seg)
}
