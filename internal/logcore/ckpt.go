package logcore

import (
	"fmt"

	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// Checkpoint writing. The FTL serializes (Policy.SerializeCheckpoint); the
// log programs the chunks at the head, pins them against the cleaner, and
// publishes the generation by flipping the device anchor — atomically, and
// only once every chunk landed. The checkpoint's identity doubles as its
// cut-off (the log sequence number at serialization), so foreground writes
// that land while a background checkpoint is still programming carry newer
// sequence numbers and are replayed on top at recovery.

// Chunk is one sector-sized piece of a serialized checkpoint stream. Its
// OOB header carries the stream type, the chunk index (LBA field) and the
// stream's chunk count (Epoch field), so a scan can group a generation's
// chunks and prove it complete before decoding anything.
type Chunk struct {
	Type  header.Type
	Data  []byte
	Idx   int
	Total int
}

// AppendPage programs one metadata page at the log head, keeping reserve
// free segments: it allocates, stamps the next sequence number into h,
// programs the payload built for that sequence number, and ages the
// segment. A failed program rolls the allocation back and, on a permanent
// media failure, seals the head so future appends move off the failing
// segment. The returned error is unwrapped; callers name what they wrote.
func (l *Log) AppendPage(now sim.Time, reserve int, h header.Header, payload func(seq uint64) []byte) (nand.PageAddr, sim.Time, error) {
	addr, now, err := l.AllocPageReserve(now, reserve)
	if err != nil {
		return 0, now, err
	}
	l.Seq++
	h.Seq = l.Seq
	done, err := l.DevProgramPage(now, addr, payload(l.Seq), h.Marshal())
	if err != nil {
		l.UngetPage(addr)
		if retry.MediaFailure(err) {
			l.SealHead()
		}
		return 0, now, err
	}
	// Metadata pages age their segment exactly like data: the checkpoint
	// segment table's per-segment newest sequence comes from SegLastSeq and
	// must match what a recovery scan of the same segment reports.
	l.SegLastSeq[l.dev.SegmentOf(addr)] = l.Seq
	return addr, done, nil
}

// programChunk appends one checkpoint chunk and pins it against the
// cleaner.
func (l *Log) programChunk(now sim.Time, c Chunk) (nand.PageAddr, sim.Time, error) {
	h := header.Header{Type: c.Type, LBA: uint64(c.Idx), Epoch: uint64(c.Total)}
	addr, done, err := l.AppendPage(now, l.cfg.DataReserve(), h, func(uint64) []byte { return c.Data })
	if err != nil {
		return 0, done, fmt.Errorf("log: writing %v chunk %d: %w", c.Type, c.Idx, err)
	}
	l.CkptPins[addr] = true
	return addr, done, nil
}

// commitCheckpoint atomically publishes a fully-programmed checkpoint: the
// device anchor flips to the new generation and the superseded
// generation's pins drop, making its chunks reclaimable.
func (l *Log) commitCheckpoint(now sim.Time, id uint64, addrs []nand.PageAddr) {
	for _, a := range l.AnchorAddrs {
		delete(l.CkptPins, a)
	}
	l.AnchorID = id
	l.AnchorAddrs = addrs
	l.dev.SetAnchor(&nand.Anchor{ID: id, Addrs: addrs})
	l.LastCkpt = now
	l.Counters.Checkpoints++
	l.Counters.CheckpointChunks += int64(len(addrs))
}

// checkpointFailed records an aborted checkpoint attempt.
func (l *Log) checkpointFailed(err error) {
	l.Counters.CheckpointErrors++
	l.Counters.CheckpointLastErr = err.Error()
}

// abortCheckpoint unpins a partial generation; the previous anchor stays.
func (l *Log) abortCheckpoint(addrs []nand.PageAddr, err error) {
	for _, a := range addrs {
		delete(l.CkptPins, a)
	}
	l.checkpointFailed(err)
}

// PinnedInSeg counts pinned pages (checkpoint chunks and live
// GTD-referenced translation pages) in seg. Victim scoring treats them as
// live: a segment full of pinned pages has nothing valid yet cleaning it
// reclaims nothing.
func (l *Log) PinnedInSeg(seg int) int {
	n := 0
	for a := range l.CkptPins {
		if l.dev.SegmentOf(a) == seg {
			n++
		}
	}
	for a := range l.MapPins {
		if l.dev.SegmentOf(a) == seg {
			n++
		}
	}
	return n
}

// Pinned reports whether the cleaner must preserve addr although no
// validity bit covers it.
func (l *Log) Pinned(addr nand.PageAddr) bool {
	_, mapPinned := l.MapPins[addr]
	return l.CkptPins[addr] || mapPinned
}

// MovePin follows a copy-forwarded pinned page: a translation page's pin
// and GTD entry (in the active map's cache c, nil in tree mode) move to
// dst; for a checkpoint chunk, whichever list names it — the committed
// anchor or the in-flight chunk list — is updated in place, and a moved
// anchor chunk republishes the device anchor so recovery still finds every
// chunk.
func (l *Log) MovePin(old, dst nand.PageAddr, h header.Header, c *mapcache.Cache) {
	if h.Type == header.TypeMapPage {
		idx, ok := l.MapPins[old]
		if !ok {
			return
		}
		delete(l.MapPins, old)
		l.MapPins[dst] = idx
		if c != nil {
			c.Relocate(idx, uint64(old), uint64(dst))
		}
		return
	}
	delete(l.CkptPins, old)
	l.CkptPins[dst] = true
	for i, a := range l.AnchorAddrs {
		if a == old {
			l.AnchorAddrs[i] = dst
			l.dev.SetAnchor(&nand.Anchor{ID: l.AnchorID, Addrs: l.AnchorAddrs})
			return
		}
	}
	for i, a := range l.CkptInflight {
		if a == old {
			l.CkptInflight[i] = dst
			return
		}
	}
}

// WriteCheckpoint synchronously serializes and programs a checkpoint of an
// FTL whose active forward map is m (the Close path). A failure is recorded
// in the counters and leaves the previous anchor intact; the returned time
// includes the NAND time a partial attempt consumed.
func (l *Log) WriteCheckpoint(now sim.Time, m *mapcache.Map) (sim.Time, error) {
	// CkptActive guards the whole sequence: the map flushes below advance
	// the log head, which must not arm a second (background) checkpoint.
	l.CkptActive = true
	defer func() { l.CkptActive = false }()
	if c := m.Paged(); c != nil && c.Bounded() {
		var err error
		if now, err = l.FlushAllMapPages(now, c); err != nil {
			l.checkpointFailed(err)
			return now, err
		}
	}
	id, chunks, err := l.pol.SerializeCheckpoint()
	if err != nil {
		l.checkpointFailed(err)
		return now, err
	}
	var addrs []nand.PageAddr
	for _, c := range chunks {
		var addr nand.PageAddr
		addr, now, err = l.programChunk(now, c)
		if err != nil {
			l.abortCheckpoint(addrs, err)
			return now, err
		}
		addrs = append(addrs, addr)
	}
	l.commitCheckpoint(now, id, addrs)
	return now, nil
}

// MaybeScheduleCheckpoint arms the periodic background checkpoint from the
// head-advance path, the same way the cleaner is armed.
func (l *Log) MaybeScheduleCheckpoint(now sim.Time, m *mapcache.Map) {
	if l.CkptActive || l.Closed || l.cfg.CheckpointInterval <= 0 || !l.cfg.Nand.StoreData {
		return
	}
	if now.Sub(l.LastCkpt) < l.cfg.CheckpointInterval {
		return
	}
	l.startCheckpoint(now, m)
}

// StartCheckpoint forces a background checkpoint now (tests and tools). It
// reports whether a task was scheduled.
func (l *Log) StartCheckpoint(now sim.Time, m *mapcache.Map) bool {
	if l.CkptActive || l.Closed {
		return false
	}
	return l.startCheckpoint(now, m)
}

func (l *Log) startCheckpoint(now sim.Time, m *mapcache.Map) bool {
	t := &ckptTask{l: l, m: m, budget: ratelimit.NewBudget(l.cfg.CheckpointLimit)}
	if c := m.Paged(); c != nil && c.Bounded() {
		// A bounded paged map must flush every dirty translation page before
		// serializing, and flushing programs through the log head — which
		// cannot happen here: startCheckpoint fires from the head-advance
		// path, possibly mid-program under SequentialProg. Defer both the
		// flush and the serialization to the task's first run.
		t.pending = true
	} else {
		var err error
		if t.id, t.chunks, err = l.pol.SerializeCheckpoint(); err != nil {
			l.checkpointFailed(err)
			return false
		}
	}
	l.CkptActive = true
	l.CkptInflight = nil
	l.sched.Schedule(now, t)
	return true
}

// ckptTask programs a serialized checkpoint's chunks under the WorkSleep
// budget. The state was captured at scheduling time, so foreground writes
// that land between quanta carry seq > the cut-off and are replayed on top
// at recovery — the checkpoint stays consistent without stalling writers.
type ckptTask struct {
	l       *Log
	m       *mapcache.Map
	id      uint64
	chunks  []Chunk
	next    int
	pending bool // bounded-paged mode: flush + serialize on first run
	budget  *ratelimit.Budget
}

// Name implements sim.Task.
func (t *ckptTask) Name() string { return fmt.Sprintf("checkpoint(%d)", t.id) }

// Run implements sim.Task: one budgeted batch of chunk programs.
func (t *ckptTask) Run(now sim.Time) (sim.Time, bool) {
	l := t.l
	if l.Closed {
		// Close wrote its own synchronous checkpoint, superseding this one.
		for _, a := range l.CkptInflight {
			delete(l.CkptPins, a)
		}
		l.CkptInflight = nil
		l.CkptActive = false
		return 0, true
	}
	if t.pending {
		var err error
		if c := t.m.Paged(); c != nil && c.Bounded() {
			now, err = l.FlushAllMapPages(now, c)
		}
		if err == nil {
			t.id, t.chunks, err = l.pol.SerializeCheckpoint()
		}
		if err != nil {
			l.checkpointFailed(err)
			l.CkptActive = false
			return 0, true
		}
		t.pending = false
	}
	start := now
	for programmed := 0; t.next < len(t.chunks) && programmed < l.cfg.GCChunk; programmed++ {
		addr, done, err := l.programChunk(now, t.chunks[t.next])
		if err != nil {
			l.abortCheckpoint(l.CkptInflight, err)
			l.CkptInflight = nil
			l.CkptActive = false
			return 0, true
		}
		l.CkptInflight = append(l.CkptInflight, addr)
		t.next++
		now = done
	}
	if t.next < len(t.chunks) {
		if sleep, exhausted := t.budget.Charge(now.Sub(start)); exhausted {
			return now.Add(sleep), false
		}
		return now, false
	}
	l.commitCheckpoint(now, t.id, l.CkptInflight)
	l.CkptInflight = nil
	l.CkptActive = false
	return 0, true
}
