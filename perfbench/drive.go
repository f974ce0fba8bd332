package main

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/shard"
	"iosnap/internal/srv"
)

// target is one connection's entry into a rung of the stack. buf is a
// slot-owned scratch buffer of the read's size; a target may fill and
// return it, or return a buffer of its own.
type target interface {
	read(lba int64, buf []byte) ([]byte, error)
	write(lba int64, data []byte) error
	snapCreate() (uint64, error)
	snapRead(id uint64, lba int64, buf []byte) ([]byte, error)
	snapDelete(id uint64) error
}

// clientTarget drives srv over TCP (rungs 1 and 2). Each call blocks on
// its Call's Done channel, so the slot's timestamp is taken as the
// response is delivered.
type clientTarget struct {
	c  *srv.Client
	ss int // sector size
}

func (t clientTarget) read(lba int64, buf []byte) ([]byte, error) {
	return t.c.GoRead(lba, len(buf)/t.ss).Wait()
}
func (t clientTarget) write(lba int64, data []byte) error {
	_, err := t.c.GoWrite(lba, data).Wait()
	return err
}
func (t clientTarget) snapCreate() (uint64, error) { return t.c.SnapCreate() }
func (t clientTarget) snapRead(id uint64, lba int64, buf []byte) ([]byte, error) {
	return t.c.GoSnapRead(id, lba, len(buf)/t.ss).Wait()
}
func (t clientTarget) snapDelete(id uint64) error { return t.c.SnapDelete(id) }

// serviceTarget calls shard.Service directly (rung 3). Snap-reads go
// through one ServiceView per snapshot, activated on first read and
// deactivated at delete, as srv's view cache does.
type serviceTarget struct {
	svc   *shard.Service
	mu    sync.Mutex
	views map[uint64]*shard.ServiceView
}

func newServiceTarget(svc *shard.Service) *serviceTarget {
	return &serviceTarget{svc: svc, views: make(map[uint64]*shard.ServiceView)}
}

func (t *serviceTarget) read(lba int64, buf []byte) ([]byte, error) { return buf, t.svc.Read(lba, buf) }
func (t *serviceTarget) write(lba int64, data []byte) error         { return t.svc.Write(lba, data) }
func (t *serviceTarget) snapCreate() (uint64, error) {
	id, err := t.svc.CreateSnapshot()
	return uint64(id), err
}

func (t *serviceTarget) snapRead(id uint64, lba int64, buf []byte) ([]byte, error) {
	t.mu.Lock()
	v := t.views[id]
	if v == nil {
		var err error
		if v, err = t.svc.ActivateSync(iosnap.SnapshotID(id), false); err != nil {
			t.mu.Unlock()
			return nil, err
		}
		t.views[id] = v
	}
	t.mu.Unlock()
	return buf, v.Read(lba, buf)
}

func (t *serviceTarget) snapDelete(id uint64) error {
	t.mu.Lock()
	v := t.views[id]
	delete(t.views, id)
	t.mu.Unlock()
	if v != nil {
		if err := v.Deactivate(); err != nil {
			return err
		}
	}
	return t.svc.DeleteSnapshot(iosnap.SnapshotID(id))
}

// driver runs one workload's closed loop against one rung: depth slots per
// foreground connection, plus the snapshot lifecycle. A run is bounded by
// a deadline (rung 1) or by per-slot op budgets replaying rung 1's ops.
type driver struct {
	wl    *workload
	lay   layout
	seed  int64
	model *model
	rung  uint8
	rec   recorder
	t0    time.Time

	deadline int64        // ns since t0; 0 = replay budgets instead
	tracing  *atomic.Bool // nil: never record spans
	classOps [2]atomic.Int64

	fgWrites atomic.Int64  // completed foreground writes (lifecycle trigger)
	kick     chan struct{} // nudges the lifecycle when fgWrites crosses a threshold
	fgDone   chan struct{} // closed when every foreground slot finished

	slotOps []int64 // ops each slot issued, indexed by conn*depth+slot
	cycles  int     // lifecycle cycles completed
}

func newDriver(wl *workload, lay layout, seed int64, m *model, rung uint8) *driver {
	return &driver{
		wl: wl, lay: lay, seed: seed, model: m, rung: rung,
		kick:    make(chan struct{}, 1),
		fgDone:  make(chan struct{}),
		slotOps: make([]int64, wl.fgConns*wl.depth),
	}
}

func (d *driver) now() int64 { return time.Since(d.t0).Nanoseconds() }

// run drives the window. targets[c] serves foreground connection c; life
// (nil without a lifecycle) serves the snapshot connection. budgets and
// cycles replay an earlier run; pass nil and -1 with a deadline.
func (d *driver) run(targets []target, life target, budgets []int64, cycles int) {
	d.t0 = time.Now()
	var fg, all sync.WaitGroup
	for c := 0; c < d.wl.fgConns; c++ {
		for s := 0; s < d.wl.depth; s++ {
			st, err := newSlotStream(d.wl, d.lay, d.seed, c, s)
			if err != nil {
				panic(err) // unreachable: callers check wl.fits first
			}
			budget := int64(-1)
			if budgets != nil {
				budget = budgets[c*d.wl.depth+s]
			}
			fg.Add(1)
			go func(t target, st *slotStream, i int, budget int64) {
				defer fg.Done()
				d.slotOps[i] = d.slot(t, st, budget)
			}(targets[c], st, c*d.wl.depth+s, budget)
		}
	}
	if life != nil {
		all.Add(1)
		go func() {
			defer all.Done()
			d.cycles = d.lifecycle(life, cycles, true)
		}()
	}
	fg.Wait()
	close(d.fgDone)
	all.Wait()
}

func (d *driver) stopped(budget, ops int64) bool {
	if budget >= 0 {
		return ops >= budget
	}
	return d.now() >= d.deadline
}

func (d *driver) span(tl *tally, k opKind, id uint64, start, end int64) {
	if d.tracing == nil {
		return
	}
	if d.tracing.Load() {
		tl.spans = append(tl.spans, span{rung: d.rung, kind: k, id: id, start: start, end: end})
		d.classOps[1].Add(1)
	} else {
		d.classOps[0].Add(1)
	}
}

// slot is one closed-loop issuer: each op is issued only after the
// previous one's response arrived.
func (d *driver) slot(t target, st *slotStream, budget int64) int64 {
	var tl tally
	n := d.wl.sectors
	buf := make([]byte, n*d.lay.sectorSize)
	wbuf := make([]byte, n*d.lay.sectorSize)
	var ops int64
	for !d.stopped(budget, ops) {
		o := st.next()
		ops++
		id := st.id<<40 | uint64(ops)
		var lastErr error
		switch o.kind {
		case opRead:
			start := d.now()
			b, err := t.read(o.lba, buf)
			lastErr = err
			end := d.now()
			tl.add(opRead, end-start, err)
			if err == nil {
				tl.bytes += int64(len(b))
				tl.verdict(opRead, d.checkRun(b, o.lba, n, d.model.checkLive))
			}
			d.span(&tl, opRead, id, start, end)
		case opWrite:
			fillRun(wbuf, d.lay.sectorSize, o.lba, o.ver)
			start := d.now()
			d.model.beginWrite(o.lba, n, o.ver, start)
			err := t.write(o.lba, wbuf)
			lastErr = err
			end := d.now()
			tl.add(opWrite, end-start, err)
			if err == nil {
				d.model.endWrite(o.lba, n, o.ver, end)
				tl.bytes += int64(len(wbuf))
				d.wrote()
			}
			d.span(&tl, opWrite, id, start, end)
		}
		if err := lastErr; err != nil && connectionLost(err) {
			// Keep counting against a dead daemon, without spinning.
			time.Sleep(10 * time.Millisecond)
		}
	}
	d.rec.merge(&tl)
	return ops
}

// connectionLost reports a transport failure, as opposed to an error the
// server answered in-band (those arrive as plain text errors).
func connectionLost(err error) bool {
	var op *net.OpError
	return errors.As(err, &op) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed)
}

// checkRun verifies every sector of a multi-sector read; one bad sector
// fails the op.
func (d *driver) checkRun(b []byte, lba int64, n int, check func(int64, []byte) verdict) verdict {
	ss := d.lay.sectorSize
	if len(b) != n*ss {
		return vMismatch
	}
	out := vOK
	for off := 0; off < len(b); off += ss {
		switch check(lba+int64(off/ss), b[off:off+ss]) {
		case vMismatch:
			return vMismatch
		case vUnverified:
			out = vUnverified
		}
	}
	return out
}

func (d *driver) wrote() {
	if d.wl.createEvery == 0 {
		return
	}
	if d.fgWrites.Add(1)%int64(d.wl.createEvery) == 0 {
		select {
		case d.kick <- struct{}{}:
		default: // a nudge is already pending
		}
	}
}

// lifeID names step of a lifecycle cycle in spans (0 = create, 1..burst =
// snap-reads, 1<<16 = delete); foreground op ids never set bit 62.
func lifeID(cycle, step int) uint64 { return 1<<62 | uint64(cycle)<<20 | uint64(step) }

type snapRec struct {
	id     uint64
	cI, cA int64
}

// lifecycle runs snapshot cycles at depth 1: create, a burst of snap-reads
// of the newest snapshot, then delete the oldest while more than keepLive
// are live. With triggered set, cycle i waits for (i+1)*createEvery
// completed foreground writes and the loop ends when the foreground is
// done; otherwise it runs cycles back to back. cycles < 0 means no cap.
// Snapshots still live at the end are left to the daemon.
func (d *driver) lifecycle(t target, cycles int, triggered bool) int {
	var tl tally
	ls := newLBAStream(d.seed, d.wl.name+"/snap", d.lay.sectors)
	buf := make([]byte, d.lay.sectorSize)
	var live []snapRec
	done := 0
	for cycles < 0 || done < cycles {
		if triggered {
			need := int64(done+1) * int64(d.wl.createEvery)
			for d.fgWrites.Load() < need {
				select {
				case <-d.kick:
				case <-d.fgDone:
					if d.fgWrites.Load() < need {
						d.rec.merge(&tl)
						return done
					}
				}
			}
		}
		id := lifeID(done, 0)
		cI := d.now()
		sid, err := t.snapCreate()
		cA := d.now()
		tl.add(opSnapCreate, cA-cI, err)
		d.span(&tl, opSnapCreate, id, cI, cA)
		if err == nil {
			live = append(live, snapRec{id: sid, cI: cI, cA: cA})
		}
		for i := 0; i < d.wl.burst; i++ {
			lba := ls.next() // drawn even without a snapshot: the stream stays seed-determined
			if len(live) == 0 {
				continue
			}
			s := live[len(live)-1]
			start := d.now()
			b, err := t.snapRead(s.id, lba, buf)
			end := d.now()
			tl.add(opSnapRead, end-start, err)
			if err == nil {
				tl.verdict(opSnapRead, d.checkRun(b, lba, 1, func(lba int64, sec []byte) verdict { return d.model.checkSnap(lba, sec, s.cI, s.cA) }))
			}
			d.span(&tl, opSnapRead, lifeID(done, i+1), start, end)
		}
		for len(live) > d.wl.keepLive {
			start := d.now()
			err := t.snapDelete(live[0].id)
			end := d.now()
			tl.add(opSnapDelete, end-start, err)
			d.span(&tl, opSnapDelete, lifeID(done, 1<<16), start, end)
			live = live[1:]
		}
		done++
	}
	d.rec.merge(&tl)
	return done
}

// probe runs the quiet-volume snapshot cycles of a workload without a
// lifecycle, after its window.
func (d *driver) probe(t target) {
	if d.wl.lifecycle {
		return
	}
	// Collect the window's garbage first, so the generator's own GC does
	// not land in the probe.
	runtime.GC()
	d.lifecycle(t, d.wl.probeCycles, false)
}
