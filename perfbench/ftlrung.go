package main

import (
	"fmt"
	"os"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// ftlRung is rung 4: one iosnap.FTL with one shard's geometry, recovered
// from shard 0's image and fed shard 0's share of the same op streams,
// one op at a time on the shard's virtual clock, as its worker would.
type ftlRung struct {
	loadMS, recoverMS float64
	recoveryPages     int64
	usage             usage
	ops               int64
	ftlNS             int64 // wall time inside FTL calls
	tally             tally
	nandDelta         nand.Stats
	before, after     iosnap.Stats
	freeSegsEnd       int
}

// runFTLRung replays budgets (per slot) and cycles (lifecycle) against
// shard 0 of the image. Slots advance round-robin, one op each, so the
// interleave approximates the concurrent rungs; ops outside shard 0 still
// advance their streams, and every foreground write still counts toward
// the lifecycle trigger, exactly as in the concurrent rungs.
func runFTLRung(wl *workload, lay layout, seed int64, image string, budgets []int64, cycles int) (*ftlRung, error) {
	r := &ftlRung{}
	t0 := time.Now()
	f, err := os.Open(shardImage(image, 0))
	if err != nil {
		return nil, err
	}
	dev, err := nand.LoadImage(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("loading shard 0: %w", err)
	}
	r.loadMS = msSince(t0)
	cfg := iosnap.DefaultConfig(dev.Config())
	t1 := time.Now()
	ftl, now, err := iosnap.Recover(cfg, dev, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("recovering shard 0: %w", err)
	}
	r.recoverMS = msSince(t1)
	r.before = ftl.Stats()
	r.recoveryPages = r.before.RecoveryHeaderPages
	nandBefore := dev.Stats()
	lo, hi := int64(0), lay.sectors/int64(lay.shards) // shard 0's LBAs

	ss := lay.sectorSize
	m := newModel(lay.sectors)
	// tick is the model's clock: one tick per executed op. Ops run one at
	// a time, so each is issued and acknowledged at the tick it runs.
	var tick int64
	step := func(op func(now sim.Time) (sim.Time, error)) error {
		ftl.Scheduler().RunUntil(now)
		done, err := op(now)
		if done > now {
			now = done
		}
		tick++
		r.ops++
		return err
	}
	// timed runs one FTL call and records its wall time; the sum of these
	// is the FTL's own time, without the harness's stamping and checking.
	tr0 := time.Now()
	timed := func(k opKind, id uint64, op func(now sim.Time) (sim.Time, error)) error {
		start := time.Since(tr0).Nanoseconds()
		err := step(op)
		end := time.Since(tr0).Nanoseconds()
		r.ftlNS += end - start
		r.tally.add(k, end-start, err)
		r.tally.spans = append(r.tally.spans, span{rung: 4, kind: k, id: id, start: start, end: end})
		return err
	}

	streams := make([]*slotStream, len(budgets))
	for c := 0; c < wl.fgConns; c++ {
		for s := 0; s < wl.depth; s++ {
			if streams[c*wl.depth+s], err = newSlotStream(wl, lay, seed, c, s); err != nil {
				return nil, err
			}
		}
	}
	views := make(map[iosnap.SnapshotID]*iosnap.View)
	ls := newLBAStream(seed, wl.name+"/snap", lay.sectors)
	var live []snapRec
	cycle := func(n, keep int) {
		at := tick // the create's barrier: every earlier write is in it
		var sid iosnap.SnapshotID
		err := timed(opSnapCreate, lifeID(n, 0), func(now sim.Time) (sim.Time, error) {
			snap, done, err := ftl.CreateSnapshot(now)
			if err == nil {
				sid = snap.ID
			}
			return done, err
		})
		if err == nil {
			live = append(live, snapRec{id: uint64(sid), cI: at, cA: at})
		}
		buf := make([]byte, ss)
		for i := 0; i < wl.burst; i++ {
			lba := ls.next()
			if len(live) == 0 || lba < lo || lba >= hi {
				continue
			}
			s := live[len(live)-1]
			id := iosnap.SnapshotID(s.id)
			err := timed(opSnapRead, lifeID(n, i+1), func(now sim.Time) (sim.Time, error) {
				v := views[id]
				if v == nil {
					var err error
					if v, now, err = ftl.ActivateSync(now, id, ratelimit.WorkSleep{}, false); err != nil {
						return now, err
					}
					views[id] = v
				}
				return v.Read(now, lba, buf)
			})
			if err == nil {
				r.tally.verdict(opSnapRead, m.checkSnap(lba, buf, s.cI, s.cA))
			}
		}
		for len(live) > keep {
			id := iosnap.SnapshotID(live[0].id)
			live = live[1:]
			timed(opSnapDelete, lifeID(n, 1<<16), func(now sim.Time) (sim.Time, error) {
				if v := views[id]; v != nil {
					delete(views, id)
					var err error
					if now, err = v.Deactivate(now); err != nil {
						return now, err
					}
				}
				return ftl.DeleteSnapshot(now, id)
			})
		}
	}

	buf := make([]byte, wl.sectors*ss)
	wbuf := make([]byte, wl.sectors*ss)
	issued := make([]int64, len(budgets))
	var fgWrites int64
	doneCycles := 0
	u0 := readUsage()
	for left := true; left; {
		left = false
		for i, st := range streams {
			if issued[i] >= budgets[i] {
				continue
			}
			left = true
			issued[i]++
			o := st.next()
			id := st.id<<40 | uint64(issued[i])
			if o.kind == opWrite {
				fgWrites++
			}
			if o.lba >= lo && o.lba < hi {
				switch o.kind {
				case opRead:
					if timed(opRead, id, func(now sim.Time) (sim.Time, error) { return ftl.Read(now, o.lba, buf) }) == nil {
						r.tally.bytes += int64(len(buf))
						for off := 0; off < len(buf); off += ss {
							if v := m.checkLive(o.lba+int64(off/ss), buf[off:off+ss]); v != vOK {
								r.tally.verdict(opRead, v)
								break
							}
						}
					}
				case opWrite:
					fillRun(wbuf, ss, o.lba, o.ver)
					at := tick
					m.beginWrite(o.lba, wl.sectors, o.ver, at)
					if timed(opWrite, id, func(now sim.Time) (sim.Time, error) { return ftl.Write(now, o.lba, wbuf) }) == nil {
						m.endWrite(o.lba, wl.sectors, o.ver, at)
						r.tally.bytes += int64(len(wbuf))
					}
				}
			}
			if wl.lifecycle && doneCycles < cycles && fgWrites >= int64(doneCycles+1)*int64(wl.createEvery) {
				cycle(doneCycles, wl.keepLive)
				doneCycles++
			}
		}
	}
	if !wl.lifecycle {
		for i := 0; i < wl.probeCycles; i++ {
			cycle(i, 0)
		}
	}
	r.usage = readUsage().sub(u0)
	r.after = ftl.Stats()
	r.nandDelta = nandSince(nandBefore, dev.Stats())
	r.freeSegsEnd = ftl.FreeSegments()
	return r, nil
}

// nandSince is the device counter delta from before to after.
func nandSince(before, after nand.Stats) nand.Stats {
	return nand.Stats{
		PageReads:    after.PageReads - before.PageReads,
		PagePrograms: after.PagePrograms - before.PagePrograms,
		Erases:       after.Erases - before.Erases,
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
