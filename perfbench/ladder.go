package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"iosnap/internal/nand"
	"iosnap/internal/shard"
	"iosnap/internal/sim"
	"iosnap/internal/srv"
)

// The traced run climbs a ladder of rungs on the same seeded ops:
//
//	rung 1  the iosnapd subprocess over TCP, per-op spans in memory
//	rung 2  srv.NewServer over shard.NewServiceFrom in this process, via srv.Client
//	rung 3  shard.Service called directly (snap-reads through one ServiceView per snapshot)
//	rung 4  one iosnap.FTL with shard 0's geometry, fed shard 0's ops serially
//
// Rung 1 runs for the window; rungs 2 and 3 replay exactly the ops each
// of its slots issued, and rung 4 the shard-0 share of them. Rungs 2 to 4
// mount the image rung 1 mounted, so every rung starts from the same
// state. A layer's self cost is its rung minus the rung below, per op.

// usage is process resource use at an instant.
type usage struct {
	cpuNS   int64
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{cpuNS: ru.Utime.Nano() + ru.Stime.Nano(), mallocs: ms.Mallocs}
}

func (u usage) sub(o usage) usage {
	return usage{cpuNS: u.cpuNS - o.cpuNS, mallocs: u.mallocs - o.mallocs}
}

// rungResult is what one concurrent rung measured.
type rungResult struct {
	ops     int64 // ops issued, window plus probe
	usage   usage // over those ops
	elapsed time.Duration
	tally   *tally
}

func (r rungResult) perOp(x float64) float64 { return x / float64(r.ops) }

func shardImage(image string, i int) string { return fmt.Sprintf("%s.shard%d", image, i) }

func loadDevices(image string, shards int) ([]*nand.Device, error) {
	devs := make([]*nand.Device, shards)
	for i := range devs {
		f, err := os.Open(shardImage(image, i))
		if err != nil {
			return nil, err
		}
		devs[i], err = nand.LoadImage(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("loading shard %d: %w", i, err)
		}
	}
	return devs, nil
}

// window is the daemon-side delta over the measured window.
type window struct {
	userWrites, gcCopied, gcRuns  int64
	gcTime, gcMerge               sim.Duration
	gcSelects, gcCacheHits        int64
	creates, deletes, activations int64 // shard 0 (every shard sees each)
	notes                         int64 // create + delete notes, all shards
	cowCopies, ckptChunks         int64
	maxVirtual, meanVirtual       sim.Duration
	skew                          float64
	viewHits, viewMisses          int64
}

func windowDelta(b, a srv.ServerStats) window {
	var w window
	minV := sim.Duration(-1)
	var sumV sim.Duration
	for i := range a.PerShard {
		x, y := b.PerShard[i], a.PerShard[i]
		w.userWrites += y.UserWrites - x.UserWrites
		w.gcCopied += y.GCCopied - x.GCCopied
		w.gcRuns += y.GCRuns - x.GCRuns
		w.gcTime += y.GCTotalTime - x.GCTotalTime
		w.gcMerge += y.GCMergeTime - x.GCMergeTime
		w.gcSelects += y.GCVictimSelects - x.GCVictimSelects
		w.gcCacheHits += y.GCCacheHits - x.GCCacheHits
		w.notes += y.SnapshotCreates - x.SnapshotCreates + y.SnapshotDeletes - x.SnapshotDeletes
		w.cowCopies += y.CoWPageCopies - x.CoWPageCopies
		w.ckptChunks += y.CheckpointChunks - x.CheckpointChunks
		v := sim.Duration(a.PerShardVirtual[i] - b.PerShardVirtual[i])
		sumV += v
		if v > w.maxVirtual {
			w.maxVirtual = v
		}
		if minV < 0 || v < minV {
			minV = v
		}
	}
	w.meanVirtual = sumV / sim.Duration(len(a.PerShard))
	w.creates = a.PerShard[0].SnapshotCreates - b.PerShard[0].SnapshotCreates
	w.deletes = a.PerShard[0].SnapshotDeletes - b.PerShard[0].SnapshotDeletes
	w.activations = a.PerShard[0].SnapshotActivations - b.PerShard[0].SnapshotActivations
	if w.maxVirtual > 0 {
		w.skew = float64(w.maxVirtual-minV) / float64(w.maxVirtual)
	}
	w.viewHits = a.ViewCacheHits - b.ViewCacheHits
	w.viewMisses = a.ViewCacheMisses - b.ViewCacheMisses
	return w
}

// virtualMBs is payload bytes over the mean shard clock advance. The
// largest advance (the makespan) is printed beside it, and the imbalance
// is shard.vclock_skew; the mean is reported because which shard's GC
// falls into a bad regime varies from run to run, and the maximum
// inherits all of that variation.
func (w window) virtualMBs(bytes int64) float64 {
	if w.meanVirtual <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / w.meanVirtual.Seconds()
}

// writeAmp is iosnap.Stats.WriteAmplify taken over the window.
func (w window) writeAmp() float64 {
	if w.userWrites == 0 {
		return 0
	}
	return float64(w.userWrites+w.gcCopied) / float64(w.userWrites)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedRun measures every rung and derives the per-layer metrics.
func tracedRun(wl *workload, seed int64, win time.Duration, bin, dir, spansPath string) (*result, error) {
	res := &result{}
	sr, err := setup(bin, dir, seed)
	if err != nil {
		res.attempted, res.failed = 1, 1
		return res, err
	}
	image := filepath.Join(dir, "vol.img")
	all := sr.verify
	if err := wl.fits(sr.lay); err != nil {
		sr.d.kill()
		return res, err
	}

	// Rung 1: the daemon, tracing switched on and off in alternating
	// quarter-second slices so the overhead compares like with like.
	r1, w1, overhead, drv1, err := runDaemonRung(wl, seed, win, sr)
	if err != nil {
		return res, fmt.Errorf("rung 1: %w", err)
	}
	all.merge(r1.tally)
	budgets, cycles := drv1.slotOps, drv1.cycles

	r2, err := runServerRung(wl, sr.lay, seed, image, budgets, cycles)
	if err != nil {
		return res, fmt.Errorf("rung 2: %w", err)
	}
	all.merge(r2.tally)
	r3, err := runServiceRung(wl, sr.lay, seed, image, budgets, cycles)
	if err != nil {
		return res, fmt.Errorf("rung 3: %w", err)
	}
	all.merge(r3.tally)
	r4, err := runFTLRung(wl, sr.lay, seed, image, budgets, cycles)
	if err != nil {
		return res, fmt.Errorf("rung 4: %w", err)
	}
	all.merge(&r4.tally)
	if err := writeSpans(spansPath, all.spans); err != nil {
		return res, err
	}
	fmt.Printf("spans: %d written to %s\n", len(all.spans), spansPath)
	printTally("all rungs", &all)
	res.attempted, res.failed = all.totals()
	res.correct = all.mismatches == 0

	rungs := []rungResult{r1, r2, r3}
	for i, r := range rungs {
		res.add(fmt.Sprintf("rung%d.ops_per_s", i+1), "1/s", float64(r.ops)/r.elapsed.Seconds(), fmt.Sprintf("%d ops", r.ops))
	}
	ops4 := float64(r4.ops)
	res.add("rung4.ops_per_s", "1/s", ops4/(float64(r4.ftlNS)/1e9), fmt.Sprintf("%d shard-0 ops, FTL call time only", r4.ops))
	cpu := []float64{r1.perOp(float64(r1.usage.cpuNS)), r2.perOp(float64(r2.usage.cpuNS)), r3.perOp(float64(r3.usage.cpuNS)), float64(r4.usage.cpuNS) / ops4}
	allocs := []float64{0, r2.perOp(float64(r2.usage.mallocs)), r3.perOp(float64(r3.usage.mallocs)), float64(r4.usage.mallocs) / ops4}
	for i := range cpu {
		res.add(fmt.Sprintf("rung%d.cpu_ns_per_op", i+1), "ns", cpu[i], "process CPU (user+sys) per op, harness included")
	}
	for i := 1; i < 4; i++ {
		res.add(fmt.Sprintf("rung%d.allocs_per_op", i+1), "count", allocs[i], "heap allocations per op, harness included")
	}
	res.add("trace.overhead", "x", overhead, "rung 1 untraced ops/s over traced ops/s")

	res.add("srv.self_ns_per_op", "ns", cpu[1]-cpu[2], "rung 2 - rung 3 CPU per op")
	res.add("srv.allocs_per_op", "count", allocs[1]-allocs[2], "rung 2 - rung 3")
	snapReads := float64(r1.tally.attempted[opSnapRead])
	res.add("srv.view_cache_hit_rate", "ratio", ratio(float64(w1.viewHits), float64(w1.viewHits+w1.viewMisses)), fmt.Sprintf("%d hits, %d misses", w1.viewHits, w1.viewMisses))
	res.add("srv.activations_per_snap_read", "ratio", ratio(float64(w1.activations), snapReads), fmt.Sprintf("%d activations, %.0f snap-reads", w1.activations, snapReads))
	res.add("shard.self_ns_per_op", "ns", cpu[2]-cpu[3], "rung 3 - rung 4 CPU per op")
	res.add("shard.allocs_per_op", "count", allocs[2]-allocs[3], "rung 3 - rung 4")
	bar := summarize(r3.tally.lat[opSnapCreate], 50)
	res.add("shard.barrier_us_p50", "us", bar.p50, fmt.Sprintf("rung 3 CreateSnapshot, n=%d", bar.n))
	res.add("shard.vclock_skew", "ratio", w1.skew, "(max-min)/max shard virtual clock advance, rung 1")

	res.add("iosnap.ns_per_op", "ns", float64(r4.ftlNS)/ops4, "rung 4 FTL call time per op")
	res.add("iosnap.allocs_per_op", "count", allocs[3], "rung 4, harness included")
	res.add("iosnap.map_descents_per_op", "count", float64(r4.after.BatchDescents-r4.before.BatchDescents)/ops4, "rung 4")
	res.add("iosnap.nand_calls_per_op", "count", float64(r4.after.BatchNandCalls-r4.before.BatchNandCalls)/ops4, "rung 4")
	res.add("iosnap.gc_runs", "count", float64(w1.gcRuns), "rung 1, all shards")
	res.add("iosnap.gc_copied_per_write", "ratio", ratio(float64(w1.gcCopied), float64(w1.userWrites)), "rung 1")
	res.add("iosnap.gc_virtual_ms", "ms", w1.gcTime.Seconds()*1e3, "rung 1, all shards")
	res.add("iosnap.gc_merge_virtual_ms", "ms", w1.gcMerge.Seconds()*1e3, "rung 1, all shards")
	res.add("iosnap.gc_cache_hit_rate", "ratio", ratio(float64(w1.gcCacheHits), float64(w1.gcSelects)), fmt.Sprintf("%d of %d victim selections", w1.gcCacheHits, w1.gcSelects))
	res.add("iosnap.cow_copies_per_snapshot", "count", ratio(float64(w1.cowCopies), float64(w1.creates)), fmt.Sprintf("%d copies, %d creates", w1.cowCopies, w1.creates))
	res.add("iosnap.checkpoint_chunks", "count", float64(w1.ckptChunks), "rung 1, all shards")
	res.add("iosnap.note_pages", "count", float64(w1.notes), "create + delete notes, rung 1, all shards")
	res.add("iosnap.free_segments_end", "count", float64(r4.freeSegsEnd), "rung 4 shard 0 at the end")
	res.add("iosnap.recover_ms", "ms", r4.recoverMS, "rung 4 shard 0 iosnap.Recover")
	res.add("iosnap.recovery_header_pages", "count", float64(r4.recoveryPages), "rung 4 shard 0")
	res.add("nand.image_load_ms", "ms", r4.loadMS, "rung 4 shard 0 nand.LoadImage")
	res.add("nand.page_reads_per_op", "count", float64(r4.nandDelta.PageReads)/ops4, "rung 4")
	res.add("nand.page_programs_per_op", "count", float64(r4.nandDelta.PagePrograms)/ops4, "rung 4")
	res.add("nand.erases_per_op", "count", float64(r4.nandDelta.Erases)/ops4, "rung 4")
	return res, nil
}

// runDaemonRung is rung 1 on the daemon set-up left running.
func runDaemonRung(wl *workload, seed int64, win time.Duration, sr *setupResult) (rungResult, window, float64, *driver, error) {
	defer sr.d.kill()
	clients, err := dialAll(sr.d.addr, wl, sr.lay.sectorSize)
	if err != nil {
		return rungResult{}, window{}, 0, nil, err
	}
	defer closeAll(clients)
	before, err := clients[0].c.Stats()
	if err != nil {
		return rungResult{}, window{}, 0, nil, err
	}
	drv := newDriver(wl, sr.lay, seed, newModel(sr.lay.sectors), 1)
	drv.deadline = win.Nanoseconds()
	drv.tracing = new(atomic.Bool)
	var classNS [2]int64
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		last := time.Now()
		for {
			select {
			case <-tick.C:
			case <-stop:
			}
			now := time.Now()
			on := drv.tracing.Load()
			if on {
				classNS[1] += now.Sub(last).Nanoseconds()
			} else {
				classNS[0] += now.Sub(last).Nanoseconds()
			}
			last = now
			select {
			case <-stop:
				return
			default:
			}
			drv.tracing.Store(!on)
		}
	}()
	u0, d0 := readUsage(), sr.d.cpuNS()
	fg, life := targetsOf(clients, wl)
	drv.run(fg, life, nil, -1)
	close(stop)
	<-flipped
	overhead := ratio(float64(drv.classOps[0].Load())/float64(classNS[0]), float64(drv.classOps[1].Load())/float64(classNS[1]))
	drv.tracing.Store(true)
	drv.probe(clients[len(clients)-1])
	u := readUsage().sub(u0)
	u.cpuNS += sr.d.cpuNS() - d0
	elapsed := time.Since(drv.t0)
	after, err := clients[0].c.Stats()
	if err != nil {
		return rungResult{}, window{}, 0, nil, err
	}
	t := &drv.rec.t
	printTally("rung 1", t)
	return rungResult{ops: issued(t), usage: u, elapsed: elapsed, tally: t}, windowDelta(before, after), overhead, drv, nil
}

func issued(t *tally) int64 {
	a, _ := t.totals()
	return a
}

// runServerRung is rung 2: the daemon's server and service in-process.
func runServerRung(wl *workload, lay layout, seed int64, image string, budgets []int64, cycles int) (rungResult, error) {
	devs, err := loadDevices(image, lay.shards)
	if err != nil {
		return rungResult{}, err
	}
	cfg, err := shard.ConfigForDevices(devs)
	if err != nil {
		return rungResult{}, err
	}
	svc, err := shard.NewServiceFrom(cfg, devs)
	if err != nil {
		return rungResult{}, err
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return rungResult{}, err
	}
	server := srv.NewServer(svc, ln)
	served := make(chan error, 1)
	go func() { served <- server.Serve() }()
	defer func() {
		server.Shutdown()
		<-served
	}()
	clients, err := dialAll(ln.Addr().String(), wl, lay.sectorSize)
	if err != nil {
		return rungResult{}, err
	}
	defer closeAll(clients)
	fg, life := targetsOf(clients, wl)
	return replay(wl, lay, seed, 2, fg, life, clients[len(clients)-1], budgets, cycles), nil
}

// runServiceRung is rung 3: shard.Service without the server.
func runServiceRung(wl *workload, lay layout, seed int64, image string, budgets []int64, cycles int) (rungResult, error) {
	devs, err := loadDevices(image, lay.shards)
	if err != nil {
		return rungResult{}, err
	}
	cfg, err := shard.ConfigForDevices(devs)
	if err != nil {
		return rungResult{}, err
	}
	svc, err := shard.NewServiceFrom(cfg, devs)
	if err != nil {
		return rungResult{}, err
	}
	defer svc.Close()
	t := newServiceTarget(svc)
	fg := make([]target, wl.fgConns)
	for i := range fg {
		fg[i] = t
	}
	var life target
	if wl.lifecycle {
		life = t
	}
	return replay(wl, lay, seed, 3, fg, life, t, budgets, cycles), nil
}

// replay drives rung 1's ops against a concurrent rung and measures it.
func replay(wl *workload, lay layout, seed int64, rung uint8, fg []target, life, probe target, budgets []int64, cycles int) rungResult {
	runtime.GC()
	drv := newDriver(wl, lay, seed, newModel(lay.sectors), rung)
	drv.tracing = new(atomic.Bool)
	drv.tracing.Store(true)
	u0 := readUsage()
	drv.run(fg, life, budgets, cycles)
	drv.probe(probe)
	u := readUsage().sub(u0)
	elapsed := time.Since(drv.t0)
	t := &drv.rec.t
	printTally(fmt.Sprintf("rung %d", rung), t)
	return rungResult{ops: issued(t), usage: u, elapsed: elapsed, tally: t}
}

// writeSpans writes every span as gzipped CSV: rung, op type, op id, start and
// end in ns since the rung started.
func writeSpans(path string, spans []span) error {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].rung != spans[j].rung {
			return spans[i].rung < spans[j].rung
		}
		return spans[i].start < spans[j].start
	})
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	z, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // a valid level cannot fail
	w := bufio.NewWriter(z)
	fmt.Fprintln(w, "rung,op,id,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", s.rung, kindNames[s.kind], s.id, s.start, s.end)
	}
	err = w.Flush()
	if cerr := z.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
