// Package repro's root benchmarks regenerate every table and figure of the
// paper's evaluation (§6) via the experiment harness, plus ablation benches
// for the design choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports headline metrics via b.ReportMetric; the
// full rows/series print through `go run ./cmd/benchrunner`.
package main

import (
	"strconv"
	"testing"

	"iosnap/internal/bitmap"
	"iosnap/internal/ftlmap"
	"iosnap/internal/harness"
	"iosnap/internal/iosnap"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
	"iosnap/internal/workload"
)

// benchScale keeps experiment benches quick; benchrunner uses scale 1.0.
const benchScale = 0.1

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := harness.Lookup(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	rc := harness.RunConfig{Scale: benchScale}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(rc); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkTable2 regenerates Table 2 (regular ops, vanilla vs ioSnap).
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkCreateDelete regenerates §6.2.1 (snapshot create/delete cost).
func BenchmarkCreateDelete(b *testing.B) { runExperiment(b, "createdelete") }

// BenchmarkFig7 regenerates Figure 7 (creation impact + validity CoW).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates Figure 8 (activation latency).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable3 regenerates Table 3 (activation memory overheads).
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFig9 regenerates Figure 9 (reads during rate-limited activation).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTable4 regenerates Table 4 (segment cleaning overheads).
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFig10 regenerates Figure 10 (cleaner pacing policies).
func BenchmarkFig10(b *testing.B) { runExperiment(b, "fig10") }

// BenchmarkFig11 regenerates Figure 11 (create impact vs Btrfs-like).
func BenchmarkFig11(b *testing.B) { runExperiment(b, "fig11") }

// BenchmarkFig12 regenerates Figure 12 (sustained bandwidth vs Btrfs-like).
func BenchmarkFig12(b *testing.B) { runExperiment(b, "fig12") }

// ---- Core-operation microbenchmarks (host CPU cost of the data path). ----

func benchNand() nand.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 1024
	nc.Segments = 128
	return nc
}

// BenchmarkWritePath measures the Go-side cost of one ioSnap 4K write.
func BenchmarkWritePath(b *testing.B) {
	f, err := iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	rng := sim.NewRNG(1)
	now := sim.Time(0)
	space := f.Sectors() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Scheduler().RunUntil(now)
		d, err := f.Write(now, rng.Int63n(space), buf)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
}

// BenchmarkReadPath measures the Go-side cost of one ioSnap 4K read.
func BenchmarkReadPath(b *testing.B) {
	f, err := iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 4096)
	now, err := workload.Fill(f, 0, 128<<10, 0, 4096, f.Scheduler())
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Read(now, rng.Int63n(4096), buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotCreate measures snapshot creation cost (host side).
// The FTL is re-created every 128 snapshots so a long benchtime doesn't
// accumulate an unrealistic number of live epochs.
func BenchmarkSnapshotCreate(b *testing.B) {
	var f *iosnap.FTL
	now := sim.Time(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%128 == 0 {
			b.StopTimer()
			var err error
			f, err = iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
			if err != nil {
				b.Fatal(err)
			}
			now = 0
			b.StartTimer()
		}
		_, d, err := f.CreateSnapshot(now)
		if err != nil {
			b.Fatal(err)
		}
		now = d
	}
}

// BenchmarkActivation measures end-to-end activation of a 64 MB snapshot.
func BenchmarkActivation(b *testing.B) {
	f, err := iosnap.New(iosnap.DefaultConfig(benchNand()), nil)
	if err != nil {
		b.Fatal(err)
	}
	spec := workload.Spec{
		Kind: workload.Write, Pattern: workload.Random,
		BlockSize: 4096, Threads: 2, QueueDepth: 16,
		TotalBytes: 64 << 20, Seed: 1, SubmitCost: sim.Microsecond,
	}
	_, now, err := workload.Run(f, 0, spec, workload.Options{Scheduler: f.Scheduler()})
	if err != nil {
		b.Fatal(err)
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view, d, err := f.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
		if err != nil {
			b.Fatal(err)
		}
		now = d
		if _, err := view.Deactivate(now); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablation benches (design choices from DESIGN.md §5). ----

// BenchmarkAblationBitmapCoW compares the paper's CoW validity maps with
// the naive full-copy-per-snapshot design it rejects (§5.4.1). Metrics:
// bytes of bitmap memory per snapshot.
func BenchmarkAblationBitmapCoW(b *testing.B) {
	// The paper's regime: the bitmap covers the whole device (2 TB there),
	// while writes between snapshots touch a small region (3 GB). The naive
	// design copies the whole bitmap per snapshot; CoW copies only the
	// touched pages.
	const nBits = 1 << 26 // 64M blocks = a 256 GB device at 4K
	const region = nBits / 64
	const snapshots = 16
	const touches = 4096 // blocks overwritten between snapshots

	b.Run("cow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := bitmap.NewStore(nBits, 0)
			s.CreateEpoch(1, bitmap.NoParent)
			rng := sim.NewRNG(7)
			cur := bitmap.Epoch(1)
			for sn := 0; sn < snapshots; sn++ {
				for t := 0; t < touches; t++ {
					s.Set(cur, rng.Int63n(region))
				}
				next := cur + 1
				s.CreateEpoch(next, cur)
				cur = next
			}
			b.ReportMetric(float64(s.MemoryBytes())/snapshots, "B/snapshot")
		}
	})
	b.Run("fullcopy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rng := sim.NewRNG(7)
			var maps []*bitmap.Bitmap
			cur := bitmap.New(nBits)
			var bytes int64
			for sn := 0; sn < snapshots; sn++ {
				for t := 0; t < touches; t++ {
					cur.Set(rng.Int63n(region))
				}
				frozen := cur.Clone() // the naive design: full copy per snapshot
				maps = append(maps, frozen)
				bytes += nBits / 8
			}
			_ = maps
			b.ReportMetric(float64(bytes)/snapshots, "B/snapshot")
		}
	})
}

// BenchmarkAblationBulkLoad quantifies the Table 3 effect: bulk-loaded
// trees vs organically grown trees with identical contents.
func BenchmarkAblationBulkLoad(b *testing.B) {
	const n = 1 << 18
	rng := sim.NewRNG(3)
	perm := rng.Perm(n)
	b.Run("grown", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tr := ftlmap.New()
			for _, p := range perm {
				tr.Insert(uint64(p), uint64(p))
			}
			b.ReportMetric(float64(tr.MemoryBytes()), "B")
		}
	})
	b.Run("bulkloaded", func(b *testing.B) {
		entries := make([]ftlmap.Entry, n)
		for i := range entries {
			entries[i] = ftlmap.Entry{Key: uint64(i), Val: uint64(i)}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr := ftlmap.BulkLoad(entries, 1.0)
			b.ReportMetric(float64(tr.MemoryBytes()), "B")
		}
	})
}

// BenchmarkAblationEpochSegregation measures epoch intermixing (mean
// epoch-runs per segment; lower = better co-location) with and without the
// §5.4.2 segregation policy.
func BenchmarkAblationEpochSegregation(b *testing.B) {
	for _, segregate := range []bool{false, true} {
		name := "mixed"
		if segregate {
			name = "segregated"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nc := benchNand()
				nc.PagesPerSegment = 256
				nc.Segments = 64
				cfg := iosnap.DefaultConfig(nc)
				cfg.EpochSegregation = segregate
				f, err := iosnap.New(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				now := sim.Time(0)
				rng := sim.NewRNG(5)
				buf := make([]byte, 4096)
				space := f.Sectors() / 4
				for s := 0; s < 4; s++ {
					for w := 0; w < int(space)/2; w++ {
						f.Scheduler().RunUntil(now)
						d, err := f.Write(now, rng.Int63n(space), buf)
						if err != nil {
							b.Fatal(err)
						}
						now = d
					}
					if s < 3 {
						_, d, err := f.CreateSnapshot(now)
						if err != nil {
							b.Fatal(err)
						}
						now = d
					}
				}
				f.Scheduler().Drain(now)
				total, nseg := 0, 0
				for seg := 0; seg < nc.Segments; seg++ {
					if f.Device().ProgrammedInSegment(seg) > 0 {
						total += f.SegmentEpochRuns(seg)
						nseg++
					}
				}
				b.ReportMetric(float64(total)/float64(nseg), "epoch-runs/segment")
			}
		})
	}
}

// BenchmarkMergeRange measures the cleaner's validity merge (the Table 4
// overhead) across epoch counts.
func BenchmarkMergeRange(b *testing.B) {
	for _, epochs := range []int{1, 4, 16} {
		b.Run("epochs-"+strconv.Itoa(epochs), func(b *testing.B) {
			s := bitmap.NewStore(1<<20, 0)
			s.CreateEpoch(1, bitmap.NoParent)
			rng := sim.NewRNG(1)
			cur := bitmap.Epoch(1)
			for e := 1; e <= epochs; e++ {
				for t := 0; t < 4096; t++ {
					s.Set(cur, rng.Int63n(1<<20))
				}
				if e < epochs {
					s.CreateEpoch(cur+1, cur)
					cur++
				}
			}
			all := s.Epochs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.MergeRange(all, 0, 1024)
			}
		})
	}
}

// BenchmarkAblationVictimPolicy compares the cleaner's greedy and
// cost-benefit segment selection under a hot/cold workload, reporting
// write amplification and peak wear. In this simulator's regimes the two
// policies score close on write amplification (hot segments decay to
// fully-invalid before cleaning, so greedy is near-optimal); the bench
// exists to quantify that, not to declare a winner.
func BenchmarkAblationVictimPolicy(b *testing.B) {
	for _, policy := range []logcore.VictimPolicy{logcore.VictimGreedy, logcore.VictimCostBenefit} {
		b.Run(policy.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				nc := benchNand()
				nc.PagesPerSegment = 256
				nc.Segments = 96
				cfg := iosnap.DefaultConfig(nc)
				cfg.VictimPolicy = policy
				cfg.GCWindow = 10 * sim.Millisecond
				f, err := iosnap.New(cfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				buf := make([]byte, 4096)
				now := sim.Time(0)
				// Interleaved hot/cold arrivals (90% of writes to 10% of the
				// space) mix lifetimes within segments — the regime where
				// cost-benefit's age weighting pays off (LFS's classic case).
				rng := sim.NewRNG(uint64(policy) + 1)
				space := f.Sectors() * 19 / 20
				hotSpan := space / 10
				for w := 0; w < int(f.Sectors())*4; w++ {
					lba := hotSpan + rng.Int63n(space-hotSpan) // cold
					if rng.Intn(10) != 0 {
						lba = rng.Int63n(hotSpan) // hot
					}
					f.Scheduler().RunUntil(now)
					d, err := f.Write(now, lba, buf)
					if err != nil {
						b.Fatal(err)
					}
					now = d
				}
				f.Scheduler().Drain(now)
				b.ReportMetric(f.Stats().WriteAmplify, "write-amp")
				_, maxE, _ := f.Device().WearStats()
				b.ReportMetric(float64(maxE), "max-erases")
			}
		})
	}
}

// BenchmarkAblationSelectiveScan quantifies the paper's §7 activation
// optimization: scan only lineage-bearing segments instead of the whole
// log. Reports virtual activation time for a small, old snapshot on a
// large log.
func BenchmarkAblationSelectiveScan(b *testing.B) {
	for _, selective := range []bool{false, true} {
		name := "full-scan"
		if selective {
			name = "selective-scan"
		}
		b.Run(name, func(b *testing.B) {
			nc := benchNand()
			nc.Segments = 512 // 2 GB log
			cfg := iosnap.DefaultConfig(nc)
			cfg.SelectiveScan = selective
			f, err := iosnap.New(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			// Small early snapshot, then a large unrelated log.
			now, err := workload.Fill(f, 0, 128<<10, 0, 4096, f.Scheduler())
			if err != nil {
				b.Fatal(err)
			}
			snap, now, err := f.CreateSnapshot(now)
			if err != nil {
				b.Fatal(err)
			}
			spec := workload.Spec{
				Kind: workload.Write, Pattern: workload.Random,
				BlockSize: 4096, Threads: 2, QueueDepth: 16,
				TotalBytes: 1 << 30, RangeLo: 8192, RangeHi: f.Sectors(),
				Seed: 3, SubmitCost: sim.Microsecond,
			}
			if _, now, err = workload.Run(f, now, spec, workload.Options{Scheduler: f.Scheduler()}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view, done, err := f.ActivateSync(now, snap.ID, ratelimit.WorkSleep{}, false)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(done.Sub(now).Milliseconds(), "virtual-ms")
				now = done
				if _, err := view.Deactivate(now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
