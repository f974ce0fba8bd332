package ftl

import (
	"bytes"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// bigConfig: testConfig on a 64-segment device, enough headroom that the
// tail written after a checkpoint stays GC-quiet (a post-checkpoint erase
// legitimately invalidates the generation and forces the full scan).
func bigConfig() Config {
	cfg := testConfig()
	cfg.Nand.Segments = 64
	return cfg
}

func verifyFTLModel(t *testing.T, f *FTL, now sim.Time, model map[int64]byte) {
	t.Helper()
	buf := make([]byte, f.SectorSize())
	for lba, v := range model {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("read LBA %d: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(f.SectorSize(), lba, v)) {
			t.Fatalf("LBA %d wrong", lba)
		}
	}
}

// TestTailBoundedRecoveryStats: a clean Close anchors a checkpoint, and the
// next mount loads it instead of scanning the whole log — strictly fewer
// header pages than the full scan on an identical device copy.
func TestTailBoundedRecoveryStats(t *testing.T) {
	f, err := New(bigConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	model, now := fillAndChurn(t, f, 400, 50, 31)
	now, err = f.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := f.Device().SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	devA, err := nand.LoadImage(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	devB, err := nand.LoadImage(bytes.NewReader(img.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a, nowA, err := Recover(f.Config(), devA, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := RecoverFullScan(f.Config(), devB, nil, now)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Stats().RecoveryTailBounded || a.Stats().RecoveryFallbacks != 0 {
		t.Fatalf("clean mount did not take the tail path: %+v", a.Stats())
	}
	if ap, bp := a.Stats().RecoveryHeaderPages, b.Stats().RecoveryHeaderPages; ap >= bp {
		t.Fatalf("tail path scanned %d header pages, full scan %d", ap, bp)
	}
	if a.MappedSectors() != b.MappedSectors() {
		t.Fatalf("tail mapped %d sectors, full scan %d", a.MappedSectors(), b.MappedSectors())
	}
	verifyFTLModel(t, a, nowA, model)
}

// TestCheckpointFallsBackOnIncompleteChunks: the regression the vanilla FTL
// shipped — an anchor whose chunk set cannot be loaded whole (reclaimed,
// missing, or from the wrong generation) must be rejected in favour of the
// full scan, never mounted partially.
func TestCheckpointFallsBackOnIncompleteChunks(t *testing.T) {
	tamper := map[string]func(a *nand.Anchor) *nand.Anchor{
		"missing-chunk":    func(a *nand.Anchor) *nand.Anchor { a.Addrs = a.Addrs[:len(a.Addrs)-1]; return a },
		"wrong-generation": func(a *nand.Anchor) *nand.Anchor { a.ID++; return a },
	}
	for name, mutate := range tamper {
		t.Run(name, func(t *testing.T) {
			f := newTestFTL(t)
			model, now := fillAndChurn(t, f, 300, 40, 33)
			now, err := f.Close(now)
			if err != nil {
				t.Fatal(err)
			}
			dev := f.Device()
			anchor := dev.Anchor()
			if anchor == nil || len(anchor.Addrs) < 2 {
				t.Fatalf("unexpectedly small checkpoint: %+v", anchor)
			}
			dev.SetAnchor(mutate(anchor))
			r, now, err := Recover(f.Config(), dev, nil, now)
			if err != nil {
				t.Fatalf("recovery with tampered anchor: %v", err)
			}
			st := r.Stats()
			if st.RecoveryTailBounded || st.RecoveryFallbacks != 1 {
				t.Fatalf("tampered anchor not rejected: %+v", st)
			}
			verifyFTLModel(t, r, now, model)
		})
	}
}

// TestCheckpointChunkFailureSealsHead: the other shipped regression — a
// permanent media failure while programming a checkpoint chunk must seal
// the log head off the failing segment exactly like the data-write path
// does, leaving the FTL writable and a retried checkpoint able to commit.
func TestCheckpointChunkFailureSealsHead(t *testing.T) {
	f := newTestFTL(t)
	model, now := fillAndChurn(t, f, 150, 30, 35)
	oldHead := f.HeadSeg
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 10, // outlasts the retry budget: a permanent failure
	})
	plan.Arm(f.Device())
	if !f.StartCheckpoint(now) {
		t.Fatal("StartCheckpoint refused")
	}
	now = f.Scheduler().Drain(now)
	plan.Disarm(f.Device())
	st := f.Stats()
	if st.CheckpointErrors < 1 || st.Checkpoints != 0 {
		t.Fatalf("failed checkpoint misaccounted: %+v", st)
	}
	if f.Device().Anchor() != nil {
		t.Fatal("aborted checkpoint left an anchor")
	}
	if f.HeadSeg == oldHead {
		t.Fatal("head not sealed off the failing segment")
	}
	// Still writable, and a retried checkpoint commits and mounts.
	d, err := f.Write(now, 2, sectorPattern(f.SectorSize(), 2, 88))
	if err != nil {
		t.Fatalf("write after sealed head: %v", err)
	}
	model[2] = 88
	now = d
	if !f.StartCheckpoint(now) {
		t.Fatal("retry StartCheckpoint refused")
	}
	now = f.Scheduler().Drain(now)
	if f.Stats().Checkpoints != 1 {
		t.Fatalf("retried checkpoint did not commit: %+v", f.Stats())
	}
	r, now, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	verifyFTLModel(t, r, now, model)
}

// TestCrashDuringCheckpointCycles: repeated crash/recover cycles where power
// dies right after the n-th chunk of an in-flight checkpoint lands. Each
// cycle the device carries one complete committed generation plus a fresh
// partial one; every mount must come up from the complete generation
// (tail-bounded, partial chunks skipped) with all acknowledged writes.
func TestCrashDuringCheckpointCycles(t *testing.T) {
	f, err := New(bigConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	model := make(map[int64]byte)
	now := sim.Time(0)
	ss := f.SectorSize()
	churn := func(seed uint64, n int) {
		rng := sim.NewRNG(seed)
		for i := 0; i < n; i++ {
			f.Scheduler().RunUntil(now)
			lba := rng.Int63n(50)
			v := byte(int(seed)*40 + i%40 + 1)
			d, err := f.Write(now, lba, sectorPattern(ss, lba, v))
			if err != nil {
				t.Fatalf("write: %v", err)
			}
			model[lba] = v
			now = d
		}
		now = f.Scheduler().Drain(now)
	}
	partialCycles := 0
	for cycle := 0; cycle < 4; cycle++ {
		churn(uint64(cycle)*2+1, 40)
		// A clean checkpoint commits...
		if !f.StartCheckpoint(now) {
			t.Fatalf("cycle %d: clean StartCheckpoint refused", cycle)
		}
		now = f.Scheduler().Drain(now)
		if f.Stats().Checkpoints < 1 {
			t.Fatalf("cycle %d: clean checkpoint did not commit", cycle)
		}
		committed := f.Device().Anchor()
		churn(uint64(cycle)*2+2, 15)
		// ...then a second one dies after its n-th chunk. A crash after the
		// final chunk lands post-commit (the generation is complete); any
		// earlier leaves a partial generation that must not move the anchor.
		plan := faultinject.CrashAtChunk(header.TypeCheckpoint, int64(cycle%2)+1)
		plan.Arm(f.Device())
		if !f.StartCheckpoint(now) {
			t.Fatalf("cycle %d: crashing StartCheckpoint refused", cycle)
		}
		now = f.Scheduler().Drain(now)
		if !plan.Crashed() {
			t.Fatalf("cycle %d: checkpoint crash never fired (fired: %+v)", cycle, plan.Fired())
		}
		plan.Disarm(f.Device())
		anchor := f.Device().Anchor()
		if anchor == nil {
			t.Fatalf("cycle %d: anchor gone after mid-checkpoint crash", cycle)
		}
		if anchor.ID == committed.ID {
			partialCycles++
		}
		r, nowR, err := Recover(f.Config(), f.Device(), nil, now)
		if err != nil {
			t.Fatalf("cycle %d: recovery: %v", cycle, err)
		}
		st := r.Stats()
		if !st.RecoveryTailBounded || st.RecoveryFallbacks != 0 {
			t.Fatalf("cycle %d: expected tail-bounded mount from the committed generation: %+v", cycle, st)
		}
		verifyFTLModel(t, r, nowR, model)
		f, now = r, nowR
	}
	if partialCycles == 0 {
		t.Fatal("no cycle ever crashed mid-generation; the partial-checkpoint path went untested")
	}
}
