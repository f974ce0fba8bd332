package ftl

import (
	"strings"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// TestGCErrorRecordedNotSwallowed: a device error during the vanilla
// cleaner's copy-forward must land in Stats (GCErrors/GCLastErr), not vanish,
// and the device must stay usable: writes continue and the victim can be
// cleaned once the fault clears.
func TestGCErrorRecordedNotSwallowed(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 40; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for lba := int64(0); lba < 20; lba++ { // invalidate some blocks
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.sched.Drain(now)

	// A victim that still holds valid data, so the clean must copy.
	pps := int64(f.cfg.Nand.PagesPerSegment)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg == f.HeadSeg {
			continue
		}
		for p := int64(seg) * pps; p < int64(seg+1)*pps; p++ {
			if f.validity.Test(p) {
				victim = seg
				break
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no cleanable victim with valid data")
	}
	plan := faultinject.GCCopyError(1)
	plan.Arm(f.Device())
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	now = f.sched.Drain(now)
	plan.Disarm(f.Device())

	st := f.Stats()
	if st.GCErrors != 1 {
		t.Fatalf("GCErrors = %d, want 1 (error swallowed)", st.GCErrors)
	}
	if !strings.Contains(st.GCLastErr, "copy-forward") {
		t.Fatalf("GCLastErr = %q, want copy-forward error", st.GCLastErr)
	}
	if f.CleaningActive() {
		t.Fatal("cleaner still marked active after abort")
	}
	// The log head must not be bricked by the rolled-back allocation.
	for lba := int64(0); lba < 10; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 3)); err != nil {
			t.Fatalf("write after GC abort: %v", err)
		}
	}
	// And the victim must still be cleanable.
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatalf("victim not cleanable after abort: %v", err)
	}
	now = f.sched.Drain(now)
	if st := f.Stats(); st.GCErases == 0 {
		t.Fatal("retry clean never erased the victim")
	}
}

// TestWriteFaultDoesNotBrickLogHead: one failed foreground program must not
// leave a permanent hole at the sequential-program log head.
func TestWriteFaultDoesNotBrickLogHead(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	if now, err = f.Write(now, 1, sectorPattern(ss, 1, 1)); err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindError, Op: nand.OpProgram, Seg: faultinject.AnySeg, AfterN: 1,
	})
	plan.Arm(f.Device())
	if _, err := f.Write(now, 2, sectorPattern(ss, 2, 1)); err == nil {
		t.Fatal("injected program fault not reported")
	}
	plan.Disarm(f.Device())
	for lba := int64(2); lba < 12; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatalf("log head bricked after one failed program: %v", err)
		}
	}
}
