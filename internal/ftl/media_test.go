package ftl

import (
	"bytes"
	"errors"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// TestTransientWriteRetriedInvisibly: a KindTransient program episode
// shorter than the retry budget must be absorbed entirely — the write
// succeeds, the retry is counted, and nothing is marked suspect.
func TestTransientWriteRetriedInvisibly(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 2, // budget is 3 attempts, so the episode clears
	})
	plan.Arm(f.Device())
	now, err := f.Write(0, 5, sectorPattern(ss, 5, 1))
	if err != nil {
		t.Fatalf("transient episode not absorbed: %v", err)
	}
	plan.Disarm(f.Device())

	st := f.Stats()
	if st.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", st.Retries)
	}
	if st.MediaFailures != 0 || st.SegmentsSuspect != 0 {
		t.Fatalf("transient episode marked media suspect: %+v", st)
	}
	buf := make([]byte, ss)
	if _, err := f.Read(now, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 5, 1)) {
		t.Fatal("retried write lost its data")
	}
}

// TestTransientReadRetried: same contract on the read path.
func TestTransientReadRetried(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, err := f.Write(0, 3, sectorPattern(ss, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpRead, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 1,
	})
	plan.Arm(f.Device())
	buf := make([]byte, ss)
	if _, err := f.Read(now, 3, buf); err != nil {
		t.Fatalf("transient read not retried: %v", err)
	}
	plan.Disarm(f.Device())
	if !bytes.Equal(buf, sectorPattern(ss, 3, 1)) {
		t.Fatal("retried read returned wrong data")
	}
	if st := f.Stats(); st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
}

// TestExhaustedTransientMarksSuspect: an episode longer than the retry
// budget is a permanent failure — the error surfaces, and the segment goes
// suspect so the cleaner will retire it.
func TestExhaustedTransientMarksSuspect(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 10, // outlasts the 3-attempt budget
	})
	plan.Arm(f.Device())
	if _, err := f.Write(0, 5, sectorPattern(ss, 5, 1)); !errors.Is(err, nand.ErrTransient) {
		t.Fatalf("exhausted transient: %v, want ErrTransient to surface", err)
	}
	plan.Disarm(f.Device())
	st := f.Stats()
	if st.MediaFailures != 1 || st.SegmentsSuspect != 1 {
		t.Fatalf("exhausted transient did not mark suspect: %+v", st)
	}
	// The head sealed onto healthy media, so writes keep working.
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 10; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatalf("write after seal: %v", err)
		}
	}
}

// TestSuspectVictimRetiredAfterClean: cleaning a suspect segment rescues its
// valid data and retires it instead of returning it to the free pool.
func TestSuspectVictimRetiredAfterClean(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 40; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.sched.Drain(now)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg != f.HeadSeg {
			victim = seg
			break
		}
	}
	if victim < 0 {
		t.Fatal("no victim")
	}
	f.dev.MarkSuspect(victim)
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	now = f.sched.Drain(now)

	if h := f.dev.SegmentHealth(victim); h != nand.Retired {
		t.Fatalf("cleaned suspect segment health = %v, want retired", h)
	}
	for _, s := range append(f.UsedSegments(), f.FreeSegs...) {
		if s == victim {
			t.Fatal("retired segment still pooled")
		}
	}
	// Every LBA still reads back: rescue moved the data before retirement.
	buf := make([]byte, ss)
	for lba := int64(0); lba < 40; lba++ {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("LBA %d unreadable after retirement: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("LBA %d content lost in rescue", lba)
		}
	}
	if st := f.Stats(); st.SegmentsRetired != 1 {
		t.Fatalf("SegmentsRetired = %d, want 1", st.SegmentsRetired)
	}
}

// TestPermanentEraseFailureRetiresVictim: wear-out at erase time retires the
// victim (its data is already rescued) and the device keeps going.
func TestPermanentEraseFailureRetiresVictim(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 40; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.sched.Drain(now)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg != f.HeadSeg {
			victim = seg
			break
		}
	}
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindError, Op: nand.OpErase, Seg: victim,
		AfterN: 1, Err: nand.ErrWornOut,
	})
	plan.Arm(f.Device())
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatalf("clean with failing erase must rescue+retire, got %v", err)
	}
	now = f.sched.Drain(now)
	plan.Disarm(f.Device())

	if h := f.dev.SegmentHealth(victim); h != nand.Retired {
		t.Fatalf("victim health = %v, want retired", h)
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 40; lba++ {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("LBA %d lost: %v", lba, err)
		}
	}
}

// TestOutOfSpaceDegradation: when nothing is reclaimable and the pool hits
// the reserve, writes shed with ErrOutOfSpace while reads and trims keep
// working — and writes resume automatically once trims free space.
func TestOutOfSpaceDegradation(t *testing.T) {
	cfg := testConfig()
	cfg.RescueReserve = 2
	// Advertise nearly the whole device so a unique-data fill must dip into
	// the reserve with nothing reclaimable.
	cfg.UserSectors = int64(cfg.Nand.Segments-1) * int64(cfg.Nand.PagesPerSegment)
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	// Fill the advertised capacity with unique live data: nothing invalid,
	// nothing reclaimable.
	written := int64(0)
	for lba := int64(0); lba < f.Sectors(); lba++ {
		var werr error
		now, werr = f.Write(now, lba, sectorPattern(ss, lba, 1))
		if werr != nil {
			if errors.Is(werr, ErrOutOfSpace) {
				break
			}
			t.Fatalf("LBA %d: %v", lba, werr)
		}
		written++
	}
	now = f.sched.Drain(now)
	// Keep writing fresh LBAs until degradation (if not already there).
	sawShed := false
	for lba := written; lba < f.Sectors(); lba++ {
		_, werr := f.Write(now, lba, sectorPattern(ss, lba, 1))
		if errors.Is(werr, ErrOutOfSpace) {
			sawShed = true
			break
		}
		if werr != nil {
			t.Fatalf("unexpected error: %v", werr)
		}
	}
	if !sawShed {
		t.Fatal("never saw ErrOutOfSpace filling the advertised capacity")
	}
	st := f.Stats()
	if !st.Degraded || st.OutOfSpaceWrites == 0 {
		t.Fatalf("degradation not surfaced: %+v", st)
	}
	// Reads still served.
	buf := make([]byte, ss)
	if _, err := f.Read(now, 0, buf); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 0, 1)) {
		t.Fatal("read while degraded returned wrong data")
	}
	// Trims still work and create reclaimable space...
	if now, err = f.Trim(now, 0, int64(written)/2); err != nil {
		t.Fatalf("trim while degraded: %v", err)
	}
	// ...after which writes recover automatically.
	var werr error
	for i := 0; i < 4; i++ { // a few attempts: the first may trigger cleaning
		if now, werr = f.Write(now, 0, sectorPattern(ss, 0, 2)); werr == nil {
			break
		}
	}
	if werr != nil {
		t.Fatalf("writes did not recover after trim: %v", werr)
	}
	if st := f.Stats(); st.Degraded {
		t.Fatal("degraded flag stuck after recovery")
	}
}

// TestRetiredSegmentSurvivesRecovery: retirement must hold across a
// crash/recover cycle, the retired segment staying out of both pools while
// all data remains readable.
func TestRetiredSegmentSurvivesRecovery(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 40; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.sched.Drain(now)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg != f.HeadSeg {
			victim = seg
			break
		}
	}
	f.dev.MarkSuspect(victim)
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	now = f.sched.Drain(now)
	if f.dev.SegmentHealth(victim) != nand.Retired {
		t.Fatal("setup: victim not retired")
	}

	// Crash (no Close) and recover on the same device.
	f2, now, err := Recover(f.cfg, f.dev, nil, now)
	if err != nil {
		t.Fatalf("recovery with retired segment: %v", err)
	}
	for _, s := range append(f2.UsedSegments(), f2.FreeSegs...) {
		if s == victim {
			t.Fatal("retired segment re-pooled by recovery")
		}
	}
	if f2.HeadSeg == victim {
		t.Fatal("recovery resumed head on retired segment")
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 40; lba++ {
		if _, err := f2.Read(now, lba, buf); err != nil {
			t.Fatalf("LBA %d unreadable after recovery: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 1)) {
			t.Fatalf("LBA %d content mismatch after recovery", lba)
		}
	}
}
