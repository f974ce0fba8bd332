package iosnap

import (
	"bytes"
	"errors"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
	"iosnap/internal/xport"
)

// replPair builds a source FTL with some initial content plus a blank
// destination FTL of identical geometry, and returns the expected image
// (lba -> payload) of the content written so far.
func replPair(t *testing.T, lbas []int64, version byte) (src, dst *FTL, want map[int64][]byte, now sim.Time) {
	t.Helper()
	src = newTestFTL(t)
	dst = newTestFTL(t)
	want = make(map[int64][]byte)
	ss := src.SectorSize()
	for _, lba := range lbas {
		data := sectorPattern(ss, lba, version)
		d, err := src.Write(now, lba, data)
		if err != nil {
			t.Fatalf("seed write lba %d: %v", lba, err)
		}
		now = d
		want[lba] = data
	}
	return src, dst, want, now
}

// checkReplica asserts dst holds exactly the expected image: every
// expected sector bit-identical, every other sector zero.
func checkReplica(t *testing.T, dst *FTL, want map[int64][]byte) {
	t.Helper()
	ss := dst.SectorSize()
	buf := make([]byte, ss)
	zero := make([]byte, ss)
	for lba := int64(0); lba < dst.Sectors(); lba++ {
		if _, err := dst.Read(0, lba, buf); err != nil {
			t.Fatalf("replica read lba %d: %v", lba, err)
		}
		if exp, ok := want[lba]; ok {
			if !bytes.Equal(buf, exp) {
				t.Fatalf("replica lba %d differs from snapshot image", lba)
			}
		} else if !bytes.Equal(buf, zero) {
			t.Fatalf("replica lba %d should be zero (unmapped in image)", lba)
		}
	}
}

func TestFullReplicateBitIdentical(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 7, 40, 41, 99}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite after the snapshot: the export must ship the frozen image,
	// not the live one.
	ss := src.SectorSize()
	if now, err = src.Write(now, 7, sectorPattern(ss, 7, 9)); err != nil {
		t.Fatal(err)
	}

	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	m, now, err := r.Replicate(now, snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.IsDelta() {
		t.Fatal("first replication must be a full image")
	}
	if len(m.Writes) != len(want) {
		t.Fatalf("manifest defines %d sectors, want %d", len(m.Writes), len(want))
	}
	checkReplica(t, dst, want)

	mism, _, err := VerifyReplica(dst, now, m)
	if err != nil || len(mism) != 0 {
		t.Fatalf("verify: mismatches %v, err %v", mism, err)
	}
	if got := src.Stats().ExportChunks; got != int64(len(want)) {
		t.Fatalf("ExportChunks = %d, want %d", got, len(want))
	}
	if r.Generation() == nil || r.Generation().ID() != m.ID() {
		t.Fatal("replicator did not commit the generation")
	}
	if r.Journal() != nil {
		t.Fatal("committed transfer must clear the journal")
	}
}

func TestIncrementalShipsOnlyTheDelta(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 31}, 1)
	ss := src.SectorSize()
	s1, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	if _, now, err = r.Replicate(now, s1.ID, 0); err != nil {
		t.Fatal(err)
	}
	fullChunks := src.Stats().ExportChunks

	// Change two sectors, add one, trim one; freeze the next generation.
	for _, lba := range []int64{3, 7} {
		if now, err = src.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
		want[lba] = sectorPattern(ss, lba, 2)
	}
	if now, err = src.Write(now, 55, sectorPattern(ss, 55, 2)); err != nil {
		t.Fatal(err)
	}
	want[55] = sectorPattern(ss, 55, 2)
	if now, err = src.Trim(now, 30, 1); err != nil {
		t.Fatal(err)
	}
	delete(want, 30)
	s2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}

	m, now, err := r.Replicate(now, s2.ID, s1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsDelta() {
		t.Fatal("base-relative replication must produce a delta")
	}
	deltaChunks := src.Stats().ExportChunks - fullChunks
	if deltaChunks != 3 {
		t.Fatalf("delta shipped %d chunks, want 3 (changed 3/7, new 55)", deltaChunks)
	}
	if deltaChunks >= fullChunks {
		t.Fatalf("incremental (%d) must ship fewer chunks than full (%d)", deltaChunks, fullChunks)
	}
	if len(m.Deletes) != 1 || m.Deletes[0] != 30 {
		t.Fatalf("delta deletes %v, want [30]", m.Deletes)
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("verify: %v, %v", mism, err)
	}
}

func TestDedupSkipsUnchangedContent(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7}, 1)
	s1, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	if _, now, err = r.Replicate(now, s1.ID, 0); err != nil {
		t.Fatal(err)
	}

	// Rewrite one sector with DIFFERENT bytes and snapshot again: a full
	// (non-delta) replication of s2 still only ships that one chunk — the
	// committed generation dedups every unchanged sector.
	ss := src.SectorSize()
	if now, err = src.Write(now, 4, sectorPattern(ss, 4, 2)); err != nil {
		t.Fatal(err)
	}
	want[4] = sectorPattern(ss, 4, 2)
	s2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	before := src.Stats()
	m, _, err := r.Replicate(now, s2.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := src.Stats()
	if shipped := after.ExportChunks - before.ExportChunks; shipped != 1 {
		t.Fatalf("full-with-dedup shipped %d chunks, want 1", shipped)
	}
	if hits := after.ExportDedupHits - before.ExportDedupHits; hits != int64(len(want)-1) {
		t.Fatalf("dedup hits = %d, want %d", hits, len(want)-1)
	}
	if m.IsDelta() {
		t.Fatal("base=0 replication must still be a full manifest")
	}
	checkReplica(t, dst, want)
}

func TestCrashMidReceiveResumes(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, now, err := src.ExportSync(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}

	var persisted []byte
	keep := func(j []byte) error { persisted = append([]byte(nil), j...); return nil }

	// Crash after three applied chunks. The journal persisted at the abort
	// is everything the resume may rely on.
	rec, now, err := ReceiveInto(dst, now, stream, ReceiveOpts{AbortAfter: 3, Persist: keep, PersistEvery: 2})
	if !errors.Is(err, ErrReceiveAborted) {
		t.Fatalf("want ErrReceiveAborted, got %v", err)
	}
	if rec.Applied != 3 || persisted == nil {
		t.Fatalf("aborted receive: applied %d, journal persisted %v", rec.Applied, persisted != nil)
	}

	// Resume from the persisted journal: only the remaining chunks land.
	rec2, now, err := ReceiveInto(dst, now, stream, ReceiveOpts{Journal: persisted, Persist: keep})
	if err != nil {
		t.Fatal(err)
	}
	if !rec2.Resumed {
		t.Fatal("second receive must report Resumed")
	}
	if rec2.Skipped != 3 || rec2.Applied != len(want)-3 {
		t.Fatalf("resume skipped %d applied %d, want 3/%d", rec2.Skipped, rec2.Applied, len(want)-3)
	}
	if !rec2.Journal.Committed {
		t.Fatal("resumed receive must commit")
	}
	checkReplica(t, dst, want)

	// A journal from this transfer must be refused by a different one.
	if now, err = src.Write(now, 1, sectorPattern(src.SectorSize(), 1, 3)); err != nil {
		t.Fatal(err)
	}
	snap2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	_, stream2, now, err := src.ExportSync(now, ExportOpts{Snapshot: snap2.ID})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReceiveInto(dst, now, stream2, ReceiveOpts{Journal: persisted}); !errors.Is(err, xport.ErrWrongTransfer) {
		t.Fatalf("stale journal: want ErrWrongTransfer, got %v", err)
	}
}

// TestPersistFailureAbortsReceive: when the journal cannot be made
// durable, the receive must fail — not report success against a resume
// contract that exists only in memory. (Regression: Persist errors used to
// be unreportable by signature.)
func TestPersistFailureAbortsReceive(t *testing.T) {
	src, dst, _, now := replPair(t, []int64{0, 1, 2, 3, 4}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, now, err := src.ExportSync(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sidecar device full")
	// Fail the very first durability point.
	rec, _, rerr := ReceiveInto(dst, now, stream, ReceiveOpts{Persist: func([]byte) error { return boom }})
	if !errors.Is(rerr, boom) {
		t.Fatalf("receive with failing persist returned %v, want the persist error", rerr)
	}
	if rec != nil && rec.Journal.Committed {
		t.Fatal("journal claims committed although it never became durable")
	}

	// Fail only the final (commit) persist: everything applied, but the
	// commit record was lost — the call must still fail and the journal
	// must not claim Committed.
	calls := 0
	var last error
	rec, _, rerr = ReceiveInto(dst, now, stream, ReceiveOpts{
		PersistEvery: 1000, // only the clear-phase and commit persists fire
		Persist: func(j []byte) error {
			calls++
			if calls >= 2 {
				last = boom
				return boom
			}
			return nil
		},
	})
	if !errors.Is(rerr, boom) || last == nil {
		t.Fatalf("receive with failing commit persist returned %v (persist calls %d)", rerr, calls)
	}
	if rec.Journal.Committed {
		t.Fatal("journal claims committed although the commit record was lost")
	}

	// The replicator propagates the same failure instead of committing a
	// generation whose journal never persisted.
	r := &Replicator{Src: src, Dst: dst, Persist: func([]byte) error { return boom }}
	if _, _, err := r.Replicate(now, snap.ID, 0); !errors.Is(err, boom) {
		t.Fatalf("replicate with failing persist returned %v, want the persist error", err)
	}
	if r.Generation() != nil {
		t.Fatal("failed replication must not advance the committed generation")
	}
}

func TestDamagedStreamFailsAtomically(t *testing.T) {
	src, dst, _, now := replPair(t, []int64{0, 1, 2, 3, 4}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	_, stream, now, err := src.ExportSync(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Seed the destination with a sentinel the receive must not disturb.
	ss := dst.SectorSize()
	sentinel := sectorPattern(ss, 2, 77)
	if now, err = dst.Write(now, 2, sentinel); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-9] }, xport.ErrTruncated},
		{"bit-flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x20
			return c
		}, xport.ErrBadChecksum},
		{"empty", func(b []byte) []byte { return nil }, xport.ErrTruncated},
	}
	for _, tc := range cases {
		var persisted bool
		_, _, err := ReceiveInto(dst, now, tc.mangle(stream), ReceiveOpts{Persist: func([]byte) error { persisted = true; return nil }})
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if !xport.Retryable(err) {
			t.Fatalf("%s: stream damage must be retryable", tc.name)
		}
		if persisted {
			t.Fatalf("%s: rejected stream must not journal anything", tc.name)
		}
		buf := make([]byte, ss)
		if _, err := dst.Read(now, 2, buf); err != nil || !bytes.Equal(buf, sentinel) {
			t.Fatalf("%s: rejected stream mutated the destination", tc.name)
		}
	}
}

func TestReplicatorRetriesWireDamage(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	r := &Replicator{
		Src:    src,
		Dst:    dst,
		Policy: retry.Policy{MaxAttempts: 4, Backoff: 100 * sim.Microsecond},
		// Attempt 1 arrives truncated, attempt 2 bit-flipped, attempt 3 clean.
		Mangle: func(attempt int, stream []byte) []byte {
			switch attempt {
			case 1:
				return stream[:len(stream)-20]
			case 2:
				c := append([]byte(nil), stream...)
				c[len(c)-30] ^= 0x01
				return c
			}
			return stream
		},
	}
	m, now, err := r.Replicate(now, snap.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.Stats().ImportRetries; got != 2 {
		t.Fatalf("ImportRetries = %d, want 2", got)
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("verify after retries: %v, %v", mism, err)
	}
}

func TestTransientNANDDuringExport(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Transient read faults plus a read-side corruption during the export's
	// payload reads: the media retry layer absorbs both.
	plan := faultinject.NewPlan(3,
		faultinject.Rule{Kind: faultinject.KindTransient, Op: nand.OpRead, Seg: faultinject.AnySeg, AfterN: 2, Times: 1},
		faultinject.Rule{Kind: faultinject.KindCorruptData, Op: nand.OpRead, Seg: faultinject.AnySeg, AfterN: 4, Times: 1})
	plan.Arm(src.Device())
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	m, now, err := r.Replicate(now, snap.ID, 0)
	plan.Disarm(src.Device())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Fired()) == 0 {
		t.Fatal("plan never fired — test exercised nothing")
	}
	if src.Stats().Retries == 0 {
		t.Fatal("expected media retries during export")
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("verify: %v, %v", mism, err)
	}
}

func TestVerifyRepairAfterDestinationCorruption(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// One of the receive's programs on the DESTINATION persists corrupted
	// bytes (detected on every read until the sector is rewritten). The
	// post-receive verify flags it; the repair pass re-applies exactly that
	// sector from the stream, landing on a fresh page.
	plan := faultinject.CorruptNth(nand.OpProgram, 3)
	plan.Arm(dst.Device())
	r := &Replicator{
		Src:    src,
		Dst:    dst,
		Policy: retry.Policy{MaxAttempts: 3, Backoff: 100 * sim.Microsecond},
	}
	m, now, err := r.Replicate(now, snap.ID, 0)
	plan.Disarm(dst.Device())
	if err != nil {
		t.Fatal(err)
	}
	st := src.Stats()
	if st.VerifyMismatches == 0 {
		t.Fatal("expected the corrupted sector to fail verification once")
	}
	if st.ImportRetries == 0 {
		t.Fatal("expected a repair attempt")
	}
	checkReplica(t, dst, want)
	if mism, _, err := VerifyReplica(dst, now, m); err != nil || len(mism) != 0 {
		t.Fatalf("repaired replica must verify clean: %v, %v", mism, err)
	}
}

func TestExportWhileForegroundWritesContinue(t *testing.T) {
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	x, now, err := src.BeginExport(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave overwrites with export steps: one foreground write per
	// export quantum, touching sectors the snapshot covers.
	ss := src.SectorSize()
	lba := int64(0)
	for !x.Done() {
		next, fin := x.Run(now)
		if fin {
			break
		}
		if next > now {
			now = next
		}
		if now, err = src.Write(now, lba%10, sectorPattern(ss, lba%10, 5)); err != nil {
			t.Fatal(err)
		}
		lba++
	}
	if lba == 0 {
		t.Fatal("export finished in one quantum — nothing interleaved")
	}
	_, stream, err := x.Result()
	if err != nil {
		t.Fatal(err)
	}
	if _, now, err = ReceiveInto(dst, now, stream, ReceiveOpts{}); err != nil {
		t.Fatal(err)
	}
	// The replica must equal the FROZEN image (version 1), untouched by the
	// interleaved version-5 writes.
	checkReplica(t, dst, want)
}

func TestExportGuards(t *testing.T) {
	now := sim.Time(0)

	t.Run("fingerprint mode", func(t *testing.T) {
		cfg := testConfig()
		cfg.Nand.StoreData = false
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		d, err := f.Write(now, 1, make([]byte, f.SectorSize()))
		if err != nil {
			t.Fatal(err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID}); !errors.Is(err, ErrBadExport) {
			t.Fatalf("fingerprint-mode export: got %v, want ErrBadExport", err)
		}
	})

	t.Run("unknown and deleted snapshots", func(t *testing.T) {
		f := newTestFTL(t)
		d, err := f.Write(now, 1, make([]byte, f.SectorSize()))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: 42}); !errors.Is(err, ErrNoSuchSnapshot) {
			t.Fatalf("unknown snapshot: %v", err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		s2, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		if d, err = f.DeleteSnapshot(d, snap.ID); err != nil {
			t.Fatal(err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID}); !errors.Is(err, ErrSnapshotDeleted) {
			t.Fatalf("deleted snapshot: %v", err)
		}
		if _, _, err := f.BeginExport(d, ExportOpts{Snapshot: s2.ID, Base: snap.ID}); !errors.Is(err, ErrSnapshotDeleted) {
			t.Fatalf("deleted base: %v", err)
		}
	})

	t.Run("deleted mid-export", func(t *testing.T) {
		f := newTestFTL(t)
		d, err := f.Write(now, 1, sectorPattern(f.SectorSize(), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		x, d, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID})
		if err != nil {
			t.Fatal(err)
		}
		if d, err = f.DeleteSnapshot(d, snap.ID); err != nil {
			t.Fatal(err)
		}
		for !x.Done() {
			var fin bool
			d, fin = x.Run(d)
			if fin {
				break
			}
		}
		if !errors.Is(x.Err(), ErrExportAborted) {
			t.Fatalf("mid-export deletion: got %v, want ErrExportAborted", x.Err())
		}
		if len(f.exports) != 0 {
			t.Fatal("failed export must deregister itself")
		}
	})

	t.Run("cancel", func(t *testing.T) {
		f := newTestFTL(t)
		d, err := f.Write(now, 1, sectorPattern(f.SectorSize(), 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		snap, d, err := f.FrozenSnapshot(d)
		if err != nil {
			t.Fatal(err)
		}
		x, d, err := f.BeginExport(d, ExportOpts{Snapshot: snap.ID})
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Cancel(d); err != nil {
			t.Fatal(err)
		}
		if !x.Done() || !errors.Is(x.Err(), ErrExportAborted) || len(f.exports) != 0 {
			t.Fatalf("cancel: done %v err %v exports %d", x.Done(), x.Err(), len(f.exports))
		}
	})
}

func TestDeltaRequiresMatchingBase(t *testing.T) {
	src, dst, _, now := replPair(t, []int64{0, 1, 2, 3}, 1)
	ss := src.SectorSize()
	s1, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = src.Write(now, 2, sectorPattern(ss, 2, 2)); err != nil {
		t.Fatal(err)
	}
	s2, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	// Export the delta with a bogus receiver-generation stamp.
	_, stream, now, err := src.ExportSync(now, ExportOpts{Snapshot: s2.ID, Base: s1.ID, BaseManifestID: 0xDEAD})
	if err != nil {
		t.Fatal(err)
	}
	// Bare destination: refused.
	if _, _, err := ReceiveInto(dst, now, stream, ReceiveOpts{}); !errors.Is(err, xport.ErrBaseMismatch) {
		t.Fatalf("delta on bare destination: %v", err)
	}
	// Destination holding a different generation: refused.
	other := &xport.Manifest{SnapID: 1, SectorSize: ss, Sectors: src.Sectors()}
	if _, _, err := ReceiveInto(dst, now, stream, ReceiveOpts{Base: other}); !errors.Is(err, xport.ErrBaseMismatch) {
		t.Fatalf("delta on wrong generation: %v", err)
	}
	// A replicator with no committed generation refuses to even export one.
	r := &Replicator{Src: src, Dst: dst, Policy: retry.Default()}
	if _, _, err := r.Replicate(now, s2.ID, s1.ID); !errors.Is(err, xport.ErrBaseMismatch) {
		t.Fatalf("incremental with no generation: %v", err)
	}
}

func TestExportSurvivesGCMoves(t *testing.T) {
	// Begin an export, then force cleaning between quanta so collected
	// entries are re-pointed by gcFixup (f.exports wiring). The finished
	// replica must still be bit-identical.
	src, dst, want, now := replPair(t, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 1)
	snap, now, err := src.FrozenSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	x, now, err := src.BeginExport(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	ss := src.SectorSize()
	i := int64(0)
	for !x.Done() {
		next, fin := x.Run(now)
		if fin {
			break
		}
		if next > now {
			now = next
		}
		// Churn hard enough to trigger cleaning while the export is live.
		for k := 0; k < 8; k++ {
			if now, err = src.Write(now, 12+(i%20), sectorPattern(ss, 12+(i%20), byte(2+i%3))); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	_, stream, err := x.Result()
	if err != nil {
		t.Fatal(err)
	}
	if src.Stats().GCRuns == 0 {
		t.Skip("churn did not trigger cleaning on this geometry")
	}
	if _, _, err = ReceiveInto(dst, now, stream, ReceiveOpts{}); err != nil {
		t.Fatal(err)
	}
	checkReplica(t, dst, want)
}

func TestDestageThenDeleteFreesFlash(t *testing.T) {
	// The destage workflow: export a snapshot, delete it, verify the
	// cleaner can then reclaim its blocks (the device keeps working under
	// churn that would otherwise exhaust it).
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 100; lba++ {
		f.sched.RunUntil(now)
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 1))
	}
	snap, now, _ := f.CreateSnapshot(now)
	for lba := int64(0); lba < 100; lba++ {
		f.sched.RunUntil(now)
		now, _ = f.Write(now, lba, sectorPattern(ss, lba, 2))
	}
	_, archive, now, err := f.ExportSync(now, ExportOpts{Snapshot: snap.ID})
	if err != nil {
		t.Fatal(err)
	}
	if now, err = f.DeleteSnapshot(now, snap.ID); err != nil {
		t.Fatal(err)
	}
	// Churn that needs the reclaimed space.
	rng := sim.NewRNG(9)
	for i := 0; i < 300; i++ {
		f.sched.RunUntil(now)
		lba := rng.Int63n(100)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, byte(i)))
		if err != nil {
			t.Fatalf("churn after destage: %v", err)
		}
		now = d
	}
	// And the archive still restores generation 1.
	dst := newTestFTL(t)
	_, now2, err := ReceiveInto(dst, 0, archive, ReceiveOpts{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	if _, err := dst.Read(now2, 42, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 42, 1)) {
		t.Fatal("archive lost the snapshot contents")
	}
}
