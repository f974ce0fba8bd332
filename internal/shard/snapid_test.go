package shard

import (
	"errors"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
)

// requireSnapshotOnEveryShard fails unless every shard holds id as a live
// snapshot.
func requireSnapshotOnEveryShard(t *testing.T, s *Service, id iosnap.SnapshotID) {
	t.Helper()
	for i, f := range s.r.shards {
		snap, ok := f.Tree().Lookup(id)
		if !ok || snap.Deleted {
			t.Fatalf("shard %d lacks live snapshot %d", i, id)
		}
	}
}

// TestPartialCreateKeepsSnapshotIDsAligned runs one shard of a 4-shard
// device out of space so a snapshot create fails part-way (the shards
// before it create and roll back, the shards after it never see it), then
// checks that the next create succeeds everywhere under one ID — before
// and after a remount.
func TestPartialCreateKeepsSnapshotIDsAligned(t *testing.T) {
	cfg := multiConfig(4, 0) // contiguous: one LBA range per shard
	// Two rescue-reserve segments per shard: a full shard still has room
	// for the delete note that frees it.
	cfg.Base.RescueReserve = 2 * cfg.Shards
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ss := s.SectorSize()
	per := s.Sectors() / int64(s.Shards())
	full := int64(2) // the shard driven out of space
	lo := full * per
	write := func(v byte) error {
		for lba := lo; lba < lo+per*2/3; lba++ {
			if err := s.Write(lba, runPattern(ss, lba, 1, v)); err != nil {
				return err
			}
		}
		return nil
	}

	// A snapshot pins two thirds of the shard's range; overwriting them
	// once more cannot fit, and nothing is reclaimable while the snapshot
	// lives.
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	pin, err := s.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := write(2); !errors.Is(err, iosnap.ErrOutOfSpace) {
		t.Fatalf("overwrite under a pinning snapshot: got %v, want ErrOutOfSpace", err)
	}
	if _, err := s.CreateSnapshot(); !errors.Is(err, iosnap.ErrOutOfSpace) {
		t.Fatalf("create on a full shard: got %v, want ErrOutOfSpace", err)
	}

	// Deleting the pinning snapshot makes the full shard reclaimable again.
	if err := s.DeleteSnapshot(pin); err != nil {
		t.Fatal(err)
	}
	id, err := s.CreateSnapshot()
	if err != nil {
		t.Fatalf("create after a failed partial create: %v", err)
	}
	requireSnapshotOnEveryShard(t, s, id)

	// Remount from the devices: recovery rebuilds every shard's ID counter
	// from its own log, and the next create must still agree.
	devs := make([]*nand.Device, s.Shards())
	for i, f := range s.r.shards {
		devs[i] = f.Device()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := NewServiceFrom(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	requireSnapshotOnEveryShard(t, s2, id)
	id2, err := s2.CreateSnapshot()
	if err != nil {
		t.Fatalf("create after remount: %v", err)
	}
	if id2 <= id {
		t.Fatalf("create after remount reused ID %d (previous %d)", id2, id)
	}
	requireSnapshotOnEveryShard(t, s2, id2)
}
