package iosnap

import (
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// SnapshotID identifies a snapshot on one device.
type SnapshotID uint64

// Snapshot is one node of the snapshot tree (paper Figure 4). A snapshot
// freezes the epoch that was active when it was created; the data reachable
// from a snapshot is the union of its lineage's epochs.
type Snapshot struct {
	ID        SnapshotID
	Epoch     bitmap.Epoch
	Parent    *Snapshot // nil for snapshots of the initial lineage root
	Children  []*Snapshot
	Deleted   bool
	CreatedAt sim.Time

	noteAddr nand.PageAddr // location of the snap-create note
}

// Lineage returns the epochs captured by this snapshot, oldest first:
// the epochs of all ancestors plus its own.
func (s *Snapshot) Lineage() []bitmap.Epoch {
	var rev []bitmap.Epoch
	for n := s; n != nil; n = n.Parent {
		rev = append(rev, n.Epoch)
	}
	out := make([]bitmap.Epoch, len(rev))
	for i, e := range rev {
		out[len(rev)-1-i] = e
	}
	return out
}

// Depth returns how many ancestors the snapshot has.
func (s *Snapshot) Depth() int {
	d := 0
	for n := s.Parent; n != nil; n = n.Parent {
		d++
	}
	return d
}

// Tree is the snapshot tree: all snapshots ever created on the device,
// including deleted ones (kept as tombstones until their blocks are fully
// reclaimed — mirrors the paper's marked-deleted semantics).
type Tree struct {
	byID    map[SnapshotID]*Snapshot
	byEpoch map[bitmap.Epoch]*Snapshot
	nextID  SnapshotID
	nodes   int64 // in-memory node estimate for stats
}

// NewTree returns an empty snapshot tree.
func NewTree() *Tree {
	return &Tree{
		byID:    make(map[SnapshotID]*Snapshot),
		byEpoch: make(map[bitmap.Epoch]*Snapshot),
		nextID:  1,
	}
}

// Lookup returns the snapshot with the given id.
func (t *Tree) Lookup(id SnapshotID) (*Snapshot, bool) {
	s, ok := t.byID[id]
	return s, ok
}

// ByEpoch returns the snapshot that froze the given epoch.
func (t *Tree) ByEpoch(e bitmap.Epoch) (*Snapshot, bool) {
	s, ok := t.byEpoch[e]
	return s, ok
}

// Len returns the number of snapshots (including deleted tombstones).
func (t *Tree) Len() int { return len(t.byID) }

// Live returns the number of non-deleted snapshots.
func (t *Tree) Live() int {
	n := 0
	for _, s := range t.byID {
		if !s.Deleted {
			n++
		}
	}
	return n
}

// IDs returns all snapshot ids in ascending order.
func (t *Tree) IDs() []SnapshotID {
	out := make([]SnapshotID, 0, len(t.byID))
	for id := range t.byID {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// add registers a snapshot built by the FTL or by recovery.
func (t *Tree) add(s *Snapshot) {
	t.byID[s.ID] = s
	t.byEpoch[s.Epoch] = s
	if s.Parent != nil {
		s.Parent.Children = append(s.Parent.Children, s)
	}
	if s.ID >= t.nextID {
		t.nextID = s.ID + 1
	}
	t.nodes++
}

// CreateSnapshot snapshots the active device: the current epoch is frozen
// into a new snapshot node and the active view moves to a fresh epoch that
// inherits the frozen validity state.
//
// Per the paper (§5.8) this is four steps — the application quiesces writes
// (implicit here: the simulation is single-threaded), a snapshot-create
// note is appended to the log, the epoch counter increments, and the
// snapshot joins the tree. The whole operation costs one page program.
func (f *FTL) CreateSnapshot(now sim.Time) (*Snapshot, sim.Time, error) {
	return f.CreateSnapshotAs(now, f.tree.nextID)
}

// NextSnapshotID returns the ID CreateSnapshot would assign next.
func (f *FTL) NextSnapshotID() SnapshotID { return f.tree.nextID }

// CreateSnapshotAs is CreateSnapshot with a caller-chosen ID, which must be
// at least NextSnapshotID; the IDs in between are skipped for good. A
// sharded device uses it to keep one ID across shards whose counters
// drifted apart.
func (f *FTL) CreateSnapshotAs(now sim.Time, id SnapshotID) (*Snapshot, sim.Time, error) {
	if f.Closed {
		return nil, now, ErrClosed
	}
	if id < f.tree.nextID {
		return nil, now, fmt.Errorf("iosnap: snapshot ID %d already used (next is %d)", id, f.tree.nextID)
	}
	return f.createSnapshotFrom(f.active, now, id)
}

func (f *FTL) createSnapshotFrom(v *view, now sim.Time, id SnapshotID) (*Snapshot, sim.Time, error) {
	frozen := v.epoch

	noteAddr, done, err := f.writeNote(now, header.TypeSnapCreate, id, frozen)
	if err != nil {
		return nil, now, err
	}

	f.epochCounter++
	newEpoch := f.epochCounter
	if err := f.vstore.CreateEpoch(newEpoch, frozen); err != nil {
		return nil, now, fmt.Errorf("iosnap: creating epoch %d: %w", newEpoch, err)
	}
	f.epochParent[newEpoch] = frozen

	snap := &Snapshot{
		ID:        id,
		Epoch:     frozen,
		Parent:    v.parent,
		CreatedAt: now,
		noteAddr:  noteAddr,
	}
	f.tree.add(snap)
	v.epoch = newEpoch
	v.parent = snap
	// The view now continues on a fresh epoch born of a create, not an
	// activation: a crash keeps that epoch's lineage (it is a snapshot
	// child), so checkpoints must not normalize it dead.
	v.fromActivation = false
	f.stats.SnapshotCreates++
	return snap, done, nil
}

// DeleteSnapshot marks a snapshot deleted: a note makes the deletion
// durable, the tree node is tombstoned, and the snapshot's exclusively-held
// blocks become reclaimable — the cleaner frees them in the background, so
// deletion itself costs one page program (paper §5.8).
func (f *FTL) DeleteSnapshot(now sim.Time, id SnapshotID) (sim.Time, error) {
	if f.Closed {
		return now, ErrClosed
	}
	snap, ok := f.tree.Lookup(id)
	if !ok {
		return now, fmt.Errorf("%w: %d", ErrNoSuchSnapshot, id)
	}
	if snap.Deleted {
		return now, fmt.Errorf("%w: %d", ErrSnapshotDeleted, id)
	}
	_, done, err := f.writeNote(now, header.TypeSnapDelete, id, snap.Epoch)
	if err != nil {
		return now, err
	}
	snap.Deleted = true
	if err := f.vstore.DeleteEpoch(snap.Epoch); err != nil {
		return now, fmt.Errorf("iosnap: deleting epoch %d: %w", snap.Epoch, err)
	}
	// The create note stays on the log (one 4 KB block per snapshot ever
	// created — the paper's "insignificant" fixed metadata): recovery
	// replays the full note history to reproduce epoch numbering, so even
	// tombstoned snapshots keep their create note.
	f.stats.SnapshotDeletes++
	return done, nil
}

// Snapshots returns the live snapshots in creation order.
func (f *FTL) Snapshots() []*Snapshot {
	var out []*Snapshot
	for _, id := range f.tree.IDs() {
		s, _ := f.tree.Lookup(id)
		if !s.Deleted {
			out = append(out, s)
		}
	}
	return out
}
