package iosnap

import (
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/ckpt"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Snapshot-aware checkpointing. A checkpoint captures, at one serialization
// instant, everything ioSnap's full-scan recovery would otherwise rebuild
// from the whole log:
//
//   - the active forward map (TypeCkptMap chunks);
//   - the snapshot tree, the epoch counter, and a segment table with each
//     used segment's erase count, programmed-page count, newest sequence
//     number, and epoch-presence summary (TypeCkptTree chunks);
//   - every epoch's validity delta — its CoW-owned bitmap pages plus its
//     parent link and deleted mark (TypeCkptValid chunks).
//
// Each of the three streams is framed and checksummed by the shared codec
// (internal/ckpt) and split into sector-sized chunks; a chunk's OOB header
// carries its stream type, its index (LBA field), and the stream's total
// chunk count (Epoch field). The device anchor — updated atomically only at
// commit, like a checkpoint pack — names every chunk of the committed
// generation, and those pages are pinned so the cleaner copies them forward
// instead of reclaiming them. ckptID = ckptSeq = f.Seq at serialization:
// recovery bulk-loads the checkpoint and replays only records newer than
// the cut-off, falling back to the full scan whenever anything about the
// generation cannot be proven intact.
//
// Epochs that provably die at crash recovery — the epoch of an in-flight
// activation, or a view epoch still on its activation note — are serialized
// as already-deleted ("dead-epoch normalization"), so a tail-bounded
// recovery reproduces the same epoch liveness the full scan derives from
// the note history.

// Section kinds inside the three ioSnap checkpoint streams.
const (
	ckptSecMap   = 1 // active map: count, then count × (lba, addr)
	ckptSecTree  = 2 // counter, active epoch, snapshots, segment table
	ckptSecValid = 3 // per-epoch parent/deleted/owned validity pages
	ckptSecGTD   = 4 // bounded-paged map: the global translation directory
)

// ckptSnapRec is one serialized snapshot-tree node.
type ckptSnapRec struct {
	id       SnapshotID
	epoch    bitmap.Epoch
	parentID SnapshotID // 0 = no parent
	deleted  bool
	noteAddr nand.PageAddr
}

// ckptSegRec is one used segment's identity at serialization time.
type ckptSegRec struct {
	seg      int
	erases   int
	prog     int
	maxSeq   uint64
	presence []bitmap.Epoch // epoch-presence summary, ascending
}

// ckptEpochRec is one epoch's serialized validity delta.
type ckptEpochRec struct {
	epoch   bitmap.Epoch
	parent  bitmap.Epoch // bitmap.NoParent for the root
	deleted bool         // normalized: includes epochs that die at recovery
	pages   []bitmap.OwnedPage
}

// ckptTreeState is the decoded tree stream.
type ckptTreeState struct {
	counter bitmap.Epoch
	active  bitmap.Epoch
	snaps   []ckptSnapRec
	table   []ckptSegRec
}

// ckptEpochDies reports whether epoch e, live right now, would be dead
// after a crash: full-scan recovery deletes the epoch of every activation
// that never froze into a snapshot. Serializing such epochs as deleted
// keeps tail-bounded recovery byte-compatible with the scan.
func (f *FTL) ckptEpochDies(e bitmap.Epoch) bool {
	for _, v := range f.views {
		if v != f.active && v.epoch == e && v.fromActivation {
			return true
		}
	}
	for _, a := range f.activations {
		if a.epoch == e {
			return true
		}
	}
	return false
}

// SerializeCheckpoint implements logcore.Policy: it captures the three
// streams at one instant and returns the checkpoint identity plus every
// chunk to program.
func (f *FTL) SerializeCheckpoint() (uint64, []logcore.Chunk, error) {
	ckptID := f.Seq

	// Stream 1: the active forward map. Tree and cache-unbounded maps
	// serialize the full mapping list (byte-identical between the two —
	// the unbounded equivalence contract). A bounded paged map serializes
	// only the GTD: every dirty translation page was flushed before this
	// point (the log core flushes before serializing), so the directory's
	// flash copies are current.
	var mw ckpt.Writer
	mapKind := uint8(ckptSecMap)
	if c := f.pagedActive(); c != nil && c.Bounded() {
		if dirty := c.DirtyPages(); len(dirty) != 0 {
			return 0, nil, fmt.Errorf("iosnap: checkpoint with %d unflushed translation pages", len(dirty))
		}
		mapKind = ckptSecGTD
		ents := c.GTDEntries()
		mw.U32(uint32(c.SlotsPerPage()))
		mw.U32(uint32(len(ents)))
		for _, ent := range ents {
			mw.U64(ent.Idx)
			mw.U64(ent.Addr)
			mw.U32(uint32(ent.Live))
		}
	} else {
		mw.U64(uint64(f.active.fmap.Len()))
		f.active.fmap.All(func(lba, addr uint64) bool {
			mw.U64(lba)
			mw.U64(addr)
			return true
		})
	}

	// Stream 2: epoch counter, active epoch, snapshot tree, segment table.
	var tw ckpt.Writer
	tw.U64(uint64(f.epochCounter))
	tw.U64(uint64(f.active.epoch))
	ids := f.tree.IDs()
	tw.U32(uint32(len(ids)))
	for _, id := range ids {
		s, _ := f.tree.Lookup(id)
		tw.U64(uint64(s.ID))
		tw.U64(uint64(s.Epoch))
		if s.Parent != nil {
			tw.U64(uint64(s.Parent.ID))
		} else {
			tw.U64(0)
		}
		tw.Bool(s.Deleted)
		tw.U64(uint64(s.noteAddr))
	}
	tw.U32(uint32(len(f.UsedSegs)))
	for _, s := range f.UsedSegs {
		tw.U32(uint32(s))
		tw.U32(uint32(f.dev.EraseCount(s)))
		tw.U32(uint32(f.dev.NextFreeInSegment(s)))
		tw.U64(f.SegLastSeq[s])
		eps := make([]bitmap.Epoch, 0, f.presence.count(s))
		for e := range f.presence.segs[s] {
			eps = append(eps, e)
		}
		sort.Slice(eps, func(i, j int) bool { return eps[i] < eps[j] })
		tw.U32(uint32(len(eps)))
		for _, e := range eps {
			tw.U64(uint64(e))
		}
	}

	// Stream 3: per-epoch validity deltas, ascending (parents first: epoch
	// numbers grow downward through the inheritance graph).
	var vw ckpt.Writer
	vw.U64(uint64(f.vstore.BitsPerPage()))
	epochs := f.vstore.Epochs()
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	vw.U32(uint32(len(epochs)))
	for _, e := range epochs {
		vw.U64(uint64(e))
		if p, ok := f.epochParent[e]; ok {
			vw.U64(uint64(p))
		} else {
			vw.U64(uint64(bitmap.NoParent))
		}
		vw.Bool(f.vstore.Deleted(e) || f.ckptEpochDies(e))
		pages := f.vstore.ExportEpoch(e)
		vw.U32(uint32(len(pages)))
		for _, pg := range pages {
			vw.U64(uint64(pg.PageIdx))
			for _, w := range pg.Words {
				vw.U64(w)
			}
		}
	}

	var jobs []logcore.Chunk
	for _, st := range []struct {
		typ  header.Type
		kind uint8
		data []byte
	}{
		{header.TypeCkptMap, mapKind, mw.B},
		{header.TypeCkptTree, ckptSecTree, tw.B},
		{header.TypeCkptValid, ckptSecValid, vw.B},
	} {
		stream := ckpt.Encode(ckptID, ckptID, []ckpt.Section{{Kind: st.kind, Data: st.data}})
		chunks, err := ckpt.Split(ckptID, stream, f.cfg.Nand.SectorSize)
		if err != nil {
			return 0, nil, fmt.Errorf("iosnap: chunking %v stream: %w", st.typ, err)
		}
		for i, c := range chunks {
			jobs = append(jobs, logcore.Chunk{Type: st.typ, Data: c, Idx: i, Total: len(chunks)})
		}
	}
	return ckptID, jobs, nil
}

// StartCheckpoint forces a background checkpoint now (tests and tools). It
// reports whether a task was scheduled.
func (f *FTL) StartCheckpoint(now sim.Time) bool {
	if !f.cfg.Nand.StoreData {
		return false
	}
	return f.Log.StartCheckpoint(now, f.active.fmap)
}

// CheckpointActive reports whether a checkpoint is being written.
func (f *FTL) CheckpointActive() bool { return f.CkptActive }

// orPinsInto overlays the victim's pinned pages — checkpoint chunks and
// live GTD-referenced translation pages — onto its merged validity clone
// so the cleaner's copy order visits them: both are valid in no epoch,
// but both must survive cleaning.
func (f *FTL) orPinsInto(victim int, merged *bitmap.Bitmap) {
	for a := range f.CkptPins {
		if f.dev.SegmentOf(a) == victim {
			merged.Set(int64(f.dev.PageIndexOf(a)))
		}
	}
	for a := range f.MapPins {
		if f.dev.SegmentOf(a) == victim {
			merged.Set(int64(f.dev.PageIndexOf(a)))
		}
	}
}

// ---- Decode helpers (recovery side). ----

// decodeCkptMapStream decodes the map stream in either layout: the full
// mapping list (tree / cache-unbounded checkpoints, ckptSecMap) or the
// global translation directory (bounded-paged checkpoints, ckptSecGTD).
// Exactly one of entries / gtd is non-nil on success.
func decodeCkptMapStream(secs []ckpt.Section) (entries [][2]uint64, gtd []mapcache.GTDEnt, slotsPer int, err error) {
	for _, s := range secs {
		switch s.Kind {
		case ckptSecMap:
			r := ckpt.Reader{B: s.Data}
			n := r.U64()
			entries = make([][2]uint64, 0, n)
			for i := uint64(0); i < n; i++ {
				lba, addr := r.U64(), r.U64()
				entries = append(entries, [2]uint64{lba, addr})
			}
			if r.Err() != nil {
				return nil, nil, 0, fmt.Errorf("iosnap: checkpoint map section: %w", r.Err())
			}
			return entries, nil, 0, nil
		case ckptSecGTD:
			r := ckpt.Reader{B: s.Data}
			slotsPer = int(r.U32())
			n := r.U32()
			gtd = make([]mapcache.GTDEnt, 0, n)
			for i := uint32(0); i < n; i++ {
				gtd = append(gtd, mapcache.GTDEnt{Idx: r.U64(), Addr: r.U64(), Live: int(r.U32())})
			}
			if r.Err() != nil {
				return nil, nil, 0, fmt.Errorf("iosnap: checkpoint GTD section: %w", r.Err())
			}
			return nil, gtd, slotsPer, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("iosnap: checkpoint map section missing")
}

func decodeCkptTree(secs []ckpt.Section) (*ckptTreeState, error) {
	for _, s := range secs {
		if s.Kind != ckptSecTree {
			continue
		}
		r := ckpt.Reader{B: s.Data}
		st := &ckptTreeState{
			counter: bitmap.Epoch(r.U64()),
			active:  bitmap.Epoch(r.U64()),
		}
		nSnaps := r.U32()
		for i := uint32(0); i < nSnaps; i++ {
			st.snaps = append(st.snaps, ckptSnapRec{
				id:       SnapshotID(r.U64()),
				epoch:    bitmap.Epoch(r.U64()),
				parentID: SnapshotID(r.U64()),
				deleted:  r.Bool(),
				noteAddr: nand.PageAddr(r.U64()),
			})
		}
		nSegs := r.U32()
		for i := uint32(0); i < nSegs; i++ {
			rec := ckptSegRec{
				seg:    int(r.U32()),
				erases: int(r.U32()),
				prog:   int(r.U32()),
				maxSeq: r.U64(),
			}
			nEps := r.U32()
			for j := uint32(0); j < nEps; j++ {
				rec.presence = append(rec.presence, bitmap.Epoch(r.U64()))
			}
			st.table = append(st.table, rec)
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("iosnap: checkpoint tree section: %w", r.Err())
		}
		return st, nil
	}
	return nil, fmt.Errorf("iosnap: checkpoint tree section missing")
}

func decodeCkptValid(secs []ckpt.Section, bitsPerPage int64) ([]ckptEpochRec, error) {
	for _, s := range secs {
		if s.Kind != ckptSecValid {
			continue
		}
		r := ckpt.Reader{B: s.Data}
		if got := int64(r.U64()); got != bitsPerPage {
			return nil, fmt.Errorf("iosnap: checkpoint bitmap granularity %d, store uses %d", got, bitsPerPage)
		}
		words := int(bitsPerPage / 64)
		nEpochs := r.U32()
		var out []ckptEpochRec
		for i := uint32(0); i < nEpochs; i++ {
			er := ckptEpochRec{
				epoch:   bitmap.Epoch(r.U64()),
				parent:  bitmap.Epoch(r.U64()),
				deleted: r.Bool(),
			}
			nPages := r.U32()
			for j := uint32(0); j < nPages; j++ {
				pg := bitmap.OwnedPage{PageIdx: int64(r.U64()), Words: make([]uint64, words)}
				for w := 0; w < words; w++ {
					pg.Words[w] = r.U64()
				}
				er.pages = append(er.pages, pg)
			}
			out = append(out, er)
			if r.Err() != nil {
				return nil, fmt.Errorf("iosnap: checkpoint validity section: %w", r.Err())
			}
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("iosnap: checkpoint validity section: %w", r.Err())
		}
		return out, nil
	}
	return nil, fmt.Errorf("iosnap: checkpoint validity section missing")
}

// checkSegTable decides whether a checkpoint's segment table still
// describes the device, returning the recorded-segment index. ok=false
// means a recorded segment was erased, retired, or rewound since
// serialization — the cleaner moved pre-cut-off blocks, so the generation
// is stale and recovery must fall back to the full scan.
func checkSegTable(dev *nand.Device, table []ckptSegRec) (recorded map[int]ckptSegRec, ok bool) {
	recorded = make(map[int]ckptSegRec, len(table))
	for _, rec := range table {
		if rec.seg < 0 || rec.seg >= dev.Config().Segments {
			return nil, false
		}
		if dev.SegmentHealth(rec.seg) == nand.Retired {
			return nil, false
		}
		if dev.EraseCount(rec.seg) != rec.erases {
			return nil, false
		}
		if dev.NextFreeInSegment(rec.seg) < rec.prog {
			return nil, false
		}
		recorded[rec.seg] = rec
	}
	return recorded, true
}
