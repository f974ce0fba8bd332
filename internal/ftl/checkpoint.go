package ftl

import (
	"fmt"

	"iosnap/internal/ckpt"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
)

// Checkpoint format (shared codec, internal/ckpt): a stream of sections —
// the forward map and a segment table — framed with the checkpoint's
// identity and a checksum, split into sector-sized chunks each tagged with
// the checkpoint ID. The chunk header carries the chunk index in LBA and
// the total chunk count in Epoch, so a scan can group a generation's
// chunks and prove it complete ({0..total-1}, all tagged with the same ID)
// before decoding anything. The checkpoint's identity doubles as its
// cut-off: ckptID = ckptSeq = f.Seq at serialization, and recovery replays
// only records with seq > ckptSeq on top of the loaded state.
//
// The segment table is what makes a checkpoint safely *skippable* work at
// recovery: for every used segment it records the erase count, programmed
// page count, and newest sequence number at serialization time. A segment
// whose erase count has since changed was reclaimed by the cleaner — its
// blocks were copy-forwarded with their sequence numbers preserved, i.e.
// below the cut-off and invisible to tail replay — so the whole checkpoint
// is stale and recovery falls back to the full scan.

// Section kinds inside a vanilla checkpoint stream.
const (
	ckptSecMap      = 1 // forward map: count, then count × (lba, addr)
	ckptSecSegTable = 2 // segment table: count, then count × (seg, erases, prog, maxSeq)
	ckptSecGTD      = 3 // bounded-paged map: the global translation directory
)

// ckptSegRecord is one used segment's identity at serialization time.
type ckptSegRecord struct {
	seg    int
	erases int
	prog   int
	maxSeq uint64
}

// SerializeCheckpoint implements logcore.Policy: it captures the forward
// map and segment table at one instant and returns the checkpoint identity
// plus its sector-sized chunks.
func (f *FTL) SerializeCheckpoint() (uint64, []logcore.Chunk, error) {
	ckptID := f.Seq
	// Tree and cache-unbounded maps serialize the full mapping list
	// (byte-identical between the two — the unbounded equivalence
	// contract). A bounded paged map serializes only the GTD: every dirty
	// translation page was flushed before this point (the log core
	// flushes before serializing), so the directory's flash
	// copies are current.
	var mw ckpt.Writer
	mapKind := uint8(ckptSecMap)
	if c := f.fmap.Paged(); c != nil && c.Bounded() {
		if dirty := c.DirtyPages(); len(dirty) != 0 {
			return 0, nil, fmt.Errorf("ftl: checkpoint with %d unflushed translation pages", len(dirty))
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
		mw.U64(uint64(f.fmap.Len()))
		f.fmap.All(func(k, v uint64) bool {
			mw.U64(k)
			mw.U64(v)
			return true
		})
	}
	var sw ckpt.Writer
	sw.U32(uint32(len(f.UsedSegs)))
	for _, s := range f.UsedSegs {
		sw.U32(uint32(s))
		sw.U32(uint32(f.dev.EraseCount(s)))
		sw.U32(uint32(f.dev.NextFreeInSegment(s)))
		sw.U64(f.SegLastSeq[s])
	}
	stream := ckpt.Encode(ckptID, ckptID, []ckpt.Section{
		{Kind: mapKind, Data: mw.B},
		{Kind: ckptSecSegTable, Data: sw.B},
	})
	datas, err := ckpt.Split(ckptID, stream, f.cfg.Nand.SectorSize)
	if err != nil {
		return 0, nil, fmt.Errorf("ftl: chunking checkpoint: %w", err)
	}
	chunks := make([]logcore.Chunk, len(datas))
	for i, d := range datas {
		chunks[i] = logcore.Chunk{Type: header.TypeCheckpoint, Data: d, Idx: i, Total: len(datas)}
	}
	return ckptID, chunks, nil
}

// decodeCheckpointSections parses a decoded stream's sections into the map
// state and the segment table. The map section comes in either layout: the
// full mapping list (tree / cache-unbounded checkpoints, ckptSecMap) or
// the global translation directory (bounded-paged checkpoints,
// ckptSecGTD); exactly one of entries / gtd is populated on success.
func decodeCheckpointSections(secs []ckpt.Section) (entries [][2]uint64, gtd []mapcache.GTDEnt, slotsPer int, table []ckptSegRecord, err error) {
	var sawMap, sawTable bool
	for _, s := range secs {
		switch s.Kind {
		case ckptSecMap:
			sawMap = true
			r := ckpt.Reader{B: s.Data}
			n := r.U64()
			for i := uint64(0); i < n; i++ {
				lba, addr := r.U64(), r.U64()
				entries = append(entries, [2]uint64{lba, addr})
			}
			if r.Err() != nil {
				return nil, nil, 0, nil, fmt.Errorf("ftl: checkpoint map section: %w", r.Err())
			}
		case ckptSecGTD:
			sawMap = true
			r := ckpt.Reader{B: s.Data}
			slotsPer = int(r.U32())
			n := r.U32()
			gtd = make([]mapcache.GTDEnt, 0, n)
			for i := uint32(0); i < n; i++ {
				gtd = append(gtd, mapcache.GTDEnt{Idx: r.U64(), Addr: r.U64(), Live: int(r.U32())})
			}
			if r.Err() != nil {
				return nil, nil, 0, nil, fmt.Errorf("ftl: checkpoint GTD section: %w", r.Err())
			}
		case ckptSecSegTable:
			sawTable = true
			r := ckpt.Reader{B: s.Data}
			n := r.U32()
			for i := uint32(0); i < n; i++ {
				rec := ckptSegRecord{
					seg:    int(r.U32()),
					erases: int(r.U32()),
					prog:   int(r.U32()),
					maxSeq: r.U64(),
				}
				table = append(table, rec)
			}
			if r.Err() != nil {
				return nil, nil, 0, nil, fmt.Errorf("ftl: checkpoint segment table: %w", r.Err())
			}
		}
	}
	if !sawMap || !sawTable {
		return nil, nil, 0, nil, fmt.Errorf("ftl: checkpoint missing required sections")
	}
	return entries, gtd, slotsPer, table, nil
}

// checkSegTable decides whether a checkpoint's segment table still
// describes the device. It returns the set of segments recovery may skip
// (recorded used, unchanged, nothing newer) — and ok=false when any
// recorded segment was erased, retired, or rewound since serialization,
// which means the cleaner moved pre-cut-off blocks and the checkpoint can
// no longer be trusted.
func checkSegTable(dev *nand.Device, table []ckptSegRecord) (recorded map[int]ckptSegRecord, ok bool) {
	recorded = make(map[int]ckptSegRecord, len(table))
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
