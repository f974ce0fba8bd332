package iosnap

import (
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/ckpt"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Crash recovery (paper §5.5) runs in two passes over the log headers:
//
// Pass 1 identifies the snapshot operations (create/delete/activate/
// deactivate notes) and rebuilds the snapshot tree and the epoch
// inheritance graph by replaying them in sequence order.
//
// Pass 2 selects the data translations relevant to the *active* lineage,
// resolves last-write-wins, sorts by LBA, and bulk-loads the forward map
// bottom-up. Per-epoch validity maps are then reconstructed breadth-first
// down the epoch tree: each epoch's view is its parent's view overlaid
// with the epoch's own winning translations, materialized as CoW
// differences so sharing is preserved.
//
// With a committed checkpoint on the device (checkpoint.go) recovery is
// tail-bounded instead: the active map, the snapshot tree, and every
// epoch's validity delta are bulk-loaded from the checkpoint's three chunk
// streams, and only headers written after the cut-off — in segments the
// checkpoint's table proves changed — are scanned and replayed on top.
// Anything that cannot be proven intact (a torn or incomplete generation,
// a reclaimed chunk, a cleaner that moved pre-cut-off blocks, a tail event
// the loaded image cannot express) falls back to the full scan; the log
// itself remains the source of truth.
//
// Only the active tree's forward map is built (the paper's explicit design
// choice); snapshots must be re-activated to be read. Writable views that
// were live at crash time are not reconstructed: their never-snapshotted
// epochs are marked deleted and the cleaner reclaims their blocks.

type recNote struct {
	typ   header.Type
	id    SnapshotID
	epoch bitmap.Epoch
	seq   uint64
	addr  nand.PageAddr
}

type recData struct {
	lba   uint64
	epoch bitmap.Epoch
	seq   uint64
	addr  nand.PageAddr
}

// Recover reconstructs an ioSnap FTL from an existing device, tail-bounded
// when the device anchor names a trustworthy checkpoint.
func Recover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverIoSnap(cfg, dev, sched, now, false)
}

// RecoverFullScan reconstructs an ioSnap FTL by the full header scan,
// ignoring the checkpoint anchor. It is the reference path: tests and
// benchmarks compare its result against tail-bounded recovery.
func RecoverFullScan(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverIoSnap(cfg, dev, sched, now, true)
}

func recoverIoSnap(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time, forceFull bool) (*FTL, sim.Time, error) {
	if err := cfg.Validate(); err != nil {
		return nil, now, err
	}
	if dev.Config() != cfg.Nand {
		return nil, now, fmt.Errorf("iosnap: device geometry differs from config")
	}
	if sched == nil {
		sched = sim.NewScheduler()
	}
	tailAttempted := false
	if !forceFull && dev.Anchor() != nil && cfg.Nand.StoreData {
		tailAttempted = true
		f, t, ok := tryTailRecover(cfg, dev, sched, now)
		if ok {
			return f, t, nil
		}
		now = t // virtual time spent probing the checkpoint is real
	}
	f, now, err := fullScanRecover(cfg, dev, sched, now)
	if err != nil {
		return nil, now, err
	}
	if tailAttempted {
		f.stats.RecoveryFallbacks++
	}
	return f, now, nil
}

// fullScanRecover is the historical path: scan every live segment's
// headers and rebuild everything bottom-up.
func fullScanRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	f := shell(cfg, dev, sched)

	// ---- Scan: one pass over all OOB headers. ----
	var (
		notes     []recNote
		data      []recData
		segMaxSeq = make([]uint64, cfg.Nand.Segments)
		segUsed   = make([]bool, cfg.Nand.Segments)
		maxSeq    uint64
	)
	for seg := 0; seg < cfg.Nand.Segments; seg++ {
		if dev.SegmentHealth(seg) == nand.Retired {
			// A retired segment was fully rescued before retirement; any
			// headers it still holds are stale copies that must not win
			// last-write-wins replay over the rescued ones.
			continue
		}
		oobs, done, err := f.DevScanSegmentOOB(now, seg)
		if err != nil {
			return nil, now, fmt.Errorf("iosnap: scanning segment %d: %w", seg, err)
		}
		now = done
		f.stats.RecoverySegsScanned++
		f.stats.RecoveryHeaderPages += int64(cfg.Nand.PagesPerSegment)
		for idx, oob := range oobs {
			if oob == nil {
				continue
			}
			segUsed[seg] = true
			h, err := header.Unmarshal(oob)
			if err != nil {
				// A torn write: power failed while this header was being
				// programmed, so its contents were never acknowledged. Skip
				// it — the page stays invalid in every epoch and the cleaner
				// reclaims it — but keep count so operators can see it.
				f.stats.TornPagesSkipped++
				continue
			}
			if h.Seq > segMaxSeq[seg] {
				segMaxSeq[seg] = h.Seq
			}
			if h.Seq > maxSeq {
				maxSeq = h.Seq
			}
			addr := dev.Addr(seg, idx)
			switch h.Type {
			case header.TypeData:
				data = append(data, recData{lba: h.LBA, epoch: bitmap.Epoch(h.Epoch), seq: h.Seq, addr: addr})
			case header.TypeSnapCreate, header.TypeSnapDelete, header.TypeSnapActivate, header.TypeSnapDeactivate:
				notes = append(notes, recNote{typ: h.Type, id: SnapshotID(h.LBA), epoch: bitmap.Epoch(h.Epoch), seq: h.Seq, addr: addr})
			}
			// Checkpoint chunks are deliberately ignored: the full scan is
			// the reference reconstruction and trusts only the raw log.
		}
	}
	f.Seq = maxSeq
	for _, d := range data {
		f.presence.add(f.dev.SegmentOf(d.addr), d.epoch)
	}
	for _, n := range notes {
		f.presence.add(f.dev.SegmentOf(n.addr), n.epoch)
	}
	// The full scan rebuilds without the checkpoint and pins nothing, so a
	// stale anchor must not survive into the next reopen: its chunks are
	// garbage now and the cleaner may reclaim them at any time.
	dev.SetAnchor(nil)

	// ---- Pass 1: replay notes in seq order; rebuild tree + epoch graph. ----
	// The cleaner can duplicate a note (copy-forwarded, crash before the
	// source segment's erase); collapse equal-seq duplicates first, keeping
	// the higher address to match the data-entry tie-break.
	sort.Slice(notes, func(i, j int) bool {
		if notes[i].seq != notes[j].seq {
			return notes[i].seq < notes[j].seq
		}
		return notes[i].addr < notes[j].addr
	})
	dedup := notes[:0]
	for _, n := range notes {
		if len(dedup) > 0 && dedup[len(dedup)-1].seq == n.seq {
			dedup[len(dedup)-1] = n
			continue
		}
		dedup = append(dedup, n)
	}
	notes = dedup
	counter := bitmap.Epoch(1)
	activeEpoch := bitmap.Epoch(1)
	deadEpochs := make(map[bitmap.Epoch]bool)
	type liveNote struct {
		addr nand.PageAddr
		live bool
	}
	noteState := make(map[nand.PageAddr]*liveNote)
	createNoteOf := make(map[SnapshotID]nand.PageAddr)

	for _, n := range notes {
		switch n.typ {
		case header.TypeSnapCreate:
			frozen := n.epoch
			counter++
			newEpoch := counter
			f.epochParent[newEpoch] = frozen
			parent := f.nearestSnapshotAncestor(frozen)
			snap := &Snapshot{ID: n.id, Epoch: frozen, Parent: parent, noteAddr: n.addr}
			f.tree.add(snap)
			if frozen == activeEpoch {
				activeEpoch = newEpoch
			}
			createNoteOf[n.id] = n.addr
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		case header.TypeSnapDelete:
			if s, ok := f.tree.Lookup(n.id); ok {
				s.Deleted = true
			}
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		case header.TypeSnapActivate:
			newEpoch := n.epoch
			if newEpoch > counter {
				counter = newEpoch
			}
			if s, ok := f.tree.Lookup(n.id); ok {
				f.epochParent[newEpoch] = s.Epoch
			}
			// The activation's epoch dies with the crash unless a snapshot
			// was later created from it (a create note with frozen=newEpoch
			// resurrects the lineage); assume dead, resurrect below.
			deadEpochs[newEpoch] = true
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		case header.TypeSnapDeactivate:
			deadEpochs[n.epoch] = true
			noteState[n.addr] = &liveNote{addr: n.addr, live: true}
		}
	}
	// Epochs frozen into snapshots are never dead-by-abandonment, and the
	// continuation epoch allocated at create time keeps its branch alive if
	// it is the active epoch.
	for e := range f.tree.byEpoch {
		delete(deadEpochs, e)
	}
	delete(deadEpochs, activeEpoch)

	f.epochCounter = counter

	// ---- Pass 2: active-lineage forward map. ----
	lineage := map[bitmap.Epoch]bool{activeEpoch: true}
	for e := activeEpoch; ; {
		p, ok := f.epochParent[e]
		if !ok {
			break
		}
		lineage[p] = true
		e = p
	}
	type winner struct {
		addr nand.PageAddr
		seq  uint64
	}
	winners := make(map[uint64]winner)
	for _, d := range data {
		if !lineage[d.epoch] {
			continue
		}
		w, ok := winners[d.lba]
		// Equal seq means the cleaner duplicated the block and crashed
		// before erasing the source; the copies are identical, pick the
		// higher address deterministically.
		if !ok || d.seq > w.seq || (d.seq == w.seq && d.addr > w.addr) {
			winners[d.lba] = winner{addr: d.addr, seq: d.seq}
		}
	}
	entries := make([]ftlmap.Entry, 0, len(winners))
	for lba, w := range winners {
		entries = append(entries, ftlmap.Entry{Key: lba, Val: uint64(w.addr)})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	f.active = &view{fmap: f.RecoveredMap(entries, nil), epoch: activeEpoch, writable: true}
	if s := f.nearestSnapshotAncestorInclusive(activeEpoch); s != nil {
		f.active.parent = s
	}
	f.views = []*view{f.active}

	// ---- Validity reconstruction, breadth-first down the epoch tree. ----
	if err := f.rebuildValidity(data); err != nil {
		return nil, now, err
	}
	for e := range deadEpochs {
		if f.vstore.Exists(e) {
			if err := f.vstore.DeleteEpoch(e); err != nil {
				return nil, now, err
			}
		}
	}
	for _, s := range f.tree.byID {
		if s.Deleted && f.vstore.Exists(s.Epoch) {
			if err := f.vstore.DeleteEpoch(s.Epoch); err != nil {
				return nil, now, err
			}
		}
	}
	// Preserve snapshot notes that recovery still depends on: set their
	// bits in the active epoch so the cleaner carries them forward.
	for _, st := range noteState {
		if st.live {
			f.vstore.Set(activeEpoch, int64(st.addr))
		}
	}
	f.vstore.ResetCoWCounter()

	return finishRecovery(f, now, segUsed, segMaxSeq, len(data))
}

// tryTailRecover attempts checkpoint-based recovery via the device anchor.
// It mutates only the candidate FTL, never the device, so a failure at any
// point simply discards the partial state and reports ok=false.
func tryTailRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, bool) {
	anchor := dev.Anchor()
	f := shell(cfg, dev, sched)

	// ---- Read the anchor's chunks and bucket them by stream type. ----
	type chunkPage struct {
		idx, total uint64
		payload    []byte
	}
	streams := make(map[header.Type][]chunkPage)
	if f.cfg.ReferenceDataPath {
		for _, addr := range anchor.Addrs {
			oob, err := dev.PageOOB(addr)
			if err != nil {
				return nil, now, false
			}
			h, err := header.Unmarshal(oob)
			if err != nil || !h.Type.IsCheckpoint() {
				return nil, now, false
			}
			payload, _, done, err := f.DevReadPage(now, addr)
			if err != nil {
				return nil, now, false
			}
			now = done
			streams[h.Type] = append(streams[h.Type], chunkPage{idx: h.LBA, total: h.Epoch, payload: payload})
		}
	} else {
		// Batched anchor load: validate the chunk headers host-side, then
		// fetch every chunk payload in one DevReadPages call (cell reads
		// overlap across channels instead of chaining).
		hs := make([]header.Header, 0, len(anchor.Addrs))
		for _, addr := range anchor.Addrs {
			oob, err := dev.PageOOB(addr)
			if err != nil {
				return nil, now, false
			}
			h, err := header.Unmarshal(oob)
			if err != nil || !h.Type.IsCheckpoint() {
				return nil, now, false
			}
			hs = append(hs, h)
		}
		payloads, _, k, done, err := f.DevReadPages(now, anchor.Addrs)
		now = done
		if err != nil || k != len(anchor.Addrs) {
			return nil, now, false
		}
		for i, h := range hs {
			streams[h.Type] = append(streams[h.Type], chunkPage{idx: h.LBA, total: h.Epoch, payload: payloads[i]})
		}
	}
	// Each of the three streams must be complete ({0..total-1}, one copy
	// each) and decode against the anchor's generation and one shared
	// cut-off; anything less means a torn or partially-reclaimed checkpoint.
	decoded := make(map[header.Type][]ckpt.Section, 3)
	var (
		ckptSeq uint64
		haveSeq bool
	)
	for _, typ := range []header.Type{header.TypeCkptMap, header.TypeCkptTree, header.TypeCkptValid} {
		group := streams[typ]
		if len(group) == 0 {
			return nil, now, false
		}
		total := group[0].total
		if total == 0 || uint64(len(group)) != total {
			return nil, now, false
		}
		ordered := make([][]byte, total)
		for _, c := range group {
			if c.total != total || c.idx >= total || ordered[c.idx] != nil {
				return nil, now, false
			}
			ordered[c.idx] = c.payload
		}
		stream, err := ckpt.Join(anchor.ID, ordered)
		if err != nil {
			return nil, now, false
		}
		id, seq, secs, err := ckpt.Decode(stream)
		if err != nil || id != anchor.ID {
			return nil, now, false
		}
		if !haveSeq {
			ckptSeq, haveSeq = seq, true
		} else if seq != ckptSeq {
			return nil, now, false
		}
		decoded[typ] = secs
	}
	mapEntries, gtdEnts, gtdSlots, err := decodeCkptMapStream(decoded[header.TypeCkptMap])
	if err != nil {
		return nil, now, false
	}
	if gtdEnts != nil {
		// A GTD checkpoint is only loadable into a paged map with the same
		// translation-page geometry; any other configuration falls back to
		// the full scan, which handles every mode.
		if f.cfg.MapCachePages == 0 || gtdSlots != mapcache.SlotsFor(cfg.Nand.SectorSize) {
			return nil, now, false
		}
	}
	treeState, err := decodeCkptTree(decoded[header.TypeCkptTree])
	if err != nil {
		return nil, now, false
	}
	epochs, err := decodeCkptValid(decoded[header.TypeCkptValid], f.vstore.BitsPerPage())
	if err != nil {
		return nil, now, false
	}
	recorded, ok := checkSegTable(dev, treeState.table)
	if !ok {
		return nil, now, false
	}

	// ---- Bulk-load the checkpoint image. ----
	// Epoch records are ascending and an epoch's parent is always numerically
	// smaller, so one pass creates the whole inheritance graph; tombstones
	// apply after every creation so parents stay addressable.
	for _, er := range epochs {
		if err := f.vstore.CreateEpoch(er.epoch, er.parent); err != nil {
			return nil, now, false
		}
		if er.parent != bitmap.NoParent {
			f.epochParent[er.epoch] = er.parent
		}
		for _, pg := range er.pages {
			if err := f.vstore.ImportPage(er.epoch, pg.PageIdx, pg.Words); err != nil {
				return nil, now, false
			}
		}
	}
	for _, er := range epochs {
		if er.deleted {
			if err := f.vstore.DeleteEpoch(er.epoch); err != nil {
				return nil, now, false
			}
		}
	}
	f.epochCounter = treeState.counter
	// Snapshot records are sorted by ID and a parent's ID is always smaller
	// than its children's, so one pass relinks the tree.
	for _, sr := range treeState.snaps {
		var parent *Snapshot
		if sr.parentID != 0 {
			p, ok := f.tree.Lookup(sr.parentID)
			if !ok {
				return nil, now, false
			}
			parent = p
		}
		f.tree.add(&Snapshot{ID: sr.id, Epoch: sr.epoch, Parent: parent, Deleted: sr.deleted, noteAddr: sr.noteAddr})
	}
	// Presence summaries for every recorded segment; scanned tail records
	// layer on top below.
	for _, rec := range treeState.table {
		for _, e := range rec.presence {
			f.presence.add(rec.seg, e)
		}
	}

	// ---- Tail scan: only segments the table proves changed. ----
	var (
		notes     []recNote
		data      []recData
		segMaxSeq = make([]uint64, cfg.Nand.Segments)
		segUsed   = make([]bool, cfg.Nand.Segments)
		maxSeq    = ckptSeq
	)
	for _, rec := range treeState.table {
		segUsed[rec.seg] = rec.prog > 0
		segMaxSeq[rec.seg] = rec.maxSeq
		if rec.maxSeq > maxSeq {
			maxSeq = rec.maxSeq
		}
	}
	for seg := 0; seg < cfg.Nand.Segments; seg++ {
		if dev.SegmentHealth(seg) == nand.Retired {
			continue
		}
		rec, isRecorded := recorded[seg]
		if isRecorded && dev.NextFreeInSegment(seg) == rec.prog {
			continue // unchanged since serialization: the table speaks for it
		}
		if !isRecorded && dev.ProgrammedInSegment(seg) == 0 {
			continue // still free
		}
		from := 0
		if isRecorded {
			from = rec.prog // pages below prog are checkpoint-covered state
		}
		oobs, done, err := f.DevScanSegmentOOB(now, seg)
		if err != nil {
			return nil, now, false
		}
		now = done
		f.stats.RecoverySegsScanned++
		f.stats.RecoveryHeaderPages += int64(cfg.Nand.PagesPerSegment)
		for idx := from; idx < len(oobs); idx++ {
			oob := oobs[idx]
			if oob == nil {
				continue
			}
			segUsed[seg] = true
			h, err := header.Unmarshal(oob)
			if err != nil {
				f.stats.TornPagesSkipped++
				continue
			}
			if h.Seq <= ckptSeq {
				// A parseable pre-cut-off header in the post-checkpoint
				// region is a cleaner copy of checkpointed state (copied
				// after serialization, crash before the victim's erase).
				// Replaying it would double-apply history the checkpoint
				// already contains — and the full scan resolves such
				// duplicates differently — so the generation is stale.
				return nil, now, false
			}
			if h.Seq > segMaxSeq[seg] {
				segMaxSeq[seg] = h.Seq
			}
			if h.Seq > maxSeq {
				maxSeq = h.Seq
			}
			if h.Type.IsCheckpoint() {
				continue // this (or an aborted) generation's chunks
			}
			addr := dev.Addr(seg, idx)
			switch h.Type {
			case header.TypeData:
				data = append(data, recData{lba: h.LBA, epoch: bitmap.Epoch(h.Epoch), seq: h.Seq, addr: addr})
				f.presence.add(seg, bitmap.Epoch(h.Epoch))
			case header.TypeSnapCreate, header.TypeSnapDelete, header.TypeSnapActivate, header.TypeSnapDeactivate:
				notes = append(notes, recNote{typ: h.Type, id: SnapshotID(h.LBA), epoch: bitmap.Epoch(h.Epoch), seq: h.Seq, addr: addr})
				f.presence.add(seg, bitmap.Epoch(h.Epoch))
			}
		}
	}
	f.Seq = maxSeq

	// ---- Replay the tail on top of the loaded image. ----
	entries := make([]ftlmap.Entry, 0, len(mapEntries))
	for _, p := range mapEntries {
		entries = append(entries, ftlmap.Entry{Key: p[0], Val: p[1]})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	f.active = &view{fmap: f.RecoveredMap(entries, gtdEnts), epoch: treeState.active, writable: true}
	f.views = []*view{f.active}

	if !f.replayTail(notes, data) {
		return nil, now, false
	}
	if s := f.nearestSnapshotAncestorInclusive(f.active.epoch); s != nil {
		f.active.parent = s
	}
	f.vstore.ResetCoWCounter()

	// The anchor's chunks are live recovery state until superseded.
	f.AnchorID = anchor.ID
	f.AnchorAddrs = append([]nand.PageAddr(nil), anchor.Addrs...)
	for _, a := range f.AnchorAddrs {
		f.CkptPins[a] = true
	}

	out, done, err := finishRecovery(f, now, segUsed, segMaxSeq, len(mapEntries)+len(gtdEnts)+len(notes)+len(data))
	if err != nil {
		return nil, done, false
	}
	out.stats.RecoveryTailBounded = true
	return out, done, true
}

// replayTail applies post-cut-off notes and data, in one global sequence
// order, onto a checkpoint-loaded FTL. It reports false when the tail
// contains an event the loaded image cannot express — a snapshot created
// from an epoch the checkpoint normalized dead, or writes into a live
// non-active epoch (a writable view whose private map was never
// checkpointed) — in which case the caller falls back to the full scan.
func (f *FTL) replayTail(notes []recNote, data []recData) bool {
	type tailRec struct {
		note *recNote
		data *recData
		seq  uint64
		addr nand.PageAddr
	}
	recs := make([]tailRec, 0, len(notes)+len(data))
	for i := range notes {
		recs = append(recs, tailRec{note: &notes[i], seq: notes[i].seq, addr: notes[i].addr})
	}
	for i := range data {
		recs = append(recs, tailRec{data: &data[i], seq: data[i].seq, addr: data[i].addr})
	}
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].seq != recs[j].seq {
			return recs[i].seq < recs[j].seq
		}
		return recs[i].addr < recs[j].addr
	})
	// Equal-seq pairs are cleaner duplicates (copy-forwarded, crash before
	// the source erase); keep the higher address, the full scan's tie-break.
	dedup := recs[:0]
	for _, r := range recs {
		if len(dedup) > 0 && dedup[len(dedup)-1].seq == r.seq {
			dedup[len(dedup)-1] = r
			continue
		}
		dedup = append(dedup, r)
	}
	recs = dedup

	deadEpochs := make(map[bitmap.Epoch]bool)
	for _, r := range recs {
		if r.note != nil {
			n := r.note
			// The note block is valid in the epoch absorbing primary writes
			// when it was appended (the live writeNote rule).
			f.vstore.Set(f.active.epoch, int64(n.addr))
			switch n.typ {
			case header.TypeSnapCreate:
				frozen := n.epoch
				if deadEpochs[frozen] || (f.vstore.Exists(frozen) && f.vstore.Deleted(frozen)) {
					// The snapshot freezes an epoch the checkpoint serialized
					// as dying at recovery (an activation view's), or one whose
					// tail writes were already dropped; neither can be
					// resurrected from the loaded image.
					return false
				}
				f.epochCounter++
				newEpoch := f.epochCounter
				if err := f.vstore.CreateEpoch(newEpoch, frozen); err != nil {
					return false
				}
				f.epochParent[newEpoch] = frozen
				snap := &Snapshot{ID: n.id, Epoch: frozen, Parent: f.nearestSnapshotAncestor(frozen), noteAddr: n.addr}
				f.tree.add(snap)
				if frozen == f.active.epoch {
					f.active.epoch = newEpoch
					f.active.parent = snap
				}
			case header.TypeSnapDelete:
				if s, ok := f.tree.Lookup(n.id); ok {
					s.Deleted = true
					if f.vstore.Exists(s.Epoch) && !f.vstore.Deleted(s.Epoch) {
						if err := f.vstore.DeleteEpoch(s.Epoch); err != nil {
							return false
						}
					}
				}
			case header.TypeSnapActivate:
				newEpoch := n.epoch
				if newEpoch > f.epochCounter {
					f.epochCounter = newEpoch
				}
				if s, ok := f.tree.Lookup(n.id); ok {
					f.epochParent[newEpoch] = s.Epoch
					if !f.vstore.Exists(newEpoch) {
						if err := f.vstore.CreateEpoch(newEpoch, s.Epoch); err != nil {
							return false
						}
					}
				}
				// Dies with the crash unless a later create resurrects it —
				// and resurrection bails above, so dead is final here.
				deadEpochs[newEpoch] = true
			case header.TypeSnapDeactivate:
				deadEpochs[n.epoch] = true
			}
			continue
		}
		d := r.data
		switch {
		case d.epoch == f.active.epoch:
			if prev, existed := f.active.fmap.Insert(d.lba, uint64(d.addr)); existed {
				f.vstore.Clear(d.epoch, int64(prev))
			}
			f.vstore.Set(d.epoch, int64(d.addr))
		case deadEpochs[d.epoch],
			f.vstore.Exists(d.epoch) && f.vstore.Deleted(d.epoch):
			// A write into an epoch that dies at recovery (an activation
			// view's): the full scan discards these too, just later.
		default:
			// A live non-active epoch — a writable view whose forward map
			// was never checkpointed, so the overwrite chain cannot be
			// replayed. Rare; the full scan handles it.
			return false
		}
	}
	for e := range deadEpochs {
		if f.vstore.Exists(e) && !f.vstore.Deleted(e) {
			if err := f.vstore.DeleteEpoch(e); err != nil {
				return false
			}
		}
	}
	return true
}

// finishRecovery rebuilds the log geometry — segment pools, head, cleaner
// accounting — shared by both recovery paths, and charges the modeled
// reconstruction CPU for the processed records.
func finishRecovery(f *FTL, now sim.Time, segUsed []bool, segMaxSeq []uint64, records int) (*FTL, sim.Time, error) {
	if err := f.RebuildGeometry(segUsed, segMaxSeq); err != nil {
		return nil, now, err
	}
	// Accounting entries start stale (their caches were never built), in
	// final UsedSegs order so victim tie-breaks match a linear scan; the
	// first selection decision rebuilds them against the recovered epochs.
	for _, s := range f.UsedSegs {
		f.acct.track(s, false)
	}
	// Reconstruction CPU cost: proportional to processed translations.
	now = now.Add(sim.Duration(records) * f.cfg.ReconstructCPUPerEntry)
	f.maybeScheduleGC(now)
	return f, now, nil
}

// nearestSnapshotAncestor walks the epoch graph upward from e's parent and
// returns the first epoch frozen into a snapshot.
func (f *FTL) nearestSnapshotAncestor(e bitmap.Epoch) *Snapshot {
	p, ok := f.epochParent[e]
	for ok {
		if s, isSnap := f.tree.ByEpoch(p); isSnap {
			return s
		}
		p, ok = f.epochParent[p]
	}
	return nil
}

// nearestSnapshotAncestorInclusive also considers e itself.
func (f *FTL) nearestSnapshotAncestorInclusive(e bitmap.Epoch) *Snapshot {
	if s, ok := f.tree.ByEpoch(e); ok {
		return s
	}
	return f.nearestSnapshotAncestor(e)
}

// rebuildValidity reconstructs every epoch's validity map breadth-first:
// an epoch's view is its parent's view overlaid with its own last-write-
// wins translations, applied to the CoW store as differences.
func (f *FTL) rebuildValidity(data []recData) error {
	// Group data by epoch, resolving within-epoch overwrites.
	type winner struct {
		addr nand.PageAddr
		seq  uint64
	}
	perEpoch := make(map[bitmap.Epoch]map[uint64]winner)
	for _, d := range data {
		m := perEpoch[d.epoch]
		if m == nil {
			m = make(map[uint64]winner)
			perEpoch[d.epoch] = m
		}
		w, ok := m[d.lba]
		if !ok || d.seq > w.seq || (d.seq == w.seq && d.addr > w.addr) {
			m[d.lba] = winner{addr: d.addr, seq: d.seq}
		}
	}

	// children lists for BFS.
	children := make(map[bitmap.Epoch][]bitmap.Epoch)
	for e, p := range f.epochParent {
		children[p] = append(children[p], e)
	}
	for _, c := range children {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}

	// BFS from the root epoch 1.
	type qent struct {
		epoch  bitmap.Epoch
		parent bitmap.Epoch
		view   map[uint64]winner // lba -> live block as of this epoch
	}
	if err := f.vstore.CreateEpoch(1, bitmap.NoParent); err != nil {
		return err
	}
	rootView := make(map[uint64]winner)
	queue := []qent{{epoch: 1, parent: bitmap.NoParent, view: rootView}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]

		// Overlay this epoch's own winners onto the inherited view,
		// mirroring the inherit-then-diverge behaviour of the live system.
		own := perEpoch[cur.epoch]
		// Deterministic order for reproducibility.
		lbas := make([]uint64, 0, len(own))
		for lba := range own {
			lbas = append(lbas, lba)
		}
		sort.Slice(lbas, func(i, j int) bool { return lbas[i] < lbas[j] })
		for _, lba := range lbas {
			w := own[lba]
			if old, ok := cur.view[lba]; ok {
				f.vstore.Clear(cur.epoch, int64(old.addr))
			}
			f.vstore.Set(cur.epoch, int64(w.addr))
			cur.view[lba] = w
		}

		kids := children[cur.epoch]
		for i, k := range kids {
			if err := f.vstore.CreateEpoch(k, cur.epoch); err != nil {
				return err
			}
			kv := cur.view
			if i < len(kids)-1 {
				// Siblings diverge: all but the last need their own copy.
				kv = make(map[uint64]winner, len(cur.view))
				for lba, w := range cur.view {
					kv[lba] = w
				}
			}
			queue = append(queue, qent{epoch: k, parent: cur.epoch, view: kv})
		}
	}
	return nil
}
