package ftl

import (
	"fmt"
	"sort"

	"iosnap/internal/ckpt"
	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// scanEntry is one data translation found during the log scan.
type scanEntry struct {
	lba  uint64
	addr nand.PageAddr
	seq  uint64
}

// ckptChunk locates one checkpoint chunk on the log.
type ckptChunk struct {
	idx   uint64
	total uint64
	seq   uint64
	addr  nand.PageAddr
}

// Recover reconstructs an FTL from an existing device. If the device
// anchor names a complete, still-trustworthy checkpoint, recovery is
// tail-bounded: the forward map is bulk-loaded from the checkpoint and
// only segments written since (per the checkpoint's segment table) have
// their headers scanned. Anything wrong with the checkpoint — torn,
// incomplete, or invalidated by cleaning since it was written — falls
// back to the full header scan of every segment, the paper's bottom-up
// reconstruction (§5.5.1).
func Recover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverFTL(cfg, dev, sched, now, false)
}

// RecoverFullScan reconstructs an FTL by the full header scan, ignoring
// the checkpoint anchor. It is the reference path: tests and benchmarks
// compare its result against tail-bounded recovery.
func RecoverFullScan(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	return recoverFTL(cfg, dev, sched, now, true)
}

func recoverFTL(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time, forceFull bool) (*FTL, sim.Time, error) {
	if err := cfg.Validate(); err != nil {
		return nil, now, err
	}
	if dev.Config() != cfg.Nand {
		return nil, now, fmt.Errorf("ftl: device geometry differs from config")
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

// scanSegment reads one segment's OOB headers into the recovery
// accumulators, counting torn pages instead of silently dropping them.
func (f *FTL) scanSegment(now sim.Time, seg int, entries *[]scanEntry, chunks *[]ckptChunk,
	segUsed []bool, segMaxSeq []uint64, maxSeq *uint64) (sim.Time, error) {
	oobs, done, err := f.DevScanSegmentOOB(now, seg)
	if err != nil {
		return now, fmt.Errorf("ftl: scanning segment %d: %w", seg, err)
	}
	f.stats.RecoverySegsScanned++
	f.stats.RecoveryHeaderPages += int64(f.cfg.Nand.PagesPerSegment)
	for idx, oob := range oobs {
		if oob == nil {
			continue
		}
		segUsed[seg] = true
		h, err := header.Unmarshal(oob)
		if err != nil {
			// Torn write at the crashed log tail: never acknowledged, so
			// skipping it loses nothing; the cleaner reclaims the page. It
			// is still evidence worth counting.
			f.stats.TornPagesSkipped++
			continue
		}
		if h.Seq > segMaxSeq[seg] {
			segMaxSeq[seg] = h.Seq
		}
		if h.Seq > *maxSeq {
			*maxSeq = h.Seq
		}
		addr := f.dev.Addr(seg, idx)
		switch h.Type {
		case header.TypeData:
			*entries = append(*entries, scanEntry{lba: h.LBA, addr: addr, seq: h.Seq})
		case header.TypeCheckpoint:
			if chunks != nil {
				*chunks = append(*chunks, ckptChunk{idx: h.LBA, total: h.Epoch, seq: h.Seq, addr: addr})
			}
		}
	}
	return done, nil
}

// fullScanRecover is the historical path: scan every live segment's
// headers, prefer the newest complete checkpoint found on the log, and
// replay translations on top.
func fullScanRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, error) {
	f := shell(cfg, dev, sched)

	var (
		entries   []scanEntry
		chunks    []ckptChunk
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
		var err error
		now, err = f.scanSegment(now, seg, &entries, &chunks, segUsed, segMaxSeq, &maxSeq)
		if err != nil {
			return nil, now, err
		}
	}
	if len(entries) == 0 && len(chunks) == 0 && maxSeq == 0 {
		// Fresh device: recovery degenerates to formatting.
		usedAny := false
		for _, u := range segUsed {
			usedAny = usedAny || u
		}
		if !usedAny {
			nf := shell(cfg, dev, sched)
			nf.Format()
			return nf, now, nil
		}
	}
	f.Seq = maxSeq

	// Prefer the newest complete checkpoint, then replay any data written
	// after it (the device may have been reopened and written post-close).
	loaded, ckptSeq, t, err := f.loadCheckpoint(now, chunks)
	if err != nil {
		return nil, now, err
	}
	now = t
	if loaded {
		newer := entries[:0]
		for _, e := range entries {
			if e.seq > ckptSeq {
				newer = append(newer, e)
			}
		}
		f.applyNewerEntries(newer)
	} else {
		// No usable checkpoint on the log: whatever the anchor pointed at
		// is gone or untrustworthy, so drop it.
		dev.SetAnchor(nil)
		f.replayEntries(entries)
	}

	now, err = f.rebuildGeometry(now, segUsed, segMaxSeq)
	if err != nil {
		return nil, now, err
	}
	return f, now, nil
}

// tryTailRecover attempts checkpoint-based recovery via the device anchor.
// It mutates only the candidate FTL, never the device, so a failure at any
// point simply discards the partial state and reports ok=false.
func tryTailRecover(cfg Config, dev *nand.Device, sched *sim.Scheduler, now sim.Time) (*FTL, sim.Time, bool) {
	anchor := dev.Anchor()
	f := shell(cfg, dev, sched)

	// Read and validate every chunk the anchor names.
	payloads := make([][]byte, 0, len(anchor.Addrs))
	if f.cfg.ReferenceDataPath {
		for _, addr := range anchor.Addrs {
			oob, err := dev.PageOOB(addr)
			if err != nil {
				return nil, now, false
			}
			h, err := header.Unmarshal(oob)
			if err != nil || h.Type != header.TypeCheckpoint {
				return nil, now, false
			}
			payload, _, done, err := f.DevReadPage(now, addr)
			if err != nil {
				return nil, now, false
			}
			now = done
			payloads = append(payloads, payload)
		}
	} else {
		// Batched anchor load: validate the chunk headers host-side, then
		// fetch every payload in one DevReadPages call (cell reads overlap
		// across channels instead of chaining).
		for _, addr := range anchor.Addrs {
			oob, err := dev.PageOOB(addr)
			if err != nil {
				return nil, now, false
			}
			h, err := header.Unmarshal(oob)
			if err != nil || h.Type != header.TypeCheckpoint {
				return nil, now, false
			}
		}
		ds, _, k, done, err := f.DevReadPages(now, anchor.Addrs)
		now = done
		if err != nil || k != len(anchor.Addrs) {
			return nil, now, false
		}
		payloads = append(payloads, ds...)
	}
	stream, err := ckpt.Join(anchor.ID, payloads)
	if err != nil {
		return nil, now, false
	}
	id, ckptSeq, secs, err := ckpt.Decode(stream)
	if err != nil || id != anchor.ID {
		return nil, now, false
	}
	mapEntries, gtdEnts, gtdSlots, table, err := decodeCheckpointSections(secs)
	if err != nil {
		return nil, now, false
	}
	if gtdEnts != nil && !f.gtdUsable(gtdSlots) {
		// A GTD checkpoint under a tree-mode config (or a foreign page
		// geometry) cannot be consumed lazily; the full scan rebuilds the
		// map from data headers instead.
		return nil, now, false
	}
	recorded, ok := checkSegTable(dev, table)
	if !ok {
		return nil, now, false
	}

	// Scan only segments that changed since the checkpoint; trust the
	// table for the rest.
	var (
		entries   []scanEntry
		segMaxSeq = make([]uint64, cfg.Nand.Segments)
		segUsed   = make([]bool, cfg.Nand.Segments)
		maxSeq    = ckptSeq
	)
	for seg := 0; seg < cfg.Nand.Segments; seg++ {
		if dev.SegmentHealth(seg) == nand.Retired {
			continue
		}
		rec, isRecorded := recorded[seg]
		if isRecorded && dev.NextFreeInSegment(seg) == rec.prog {
			// Unchanged since serialization: the table speaks for it.
			segUsed[seg] = rec.prog > 0
			segMaxSeq[seg] = rec.maxSeq
			if rec.maxSeq > maxSeq {
				maxSeq = rec.maxSeq
			}
			continue
		}
		if !isRecorded && dev.ProgrammedInSegment(seg) == 0 {
			continue // still free
		}
		var err error
		now, err = f.scanSegment(now, seg, &entries, nil, segUsed, segMaxSeq, &maxSeq)
		if err != nil {
			return nil, now, false
		}
		if isRecorded {
			segUsed[seg] = segUsed[seg] || rec.prog > 0
			if rec.maxSeq > segMaxSeq[seg] {
				segMaxSeq[seg] = rec.maxSeq
			}
		}
	}
	f.Seq = maxSeq

	f.loadMapEntries(mapEntries, gtdEnts)
	if now, err = f.markValidFromGTD(now, gtdEnts); err != nil {
		return nil, now, false
	}
	newer := entries[:0]
	for _, e := range entries {
		if e.seq > ckptSeq {
			newer = append(newer, e)
		}
	}
	f.applyNewerEntries(newer)

	// The anchor's chunks are live recovery state until superseded.
	f.AnchorID = anchor.ID
	f.AnchorAddrs = anchor.Addrs
	for _, a := range anchor.Addrs {
		f.CkptPins[a] = true
	}

	now, err = f.rebuildGeometry(now, segUsed, segMaxSeq)
	if err != nil {
		return nil, now, false
	}
	f.stats.RecoveryTailBounded = true
	return f, now, true
}

// rebuildGeometry reconstructs the segment pools and log head from the
// per-segment summaries either recovery path produced.
func (f *FTL) rebuildGeometry(now sim.Time, segUsed []bool, segMaxSeq []uint64) (sim.Time, error) {
	if err := f.RebuildGeometry(segUsed, segMaxSeq); err != nil {
		return now, err
	}
	// Track in UsedSegs order so insertion stamps reproduce the oldest-first
	// tie-break of a scan-based selection.
	for _, s := range f.UsedSegs {
		f.acct.track(s)
	}
	f.maybeScheduleGC(now)
	return now, nil
}

// loadMapEntries bulk-loads checkpointed translations and marks their
// backing pages valid. A bounded-paged checkpoint supplies a GTD instead
// of entries; its pages stay on flash (pinned via recoveredMap) and the
// caller marks their mappings valid via markValidFromGTD.
func (f *FTL) loadMapEntries(pairs [][2]uint64, gtd []mapcache.GTDEnt) {
	entries := make([]ftlmap.Entry, 0, len(pairs))
	for _, p := range pairs {
		entries = append(entries, ftlmap.Entry{Key: p[0], Val: p[1]})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
	f.fmap = f.RecoveredMap(entries, gtd)
	for _, e := range entries {
		f.markValid(int64(e.Val))
	}
}

// markValidFromGTD rebuilds the validity bits a GTD checkpoint implies.
// Unlike iosnap — whose checkpoints carry an explicit validity stream —
// the vanilla bitmap is derived from the forward map, so recovery must
// read every GTD-referenced translation page (a charged batch read) and
// mark each mapping it holds. The pages are decoded and discarded, not
// made resident: the cache stays empty and bounded.
func (f *FTL) markValidFromGTD(now sim.Time, gtd []mapcache.GTDEnt) (sim.Time, error) {
	if len(gtd) == 0 {
		return now, nil
	}
	addrs := make([]nand.PageAddr, len(gtd))
	for i, ent := range gtd {
		addrs[i] = nand.PageAddr(ent.Addr)
	}
	datas, _, k, done, err := f.DevReadPages(now, addrs)
	if err != nil {
		return done, fmt.Errorf("ftl: reading GTD translation page %d: %w", gtd[k].Idx, err)
	}
	for i := 0; i < k; i++ {
		gotIdx, slots, derr := mapcache.DecodePage(datas[i])
		if derr != nil {
			return done, fmt.Errorf("ftl: translation page %d at %d: %w", gtd[i].Idx, addrs[i], derr)
		}
		if gotIdx != gtd[i].Idx {
			return done, fmt.Errorf("ftl: translation page %d decoded as %d", gtd[i].Idx, gotIdx)
		}
		for _, v := range slots {
			if v != mapcache.Unmapped {
				f.markValid(int64(v))
			}
		}
	}
	return done, nil
}

// gtdUsable reports whether a GTD map section can serve this FTL's
// configuration: the map must be paged and the page geometry must match.
func (f *FTL) gtdUsable(slotsPer int) bool {
	return f.cfg.MapCachePages != 0 && slotsPer == mapcache.SlotsFor(f.cfg.Nand.SectorSize)
}

// loadCheckpoint tries to decode the newest complete checkpoint found by
// the full scan. Chunks are grouped by the generation tag each chunk
// carries — an index-set check alone would accept a "complete-looking"
// interleaving of two generations — and a group is used only if its index
// set covers {0..total-1}, its stream checksum verifies, and its segment
// table still describes the device. It returns loaded=false (and no
// error) when no group qualifies — including on devices that do not store
// payloads.
func (f *FTL) loadCheckpoint(now sim.Time, chunks []ckptChunk) (bool, uint64, sim.Time, error) {
	if len(chunks) == 0 || !f.cfg.Nand.StoreData {
		return false, 0, now, nil
	}
	// Group chunk payloads by generation tag.
	type chunkPage struct {
		ckptChunk
		payload []byte
	}
	groups := make(map[uint64][]chunkPage)
	payloads := make([][]byte, len(chunks))
	if f.cfg.ReferenceDataPath {
		for i, c := range chunks {
			payload, _, done, err := f.DevReadPage(now, c.addr)
			if err != nil {
				// A vanishing chunk disqualifies only its generation.
				continue
			}
			now = done
			payloads[i] = payload
		}
	} else {
		// Batched chunk load: each DevReadPages call reads as far as it can;
		// a permanently failing chunk is skipped (it disqualifies only its
		// generation) and the batch resumes just past it.
		addrs := make([]nand.PageAddr, len(chunks))
		for i, c := range chunks {
			addrs[i] = c.addr
		}
		base := 0
		for base < len(addrs) {
			ds, _, k, done, err := f.DevReadPages(now, addrs[base:])
			now = done
			copy(payloads[base:], ds[:k])
			base += k
			if err == nil {
				break
			}
			base++
		}
	}
	for i, c := range chunks {
		if payloads[i] == nil {
			continue
		}
		id, ok := ckpt.ChunkID(payloads[i])
		if !ok {
			continue
		}
		groups[id] = append(groups[id], chunkPage{c, payloads[i]})
	}
	// Try generations newest-first.
	ids := make([]uint64, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] })
	for _, id := range ids {
		group := groups[id]
		total := group[0].total
		if total == 0 || uint64(len(group)) < total {
			continue
		}
		byIdx := make(map[uint64]chunkPage, total)
		consistent := true
		for _, c := range group {
			if c.total != total || c.idx >= total {
				consistent = false
				break
			}
			byIdx[c.idx] = c
		}
		if !consistent || uint64(len(byIdx)) != total {
			continue // incomplete: some chunks were reclaimed or never written
		}
		ordered := make([][]byte, total)
		for i := uint64(0); i < total; i++ {
			ordered[i] = byIdx[i].payload
		}
		stream, err := ckpt.Join(id, ordered)
		if err != nil {
			continue
		}
		decID, ckptSeq, secs, err := ckpt.Decode(stream)
		if err != nil || decID != id {
			continue
		}
		mapEntries, gtdEnts, gtdSlots, table, err := decodeCheckpointSections(secs)
		if err != nil {
			continue
		}
		if gtdEnts != nil && !f.gtdUsable(gtdSlots) {
			continue // GTD layout this config cannot consume; scan replays instead
		}
		if _, ok := checkSegTable(f.dev, table); !ok {
			continue // the cleaner moved pre-cut-off blocks since; stale
		}
		f.loadMapEntries(mapEntries, gtdEnts)
		if now, err = f.markValidFromGTD(now, gtdEnts); err != nil {
			return false, 0, now, err
		}
		// Re-pin and re-anchor the winning generation so the cleaner keeps
		// honoring it after this reopen.
		f.AnchorID = id
		f.AnchorAddrs = nil
		for i := uint64(0); i < total; i++ {
			f.AnchorAddrs = append(f.AnchorAddrs, byIdx[i].addr)
		}
		for _, a := range f.AnchorAddrs {
			f.CkptPins[a] = true
		}
		f.dev.SetAnchor(&nand.Anchor{ID: id, Addrs: f.AnchorAddrs})
		return true, ckptSeq, now, nil
	}
	return false, 0, now, nil
}

// applyNewerEntries overlays post-checkpoint translations (last write wins)
// onto the checkpoint-loaded map.
func (f *FTL) applyNewerEntries(entries []scanEntry) {
	winners := make(map[uint64]scanEntry, len(entries))
	for _, e := range entries {
		if w, ok := winners[e.lba]; !ok || e.seq > w.seq {
			winners[e.lba] = e
		}
	}
	for lba, e := range winners {
		if prev, existed := f.fmap.Insert(lba, uint64(e.addr)); existed {
			f.markInvalid(int64(prev))
		}
		f.markValid(int64(e.addr))
	}
}

// replayEntries rebuilds the forward map from scanned data translations:
// last write (highest seq) wins per LBA, then the survivors are sorted by
// LBA and bulk-loaded bottom-up.
func (f *FTL) replayEntries(entries []scanEntry) {
	winners := make(map[uint64]scanEntry, len(entries))
	for _, e := range entries {
		if w, ok := winners[e.lba]; !ok || e.seq > w.seq {
			winners[e.lba] = e
		}
	}
	pairs := make([][2]uint64, 0, len(winners))
	for lba, e := range winners {
		pairs = append(pairs, [2]uint64{lba, uint64(e.addr)})
	}
	f.loadMapEntries(pairs, nil)
}
