package iosnap

import (
	"errors"
	"fmt"
	"sort"

	"iosnap/internal/bitmap"
	"iosnap/internal/blockdev"
	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
	"iosnap/internal/xport"
)

// Snapshot replication (ROADMAP item 3, the paper's §7 destaging future
// work): ship a snapshot — or the delta between two snapshots — to another
// block device through the content-addressed transport in internal/xport.
//
// The sender side needs no activation. A snapshot's frozen epoch map IS its
// image (the same oracle activation uses: a page belongs to the snapshot
// iff its bit is set in the frozen epoch), so the delta between two
// snapshots is the pure bitmap comparison of their two epochs:
//
//	changed  = valid(target) AND NOT valid(base)   → ship these pages
//	obsolete = valid(base)  AND NOT valid(target)  → their LBAs, minus the
//	           changed set's LBAs, were trimmed — the delta's Deletes
//
// Comparing full epoch maps (each inherits its ancestors' CoW pages) means
// the base may be ANY live snapshot, not just an ancestor, and snapshots
// deleted between base and target cost nothing: their pages stay testable
// through inheritance.
//
// Export runs as an incremental job while foreground I/O continues — the
// only global stall is the freeze that created the snapshot. Each step
// claims the device for one segment header scan or one batched chunk read
// ("gated per segment", the ubiblk stall-and-unlock idiom), and between
// steps the cleaner is free to move blocks: exports register on f.exports
// and gcFixup re-points their collected entries exactly as it re-points
// in-flight activations.

// exportChunk is the export read queue depth: how many block reads one
// export step posts to the device as a batch.
const exportChunk = 256

// ErrBadExport reports an export the device cannot produce, such as one
// from a fingerprint-mode device that retains no payloads.
var ErrBadExport = errors.New("iosnap: malformed export stream")

// ErrExportAborted is the terminal error of a cancelled or invalidated
// export (e.g. its snapshot was deleted mid-export).
var ErrExportAborted = errors.New("iosnap: export aborted")

// ErrReceiveAborted simulates the receiving host dying mid-apply (the
// ReceiveOpts.AbortAfter test hook). The journal persisted so far is the
// crash artifact a resumed receive recovers from.
var ErrReceiveAborted = errors.New("iosnap: receive aborted (simulated crash)")

// ErrReplicaMismatch reports a destination device whose geometry cannot
// hold the manifest's image.
var ErrReplicaMismatch = errors.New("iosnap: replica device mismatch")

// ExportOpts parameterizes BeginExport.
type ExportOpts struct {
	// Snapshot is the target snapshot to export.
	Snapshot SnapshotID
	// Base, when non-zero, selects incremental export: only the pages that
	// changed between Base's image and Snapshot's image are shipped, plus
	// the trimmed LBAs. Base must be a live (undeleted) snapshot — the
	// cleaner only maintains validity bits of live epochs.
	Base SnapshotID
	// BaseManifestID is stamped into the delta manifest as the generation
	// the receiver must currently hold (xport.Manifest.BaseID). Zero with a
	// non-zero Base produces a delta no receiver will accept; the
	// Replicator wires this automatically.
	BaseManifestID uint64
	// Have, when non-nil, is the receiver's dedup oracle: it reports
	// whether the receiver can already materialize (lba, hash) locally.
	// Chunks it claims are listed in the manifest but not shipped.
	Have func(lba, hash uint64) bool
	// Limit rate-limits the export's scan and read steps (zero =
	// unthrottled), like activation's rate limit.
	Limit ratelimit.WorkSleep
}

// expEntry is one page of the export's ship set.
type expEntry struct {
	addr nand.PageAddr
	seq  uint64
}

// Export is an in-progress (or finished) snapshot export. It implements
// sim.Task, so it can run on the scheduler while foreground I/O continues,
// or be pumped synchronously via ExportSync.
type Export struct {
	f      *FTL
	snap   *Snapshot
	base   *Snapshot // nil = full image
	opt    ExportOpts
	budget *ratelimit.Budget

	scanList  []int
	scanPos   map[int]int
	segCursor int
	writes    map[uint64]expEntry // lba -> page valid in target, not in base
	baseOnly  map[uint64]struct{} // lbas of pages valid in base, not in target

	sortedLBAs []uint64 // read-phase order (built once after the scan)
	sorted     bool
	readIdx    int
	entries    []xport.Entry     // manifest writes, ascending lba
	chunks     map[uint64][]byte // shipped payload copies
	deduped    int64

	done        bool
	err         error
	completedAt sim.Time
	manifest    *xport.Manifest
	stream      []byte
}

// Name implements sim.Task.
func (x *Export) Name() string { return fmt.Sprintf("export(snap %d)", x.snap.ID) }

// Done reports whether the export finished (successfully or not).
func (x *Export) Done() bool { return x.done }

// Err returns the terminal error, if any.
func (x *Export) Err() error { return x.err }

// CompletedAt returns the virtual time the export finished.
func (x *Export) CompletedAt() sim.Time { return x.completedAt }

// Result returns the manifest and assembled transfer stream once Done.
func (x *Export) Result() (*xport.Manifest, []byte, error) {
	if !x.done {
		return nil, nil, ErrNotReady
	}
	if x.err != nil {
		return nil, nil, x.err
	}
	return x.manifest, x.stream, nil
}

// BeginExport starts exporting a snapshot. The diff itself is a host-side
// bitmap comparison (no device time); the device work — header scans to
// resolve LBAs, batched reads to hash and ship payloads — happens in Run
// steps that interleave with foreground I/O.
func (f *FTL) BeginExport(now sim.Time, opt ExportOpts) (*Export, sim.Time, error) {
	if f.Closed {
		return nil, now, ErrClosed
	}
	if !f.cfg.Nand.StoreData {
		return nil, now, fmt.Errorf("%w: device retains no payloads (fingerprint mode)", ErrBadExport)
	}
	snap, ok := f.tree.Lookup(opt.Snapshot)
	if !ok {
		return nil, now, fmt.Errorf("%w: %d", ErrNoSuchSnapshot, opt.Snapshot)
	}
	if snap.Deleted {
		return nil, now, fmt.Errorf("%w: %d", ErrSnapshotDeleted, opt.Snapshot)
	}
	var base *Snapshot
	if opt.Base != 0 {
		base, ok = f.tree.Lookup(opt.Base)
		if !ok {
			return nil, now, fmt.Errorf("%w: base %d", ErrNoSuchSnapshot, opt.Base)
		}
		if base.Deleted {
			return nil, now, fmt.Errorf("%w: base %d", ErrSnapshotDeleted, opt.Base)
		}
	}
	x := &Export{
		f:        f,
		snap:     snap,
		base:     base,
		opt:      opt,
		budget:   ratelimitBudget(opt.Limit),
		writes:   make(map[uint64]expEntry),
		baseOnly: make(map[uint64]struct{}),
		chunks:   make(map[uint64][]byte),
	}
	if f.cfg.SelectiveScan {
		lineage := make(map[bitmap.Epoch]bool)
		for _, e := range snap.Lineage() {
			lineage[e] = true
		}
		if base != nil {
			for _, e := range base.Lineage() {
				lineage[e] = true
			}
		}
		x.scanList = f.presence.segmentsFor(lineage)
	} else {
		x.scanList = make([]int, f.cfg.Nand.Segments)
		for i := range x.scanList {
			x.scanList[i] = i
		}
	}
	x.scanPos = make(map[int]int, len(x.scanList))
	for i, seg := range x.scanList {
		x.scanPos[seg] = i
	}
	f.exports = append(f.exports, x)
	return x, now, nil
}

// inDiff classifies a data page against the export's two epoch maps.
func (x *Export) inDiff(addr nand.PageAddr) (target, baseSide bool) {
	inTgt := x.f.vstore.Test(x.snap.Epoch, int64(addr))
	inBase := x.base != nil && x.f.vstore.Test(x.base.Epoch, int64(addr))
	return inTgt && !inBase, inBase && !inTgt
}

// invalidated reports whether a snapshot the export depends on was deleted
// mid-export (the cleaner stops maintaining deleted epochs' bits, so the
// diff can no longer be trusted).
func (x *Export) invalidated() bool {
	return x.snap.Deleted || (x.base != nil && x.base.Deleted)
}

// Run implements sim.Task: one rate-limited step — a segment header scan
// while scanning, then one batched chunk read, then stream assembly.
func (x *Export) Run(now sim.Time) (sim.Time, bool) {
	if x.done {
		return 0, true
	}
	f := x.f
	if x.invalidated() {
		return x.fail(now, fmt.Errorf("%w: snapshot deleted mid-export", ErrExportAborted))
	}

	// Phase 1: resolve the diff's LBAs by scanning segment headers, one
	// segment per step (the per-segment gate: the device is claimed for one
	// scan, then foreground I/O runs again).
	if x.segCursor < len(x.scanList) {
		seg := x.scanList[x.segCursor]
		x.segCursor++
		start := now
		oobs, done, err := f.DevScanSegmentOOB(now, seg)
		if err != nil {
			return x.fail(now, fmt.Errorf("iosnap: export scan of segment %d: %w", seg, err))
		}
		now = done
		for idx, oob := range oobs {
			if oob == nil {
				continue
			}
			h, err := header.Unmarshal(oob)
			if err != nil {
				f.stats.TornPagesSkipped++
				continue
			}
			if h.Type != header.TypeData {
				continue
			}
			addr := f.dev.Addr(seg, idx)
			tgt, bas := x.inDiff(addr)
			if tgt {
				if cur, ok := x.writes[h.LBA]; !ok || h.Seq > cur.seq {
					x.writes[h.LBA] = expEntry{addr: addr, seq: h.Seq}
				}
			} else if bas {
				x.baseOnly[h.LBA] = struct{}{}
			}
		}
		if sleep, exhausted := x.budget.Charge(now.Sub(start)); exhausted {
			return now.Add(sleep), false
		}
		return now, false
	}

	// Scan finished: fix the read order once.
	if !x.sorted {
		x.sortedLBAs = make([]uint64, 0, len(x.writes))
		for lba := range x.writes {
			x.sortedLBAs = append(x.sortedLBAs, lba)
		}
		sort.Slice(x.sortedLBAs, func(a, b int) bool { return x.sortedLBAs[a] < x.sortedLBAs[b] })
		x.sorted = true
	}

	// Phase 2: read, hash, and (unless the receiver already has the
	// content) retain one batch of pages. Addresses are looked up at
	// submission time — the cleaner may have moved pages since the scan,
	// and gcFixup keeps x.writes current.
	if x.readIdx < len(x.sortedLBAs) {
		start := now
		lbas := x.sortedLBAs[x.readIdx:]
		if len(lbas) > exportChunk {
			lbas = lbas[:exportChunk]
		}
		addrs := make([]nand.PageAddr, len(lbas))
		for i, lba := range lbas {
			addrs[i] = x.writes[lba].addr
		}
		datas, _, k, done, err := f.DevReadPages(now, addrs)
		now = done
		for i := 0; i < k; i++ {
			lba := lbas[i]
			hash := xport.HashChunk(datas[i])
			x.entries = append(x.entries, xport.Entry{LBA: lba, Hash: hash})
			if x.opt.Have != nil && x.opt.Have(lba, hash) {
				x.deduped++
			} else {
				x.chunks[lba] = append([]byte(nil), datas[i]...)
			}
		}
		if err != nil {
			failed := lbas[len(lbas)-1]
			if k < len(lbas) {
				failed = lbas[k]
			}
			return x.fail(now, fmt.Errorf("iosnap: export read of LBA %d: %w", failed, err))
		}
		x.readIdx += k
		if sleep, exhausted := x.budget.Charge(now.Sub(start)); exhausted {
			return now.Add(sleep), false
		}
		if x.readIdx < len(x.sortedLBAs) {
			return now, false
		}
	}

	// Phase 3: assemble manifest and stream (host-side only).
	deletes := make([]uint64, 0, len(x.baseOnly))
	for lba := range x.baseOnly {
		if _, rewritten := x.writes[lba]; !rewritten {
			deletes = append(deletes, lba)
		}
	}
	sort.Slice(deletes, func(a, b int) bool { return deletes[a] < deletes[b] })
	m := &xport.Manifest{
		SnapID:     uint64(x.snap.ID),
		BaseID:     x.opt.BaseManifestID,
		SectorSize: f.cfg.Nand.SectorSize,
		Sectors:    f.cfg.UserSectors,
		Writes:     x.entries,
		Deletes:    deletes,
	}
	if x.base != nil {
		m.BaseSnapID = uint64(x.base.ID)
	}
	w := xport.NewStreamWriter(m)
	var shipped int64
	for _, e := range x.entries {
		if data, ok := x.chunks[e.LBA]; ok {
			w.AddChunk(e.LBA, data)
			shipped++
		}
	}
	x.manifest = m
	x.stream = w.Close()
	f.stats.ExportChunks += shipped
	f.stats.ExportDedupHits += x.deduped
	x.done = true
	x.completedAt = now
	f.dropExport(x)
	return now, true
}

func (x *Export) fail(now sim.Time, err error) (sim.Time, bool) {
	x.err = err
	x.done = true
	x.completedAt = now
	x.f.dropExport(x)
	return now, true
}

// Cancel aborts an in-flight export.
func (x *Export) Cancel(now sim.Time) error {
	if x.done {
		return x.err
	}
	x.fail(now, ErrExportAborted)
	return nil
}

func (f *FTL) dropExport(x *Export) {
	for i, e := range f.exports {
		if e == x {
			f.exports = append(f.exports[:i], f.exports[i+1:]...)
			return
		}
	}
}

// onBlockMoved keeps an in-flight export consistent when the cleaner moves
// a block: a collected entry is re-pointed, and a block that jumps from an
// unscanned segment into an already-scanned one is classified directly
// (the same protocol as Activation.onBlockMoved).
func (x *Export) onBlockMoved(old, new nand.PageAddr, h header.Header) {
	if x.done || h.Type != header.TypeData {
		return
	}
	if cur, ok := x.writes[h.LBA]; ok && cur.addr == old {
		cur.addr = new
		x.writes[h.LBA] = cur
		return
	}
	if !x.scanWillVisit(x.f.dev.SegmentOf(old)) {
		return // already scanned: handled above if it was ours
	}
	if x.scanWillVisit(x.f.dev.SegmentOf(new)) {
		return // the scan will classify it at its new home
	}
	tgt, bas := x.inDiff(new)
	if tgt {
		if cur, ok := x.writes[h.LBA]; !ok || h.Seq > cur.seq {
			x.writes[h.LBA] = expEntry{addr: new, seq: h.Seq}
		}
	} else if bas {
		x.baseOnly[h.LBA] = struct{}{}
	}
}

func (x *Export) scanWillVisit(seg int) bool {
	pos, inList := x.scanPos[seg]
	return inList && pos >= x.segCursor
}

// ExportSync runs an export to completion, returning the manifest and the
// transfer stream. Foreground concurrency is the caller's choice: use
// BeginExport + Run (or the scheduler) to interleave.
func (f *FTL) ExportSync(now sim.Time, opt ExportOpts) (*xport.Manifest, []byte, sim.Time, error) {
	x, t, err := f.BeginExport(now, opt)
	if err != nil {
		return nil, nil, now, err
	}
	for !x.done {
		next, fin := x.Run(t)
		if fin {
			break
		}
		if next < t {
			next = t
		}
		t = next
	}
	if x.err != nil {
		return nil, nil, t, x.err
	}
	return x.manifest, x.stream, x.completedAt, nil
}

// ReceiveOpts parameterizes ReceiveInto.
type ReceiveOpts struct {
	// Base is the manifest of the generation currently on the destination:
	// required to accept a delta (its ID must equal the delta's BaseID) and
	// to materialize deduplicated chunks locally. nil = bare destination.
	Base *xport.Manifest
	// Journal, when non-nil, resumes an interrupted receive of the SAME
	// transfer from its persisted journal bytes. A journal from a different
	// transfer is refused (xport.ErrWrongTransfer); a damaged journal is
	// refused (xport.ErrBadJournal) — the caller decides to restart fresh.
	Journal []byte
	// Persist, when non-nil, is called with encoded journal bytes at every
	// durability point (after the clear phase, every PersistEvery applied
	// chunks, and at commit). This is the receiver's crash-consistency
	// contract: what Persist saw is what a resume can rely on — so a
	// Persist failure aborts the receive. Swallowing it would let the
	// receive "commit" against a journal that never became durable, and a
	// crash after that leaves a resume trusting state that does not exist.
	Persist func(journal []byte) error
	// PersistEvery is the applied-chunk batch between journal persists
	// (default 32).
	PersistEvery int
	// AbortAfter, when positive, aborts the receive with ErrReceiveAborted
	// after that many chunk writes — the crash-mid-receive test hook. The
	// journal is persisted before aborting.
	AbortAfter int
}

// Receipt summarizes one ReceiveInto call.
type Receipt struct {
	Manifest *xport.Manifest
	Journal  *xport.Journal
	Applied  int  // chunk writes performed by this call
	Skipped  int  // entries already durable from a prior attempt
	Deduped  int  // entries materialized from local base content
	Resumed  bool // this call continued a persisted journal
}

// ReceiveInto applies a transfer stream to dst. The stream is validated
// end to end BEFORE the device is touched — a truncated, reordered-into-
// garbage, or bit-flipped stream fails atomically with no mutation. After
// validation the apply itself is journaled: an interrupted apply (crash,
// AbortAfter) resumes from the persisted journal, re-applying only what
// never became durable, and the import is complete exactly when the
// journal commits.
func ReceiveInto(dst blockdev.Device, now sim.Time, stream []byte, opt ReceiveOpts) (*Receipt, sim.Time, error) {
	// ---- Validation pass: no device mutation below until it finishes. ----
	m, shipped, err := scanStream(stream)
	if err != nil {
		return nil, now, err
	}
	id := m.ID()
	if m.SectorSize != dst.SectorSize() || m.Sectors > dst.Sectors() {
		return nil, now, fmt.Errorf("%w: manifest %d×%d vs device %d×%d",
			ErrReplicaMismatch, m.Sectors, m.SectorSize, dst.Sectors(), dst.SectorSize())
	}
	if m.IsDelta() {
		if opt.Base == nil {
			return nil, now, fmt.Errorf("%w: delta received on a bare destination", xport.ErrBaseMismatch)
		}
		if opt.Base.ID() != m.BaseID {
			return nil, now, fmt.Errorf("%w: delta base %#x, destination holds %#x",
				xport.ErrBaseMismatch, m.BaseID, opt.Base.ID())
		}
	}
	rec := &Receipt{Manifest: m}
	if opt.Journal != nil {
		j, err := xport.DecodeJournal(opt.Journal)
		if err != nil {
			return nil, now, err
		}
		if j.ManifestID != id {
			return nil, now, fmt.Errorf("%w: journal for %#x, stream is %#x",
				xport.ErrWrongTransfer, j.ManifestID, id)
		}
		rec.Journal = j
		rec.Resumed = true
	} else {
		rec.Journal = xport.NewJournal(id)
	}
	j := rec.Journal
	persistEvery := opt.PersistEvery
	if persistEvery <= 0 {
		persistEvery = 32
	}
	persist := func() error {
		if opt.Persist != nil {
			if err := opt.Persist(j.Encode()); err != nil {
				return fmt.Errorf("iosnap: persisting receive journal: %w", err)
			}
		}
		return nil
	}

	// ---- Dedup phase: verify locally-materialized entries first, while
	// their source sectors are untouched by this apply. A deduplicated
	// entry's content already sits at the SAME lba (the oracle only claims
	// same-lba matches), so this phase reads and hashes without writing —
	// idempotent across resumes. ----
	ss := m.SectorSize
	buf := make([]byte, ss)
	for _, e := range m.Writes {
		if _, isShipped := shipped[e.LBA]; isShipped {
			continue
		}
		if j.Applied(e.LBA) {
			rec.Skipped++
			continue
		}
		be, ok := xport.Entry{}, false
		if opt.Base != nil {
			be, ok = opt.Base.Find(e.LBA)
		}
		if !ok || be.Hash != e.Hash {
			return rec, now, fmt.Errorf("%w: no chunk and no local content for LBA %d", xport.ErrTruncated, e.LBA)
		}
		done, err := dst.Read(now, int64(e.LBA), buf)
		if err != nil {
			return rec, now, fmt.Errorf("iosnap: dedup read of LBA %d: %w", e.LBA, err)
		}
		now = done
		if xport.HashChunk(buf) != e.Hash {
			return rec, now, fmt.Errorf("%w: local content for LBA %d", xport.ErrHashMismatch, e.LBA)
		}
		j.MarkApplied(e.LBA)
		rec.Deduped++
	}

	// ---- Clear phase (journaled): a delta trims its Deletes; a full image
	// trims every sector the manifest does not define, so the finished
	// replica equals the image exactly — not the image layered over stale
	// sectors. ----
	if !j.DeletesDone {
		if m.IsDelta() {
			for _, lba := range m.Deletes {
				done, err := clearSectors(dst, now, int64(lba), 1, buf)
				if err != nil {
					return rec, now, fmt.Errorf("iosnap: clearing LBA %d: %w", lba, err)
				}
				now = done
			}
		} else {
			var next int64
			for _, e := range m.Writes {
				if int64(e.LBA) > next {
					done, err := clearSectors(dst, now, next, int64(e.LBA)-next, buf)
					if err != nil {
						return rec, now, fmt.Errorf("iosnap: clearing [%d,%d): %w", next, e.LBA, err)
					}
					now = done
				}
				next = int64(e.LBA) + 1
			}
			if next < m.Sectors {
				done, err := clearSectors(dst, now, next, m.Sectors-next, buf)
				if err != nil {
					return rec, now, fmt.Errorf("iosnap: clearing [%d,%d): %w", next, m.Sectors, err)
				}
				now = done
			}
		}
		j.DeletesDone = true
		if err := persist(); err != nil {
			return rec, now, err
		}
	}

	// ---- Apply phase (journaled): shipped chunks land in ascending LBA
	// order; every write is hash-verified bytes (VerifyChunk ran in the
	// validation pass) and becomes durable in the journal in batches. ----
	order := make([]uint64, 0, len(shipped))
	for lba := range shipped {
		order = append(order, lba)
	}
	sort.Slice(order, func(a, b int) bool { return order[a] < order[b] })
	sincePersist := 0
	for _, lba := range order {
		if j.Applied(lba) {
			rec.Skipped++
			continue
		}
		done, err := dst.Write(now, int64(lba), shipped[lba])
		if err != nil {
			perr := persist() // best-effort journal of what DID land
			return rec, now, errors.Join(fmt.Errorf("iosnap: applying LBA %d: %w", lba, err), perr)
		}
		now = done
		j.MarkApplied(lba)
		rec.Applied++
		sincePersist++
		if sincePersist >= persistEvery {
			if err := persist(); err != nil {
				return rec, now, err
			}
			sincePersist = 0
		}
		if opt.AbortAfter > 0 && rec.Applied >= opt.AbortAfter {
			if err := persist(); err != nil {
				return rec, now, err
			}
			return rec, now, ErrReceiveAborted
		}
	}

	j.Committed = true
	if err := persist(); err != nil {
		// The commit record never became durable: the transfer is NOT
		// complete, and the in-memory journal must say so too.
		j.Committed = false
		return rec, now, err
	}
	return rec, now, nil
}

// scanStream validates every frame of a transfer stream and returns the
// manifest plus the shipped chunks (lba -> payload, aliasing stream).
func scanStream(stream []byte) (*xport.Manifest, map[uint64][]byte, error) {
	s := xport.NewScanner(stream)
	if !s.More() {
		return nil, nil, fmt.Errorf("%w: empty stream", xport.ErrTruncated)
	}
	first, err := s.Next()
	if err != nil {
		return nil, nil, err
	}
	if first.Type != xport.FrameManifest {
		return nil, nil, fmt.Errorf("%w: stream does not start with a manifest", xport.ErrBadStream)
	}
	m := first.Manifest
	id := m.ID()
	shipped := make(map[uint64][]byte)
	sawEnd := false
	for s.More() {
		if sawEnd {
			return nil, nil, fmt.Errorf("%w: frames after the end frame", xport.ErrBadStream)
		}
		f, err := s.Next()
		if err != nil {
			return nil, nil, err
		}
		switch f.Type {
		case xport.FrameChunk:
			if err := xport.VerifyChunk(m, id, f); err != nil {
				return nil, nil, err
			}
			if _, dup := shipped[f.LBA]; dup {
				return nil, nil, fmt.Errorf("%w: duplicate chunk for LBA %d", xport.ErrBadStream, f.LBA)
			}
			shipped[f.LBA] = f.Data
		case xport.FrameEnd:
			if f.TransferID != id {
				return nil, nil, fmt.Errorf("%w: end frame tagged %#x", xport.ErrWrongTransfer, f.TransferID)
			}
			if f.Chunks != uint64(len(shipped)) {
				return nil, nil, fmt.Errorf("%w: end frame promises %d chunks, stream carries %d",
					xport.ErrTruncated, f.Chunks, len(shipped))
			}
			sawEnd = true
		default:
			return nil, nil, fmt.Errorf("%w: unexpected frame type %d", xport.ErrBadStream, f.Type)
		}
	}
	if !sawEnd {
		return nil, nil, fmt.Errorf("%w: no end frame", xport.ErrTruncated)
	}
	return m, shipped, nil
}

// clearSectors trims [lba, lba+n) on dst, falling back to zero-writes when
// the device has no Trim. buf is sector-sized scratch (clobbered).
func clearSectors(dst blockdev.Device, now sim.Time, lba, n int64, buf []byte) (sim.Time, error) {
	if tr, ok := dst.(blockdev.Trimmer); ok {
		return tr.Trim(now, lba, n)
	}
	for i := range buf {
		buf[i] = 0
	}
	for i := int64(0); i < n; i++ {
		done, err := dst.Write(now, lba+i, buf)
		if err != nil {
			return now, err
		}
		now = done
	}
	return now, nil
}

// VerifyReplica re-reads every sector the manifest defines from dst and
// hashes it against the manifest; delta Deletes are checked to read as
// zeros. It returns the mismatching LBAs (read errors count as mismatches:
// either way the sector's content cannot be trusted).
func VerifyReplica(dst blockdev.Device, now sim.Time, m *xport.Manifest) (mismatches []uint64, done sim.Time, err error) {
	if m.SectorSize != dst.SectorSize() {
		return nil, now, fmt.Errorf("%w: manifest sector %d vs device %d",
			ErrReplicaMismatch, m.SectorSize, dst.SectorSize())
	}
	buf := make([]byte, m.SectorSize)
	for _, e := range m.Writes {
		d, rerr := dst.Read(now, int64(e.LBA), buf)
		if rerr != nil {
			mismatches = append(mismatches, e.LBA)
			continue
		}
		now = d
		if xport.HashChunk(buf) != e.Hash {
			mismatches = append(mismatches, e.LBA)
		}
	}
	zero := xport.HashChunk(make([]byte, m.SectorSize))
	for _, lba := range m.Deletes {
		d, rerr := dst.Read(now, int64(lba), buf)
		if rerr != nil {
			mismatches = append(mismatches, lba)
			continue
		}
		now = d
		if xport.HashChunk(buf) != zero {
			mismatches = append(mismatches, lba)
		}
	}
	return mismatches, now, nil
}

// Replicator drives end-to-end replication from a source FTL to a
// destination block device: export, transfer (with optional injected
// stream damage), journaled receive, verify, and bounded retry. It tracks
// the destination's committed generation so successive calls replicate
// incrementally and deduplicate unchanged content.
type Replicator struct {
	Src *FTL
	Dst blockdev.Device
	// Policy bounds the receive/verify retry loop (zero = single attempt).
	Policy retry.Policy
	// Limit rate-limits the export job.
	Limit ratelimit.WorkSleep
	// Mangle, when non-nil, damages the wire per attempt — the stream
	// fault-injection hook (attempt is 1-based; return the stream
	// unmodified to stop injecting).
	Mangle func(attempt int, stream []byte) []byte
	// Persist, when non-nil, observes journal bytes at every durability
	// point (the CLI writes them to a file). A Persist failure aborts the
	// replication attempt: the resume contract is only as good as what
	// actually reached stable storage.
	Persist func(journal []byte) error

	gen     *xport.Manifest
	journal []byte
}

// Generation returns the destination's committed generation manifest (nil
// before the first successful replication).
func (r *Replicator) Generation() *xport.Manifest { return r.gen }

// Restore installs previously persisted state (committed generation and,
// when resuming a crashed transfer, its journal) — the CLI's path to
// resuming across process restarts.
func (r *Replicator) Restore(gen *xport.Manifest, journal []byte) {
	r.gen = gen
	r.journal = journal
}

// Journal returns the in-flight transfer's persisted journal bytes (nil
// when the last transfer committed).
func (r *Replicator) Journal() []byte { return r.journal }

// Replicate ships snapshot snap to the destination. With base != 0 (and a
// committed generation present) the transfer is incremental; otherwise a
// full image. Returns the committed manifest.
//
// Failure semantics: stream-shape damage (truncation, bit flips, chunk
// hash mismatches) and verify failures are retried within Policy's budget,
// with sectors that failed verification re-applied from the stream; errors
// that survive the budget — and non-retryable errors — leave the
// destination's committed generation unchanged (an interrupted apply's
// journal is kept so the next call resumes it).
func (r *Replicator) Replicate(now sim.Time, snap, base SnapshotID) (*xport.Manifest, sim.Time, error) {
	opt := ExportOpts{Snapshot: snap, Base: base, Limit: r.Limit}
	if base != 0 {
		if r.gen == nil {
			return nil, now, fmt.Errorf("%w: incremental replicate with no committed generation", xport.ErrBaseMismatch)
		}
		opt.BaseManifestID = r.gen.ID()
	}
	if r.gen != nil {
		g := r.gen
		opt.Have = func(lba, hash uint64) bool {
			e, ok := g.Find(lba)
			return ok && e.Hash == hash
		}
	}
	m, stream, done, err := r.Src.ExportSync(now, opt)
	if err != nil {
		return nil, now, err
	}
	now = done

	attempt := 0
	done, retries, err := r.Policy.DoRetryable(now, xport.Retryable, func(at sim.Time) (sim.Time, error) {
		attempt++
		wire := stream
		if r.Mangle != nil {
			wire = r.Mangle(attempt, wire)
		}
		rec, d, rerr := ReceiveInto(r.Dst, at, wire, ReceiveOpts{
			Base:    r.gen,
			Journal: r.journal,
			Persist: r.persistJournal,
		})
		if rec != nil && rec.Resumed {
			r.Src.stats.ImportResumes++
		}
		if rerr != nil {
			return d, rerr
		}
		mism, d2, verr := VerifyReplica(r.Dst, d, m)
		if verr != nil {
			return d2, verr
		}
		if len(mism) > 0 {
			// Re-open the journal for exactly the failed sectors so the next
			// attempt re-applies them from the already-verified stream.
			r.Src.stats.VerifyMismatches += int64(len(mism))
			for _, lba := range mism {
				rec.Journal.Unmark(lba)
			}
			rec.Journal.Committed = false
			if perr := r.persistJournal(rec.Journal.Encode()); perr != nil {
				return d2, perr
			}
			return d2, fmt.Errorf("%w: %d sectors failed verification", xport.ErrHashMismatch, len(mism))
		}
		return d2, nil
	})
	r.Src.stats.ImportRetries += retries
	if err != nil {
		return nil, done, err
	}
	r.gen = m
	r.journal = nil
	return m, done, nil
}

func (r *Replicator) persistJournal(b []byte) error {
	r.journal = b
	if r.Persist != nil {
		if err := r.Persist(b); err != nil {
			return fmt.Errorf("iosnap: persisting replication journal: %w", err)
		}
	}
	return nil
}
