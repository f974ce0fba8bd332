// Package iosnap implements the paper's contribution: a snapshot-capable
// log-structured FTL ("ioSnap", EuroSys 2014). It builds on the shared
// Remap-on-Write log core (internal/logcore) with:
//
//   - epochs — a monotonically increasing counter stamped into every block
//     header, preserving log-time across segment-cleaner intermixing (§5.3.2);
//   - a snapshot tree recording how snapshots inherit from one another
//     through creates and activations (§5.3.2, Figure 4);
//   - per-epoch copy-on-write validity bitmaps, so unactivated snapshots
//     consume almost no memory and no reference counters bound the snapshot
//     count (§5.4.1);
//   - a snapshot-aware segment cleaner that merges per-epoch validity maps
//     and re-points every referencing epoch when it moves a block (§5.4.3);
//   - deferred, rate-limited snapshot activation that rebuilds a snapshot's
//     forward map from a log scan (§5.6);
//   - two-pass crash recovery reconstructing the snapshot tree, the active
//     forward map, and per-epoch validity maps (§5.5).
//
// Snapshot create and delete are a single log note (~tens of µs); all
// expensive work is deferred to the rare activation path — the paper's
// central design trade-off.
package iosnap

import (
	"errors"
	"fmt"

	"iosnap/internal/bitmap"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// Errors returned by ioSnap operations.
var (
	ErrOutOfRange      = errors.New("iosnap: LBA out of range")
	ErrBadLength       = errors.New("iosnap: buffer not a multiple of sector size")
	ErrClosed          = errors.New("iosnap: device closed")
	ErrDeviceFull      = logcore.ErrDeviceFull
	ErrNoSuchSnapshot  = errors.New("iosnap: no such snapshot")
	ErrSnapshotDeleted = errors.New("iosnap: snapshot deleted")
	ErrNotReady        = errors.New("iosnap: activation not finished")
	ErrViewClosed      = errors.New("iosnap: activated view deactivated")
	ErrReadOnlyView    = errors.New("iosnap: view is read-only")
	ErrOutOfSpace      = logcore.ErrOutOfSpace
)

// GCPolicy selects how the cleaner estimates its work for pacing.
type GCPolicy int

const (
	// GCVanillaEstimate paces from the *active* epoch's validity only — the
	// unmodified driver policy, which underestimates work when snapshotted
	// data must move and so bunches copy-forward (Figure 10b).
	GCVanillaEstimate GCPolicy = iota
	// GCSnapshotAware paces from the merged validity across all live epochs
	// (Figure 10c).
	GCSnapshotAware
)

func (p GCPolicy) String() string {
	if p == GCSnapshotAware {
		return "snapshot-aware"
	}
	return "vanilla-estimate"
}

// Config parameterizes the snapshot-capable FTL: the log core's settings
// plus the snapshot knobs.
type Config struct {
	logcore.Config

	// GCPolicy selects the pacing estimate (Figure 10's ablation).
	GCPolicy GCPolicy
	// EpochSegregation makes the cleaner copy a victim's blocks grouped by
	// epoch, minimizing intermix in the destination segment (§5.4.2's
	// policy sketch; an ablation in this repo).
	EpochSegregation bool
	// CoWPageCost is the host cost of copying one validity-bitmap page when
	// a write mutates a page frozen by a snapshot (Figure 7's spikes).
	CoWPageCost sim.Duration
	// ReconstructCPUPerEntry is the host cost per translation when building
	// a forward map during activation or recovery.
	ReconstructCPUPerEntry sim.Duration
	// BitmapPageBits is the CoW granularity of validity maps in bits
	// (default: one 4 KB page = 32768 blocks).
	BitmapPageBits int64

	// ActivationBatch is how many segment scans an *unthrottled* activation
	// keeps in flight per quantum; larger batches saturate the device and
	// hurt foreground latency more (Figure 9a).
	ActivationBatch int

	// SelectiveScan enables the paper's §7 activation optimization: scan
	// only the segments whose epoch-presence summary intersects the
	// snapshot's lineage, instead of the whole log.
	SelectiveScan bool

	// ScrubInterval arms the background scrubber: at most one scrub pass
	// per interval walks the used segments oldest-first, read-verifying
	// their headers and rescuing+retiring any suspect segment. Zero
	// disables scrubbing (the default; cleaning still retires suspects).
	ScrubInterval sim.Duration
	// ScrubLimit paces the scrubber's segment scans (work/sleep, like
	// activation rate-limiting) so foreground latency is preserved. The
	// zero value scrubs unthrottled.
	ScrubLimit ratelimit.WorkSleep

	// GCGate, when non-nil, arbitrates *background* cleaning across FTL
	// instances that share a budget (the sharded front-end's global GC
	// governor): maybeScheduleGC acquires the gate before starting a
	// cleaner task and releases it when the task ends, and a denied
	// acquisition simply defers cleaning to the next head advance. Forced
	// synchronous cleans bypass the gate — they are how a writer makes
	// progress and must never deadlock on another shard's budget. nil (the
	// default) leaves scheduling exactly as it was.
	GCGate GCGate
}

// GCGate is a cross-FTL admission gate for background cleaning. TryAcquire
// reports whether a new background clean may start; every successful
// acquisition is matched by exactly one Release when the clean finishes or
// aborts. Implementations must be safe for concurrent use when FTLs run on
// separate goroutines (service mode).
type GCGate interface {
	TryAcquire() bool
	Release()
}

// DefaultConfig returns the log core's defaults with the snapshot knobs
// added.
func DefaultConfig(nc nand.Config) Config {
	return Config{
		Config:                 logcore.DefaultConfig(nc),
		GCPolicy:               GCSnapshotAware,
		CoWPageCost:            100 * sim.Microsecond,
		ReconstructCPUPerEntry: 150 * sim.Nanosecond,
		BitmapPageBits:         bitmap.DefaultBitsPerPage,
		ActivationBatch:        8,
	}
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.BitmapPageBits != 0 && (c.BitmapPageBits < 64 || c.BitmapPageBits%64 != 0) {
		return fmt.Errorf("iosnap: BitmapPageBits %d must be a positive multiple of 64", c.BitmapPageBits)
	}
	if c.ActivationBatch < 1 {
		return fmt.Errorf("iosnap: ActivationBatch %d must be at least 1", c.ActivationBatch)
	}
	if c.ScrubInterval < 0 {
		return fmt.Errorf("iosnap: ScrubInterval must not be negative")
	}
	return nil
}

// Stats counts ioSnap activity.
type Stats struct {
	UserReads    int64 // sectors read by the user (not calls)
	UserWrites   int64 // sectors written by the user (not calls)
	BytesRead    int64
	BytesWritten int64
	Trims        int64

	SnapshotCreates     int64
	SnapshotDeletes     int64
	SnapshotActivations int64
	CoWPageCopies       int64 // validity bitmap pages copied (Figure 7b)

	GCRuns          int64
	GCForced        int64
	GCCopied        int64
	GCErases        int64
	GCErrors        int64  // background cleans aborted by device errors
	GCLastErr       string // most recent aborting error ("" when none)
	GCUnpacedQuanta int64  // cleaner quanta run unthrottled because the work estimate was exhausted
	GCMergeTime     sim.Duration
	GCTotalTime     sim.Duration
	GCLastAt        sim.Time

	GCVictimSelects     int64 // victim-selection decisions taken
	GCCacheHits         int64 // decisions served entirely from fresh merge caches
	GCCacheRebuilds     int64 // per-segment merge caches rebuilt after an epoch-set change
	GCCacheRebuildPages int64 // pages passed over by those rebuilds

	TornPagesSkipped int64 // unparseable OOB headers tolerated during recovery/activation scans

	// Batched data-path accounting. The reference path reports the same
	// numbers — what the batched path would have submitted — so the two
	// paths' Stats stay comparable field for field.
	BatchDescents  int64 // leaf descents charged for run operations
	BatchPages     int64 // pages submitted through batch NAND entry points
	BatchNandCalls int64 // batch NAND calls issued (one per run chunk)

	Checkpoints       int64  // checkpoint generations committed
	CheckpointChunks  int64  // chunk pages programmed by committed generations
	CheckpointErrors  int64  // checkpoint attempts aborted by errors
	CheckpointLastErr string // most recent aborting error ("" when none)

	RecoveryTailBounded bool  // last recovery loaded a checkpoint and scanned only the tail
	RecoveryFallbacks   int64 // tail recoveries abandoned for the full scan
	RecoverySegsScanned int64 // segments header-scanned by the last recovery
	RecoveryHeaderPages int64 // header pages read by the last recovery

	Retries         int64 // NAND operations reissued after a transient error
	MediaFailures   int64 // permanent media failures observed (segments marked suspect)
	SegmentsSuspect int   // segments awaiting rescue (refreshed by Stats())
	SegmentsRetired int   // segments permanently out of service (refreshed by Stats())
	RescuedPages    int64 // blocks copied off suspect segments by rescue/scrub

	ScrubPasses   int64    // completed scrub passes over the log
	ScrubSegments int64    // segments read-verified by the scrubber
	ScrubRescues  int64    // suspect segments rescued+retired by the scrubber
	ScrubLastAt   sim.Time // completion time of the last scrub pass

	OutOfSpaceWrites int64 // writes shed with ErrOutOfSpace
	Degraded         bool  // currently in out-of-space read-only degradation

	ExportChunks     int64 // chunks shipped by snapshot exports (after dedup)
	ExportDedupHits  int64 // chunks the receiver already held (listed, not shipped)
	ImportRetries    int64 // replication receive/verify attempts re-driven
	ImportResumes    int64 // receives resumed from a persisted journal
	VerifyMismatches int64 // replica sectors that failed post-receive verification

	MapMemory         int64 // active forward map bytes, as if fully resident (refreshed by Stats())
	MapMemoryResident int64 // host RAM the map actually holds: resident pages + GTD (refreshed by Stats())
	MapCacheHits      int64 // translation pages served from the cache (paged mode)
	MapCacheMisses    int64 // translation pages faulted from flash (paged mode)
	MapCacheEvictions int64 // resident translation pages evicted (paged mode)
	MapPagesFlushed   int64 // dirty translation pages written back to the log (paged mode)
	ValidityMemory    int64 // CoW validity pages bytes (refreshed by Stats())
	WriteAmplify      float64
}

// view is one writable-or-readable mapping of the device: the active tree,
// or an activated snapshot.
type view struct {
	fmap     *mapcache.Map
	epoch    bitmap.Epoch
	writable bool
	closed   bool
	// parent is the snapshot this view descends from (nil for the initial
	// active view of a fresh device).
	parent *Snapshot
	// fromActivation is true while the view's epoch is still the one its
	// activation note allocated. Crash recovery kills exactly those epochs
	// (an un-snapshotted activation dies with the host), so a checkpoint
	// must serialize them as deleted; once the view creates a snapshot its
	// continuation epoch survives recovery and the flag resets.
	fromActivation bool
}

// FTL is the snapshot-capable translation layer: the shared log core plus
// epochs, the snapshot tree, CoW validity maps, and the snapshot-aware
// cleaner. Not safe for concurrent use; the simulation is single-threaded
// over virtual time.
type FTL struct {
	logcore.Log

	cfg   Config
	dev   *nand.Device
	sched *sim.Scheduler

	vstore   *bitmap.Store
	tree     *Tree
	presence *epochPresence
	acct     *gcAcct // incremental merged-validity accounting (gcacct.go)

	active *view   // the primary block device
	views  []*view // active + all live activated views

	epochCounter bitmap.Epoch
	epochParent  map[bitmap.Epoch]bitmap.Epoch

	gcActive    bool
	gcVictim    int // segment a background gcTask currently owns (-1 = none)
	scrubActive bool
	lastScrub   sim.Time // completion time of the last scrub pass

	frozen      bool
	activations []*Activation // in-flight activations (cleaner keeps them consistent)
	exports     []*Export     // in-flight snapshot exports (ditto)
	stats       Stats
}

// shell builds an FTL over dev with an empty log, no epochs and no views;
// New formats it, recovery fills it in from a scan or a checkpoint.
func shell(cfg Config, dev *nand.Device, sched *sim.Scheduler) *FTL {
	if sched == nil {
		sched = sim.NewScheduler()
	}
	f := &FTL{
		cfg:         cfg,
		dev:         dev,
		sched:       sched,
		vstore:      bitmap.NewStore(cfg.Nand.TotalPages(), cfg.BitmapPageBits),
		tree:        NewTree(),
		epochParent: make(map[bitmap.Epoch]bitmap.Epoch),
		gcVictim:    -1,
		presence:    newEpochPresence(cfg.Nand.Segments),
	}
	f.Init(cfg.Config, dev, sched, f)
	f.acct = newGCAcct(f)
	return f
}

// New formats a fresh device. See ftl.New for the scheduler contract.
func New(cfg Config, sched *sim.Scheduler) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := shell(cfg, nand.New(cfg.Nand), sched)
	f.epochCounter = 1
	if err := f.vstore.CreateEpoch(1, bitmap.NoParent); err != nil {
		return nil, err
	}
	f.active = &view{fmap: f.NewMap(), epoch: 1, writable: true}
	f.views = []*view{f.active}
	f.Format()
	return f, nil
}

// Device exposes the underlying NAND.
func (f *FTL) Device() *nand.Device { return f.dev }

// Scheduler returns the background-task scheduler.
func (f *FTL) Scheduler() *sim.Scheduler { return f.sched }

// Config returns the configuration.
func (f *FTL) Config() Config { return f.cfg }

// Tree returns the snapshot tree.
func (f *FTL) Tree() *Tree { return f.tree }

// ActiveEpoch returns the epoch currently absorbing primary writes.
func (f *FTL) ActiveEpoch() bitmap.Epoch { return f.active.epoch }

// SectorSize implements blockdev.Device.
func (f *FTL) SectorSize() int { return f.cfg.Nand.SectorSize }

// Sectors implements blockdev.Device.
func (f *FTL) Sectors() int64 { return f.cfg.UserSectors }

// FreeSegments returns the size of the erased-segment pool.
func (f *FTL) FreeSegments() int { return len(f.FreeSegs) }

// MappedSectors returns the active view's translation count.
func (f *FTL) MappedSectors() int { return f.active.fmap.Len() }

// ActiveMapMemory returns the active forward map's footprint in bytes.
func (f *FTL) ActiveMapMemory() int64 { return f.active.fmap.MemoryBytes() }

// Stats returns a snapshot of the counters with derived fields refreshed.
func (f *FTL) Stats() Stats {
	s := f.stats
	c := f.Counters
	s.Retries, s.MediaFailures, s.OutOfSpaceWrites = c.Retries, c.MediaFailures, c.OutOfSpaceWrites
	s.BatchDescents, s.BatchPages, s.BatchNandCalls = c.BatchDescents, c.BatchPages, c.BatchNandCalls
	s.Checkpoints, s.CheckpointChunks = c.Checkpoints, c.CheckpointChunks
	s.CheckpointErrors, s.CheckpointLastErr = c.CheckpointErrors, c.CheckpointLastErr
	s.CoWPageCopies = f.vstore.CoWCopies()
	s.MapMemory = f.active.fmap.MemoryBytes()
	s.MapMemoryResident = f.active.fmap.ResidentBytes()
	if c := f.pagedActive(); c != nil {
		cs := c.Stats()
		s.MapCacheHits = cs.Hits
		s.MapCacheMisses = cs.Misses
		s.MapCacheEvictions = cs.Evictions
		s.MapPagesFlushed = cs.Flushed
	}
	s.ValidityMemory = f.vstore.MemoryBytes()
	s.SegmentsSuspect, s.SegmentsRetired = f.dev.HealthCounts()
	s.Degraded = f.Degraded
	if s.UserWrites > 0 {
		s.WriteAmplify = float64(s.UserWrites+s.GCCopied) / float64(s.UserWrites)
	}
	return s
}

func (f *FTL) checkIO(lba int64, n int) error {
	if f.Closed {
		return ErrClosed
	}
	if n == 0 {
		return fmt.Errorf("%w: zero-length I/O", ErrBadLength)
	}
	if lba < 0 || lba+int64(n) > f.cfg.UserSectors {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrOutOfRange, lba, lba+int64(n), f.cfg.UserSectors)
	}
	return nil
}

// Read implements blockdev.Device on the active view. Reads that fail
// mid-run report the sectors completed before the failure in
// UserReads/BytesRead and return the virtual time already consumed.
func (f *FTL) Read(now sim.Time, lba int64, buf []byte) (sim.Time, error) {
	if f.Closed {
		return now, ErrClosed
	}
	completed, done, err := f.readVia(f.active, now, lba, buf)
	f.stats.UserReads += int64(completed)
	f.stats.BytesRead += int64(completed) * int64(f.cfg.Nand.SectorSize)
	return done, err
}

// Write implements blockdev.Device on the active view. Like Read, a mid-run
// device failure leaves the completed sectors committed and counted.
func (f *FTL) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	if f.Closed {
		return now, ErrClosed
	}
	completed, done, err := f.writeVia(f.active, now, lba, data)
	f.stats.UserWrites += int64(completed)
	f.stats.BytesWritten += int64(completed) * int64(f.cfg.Nand.SectorSize)
	return done, err
}

// pagedActive returns the active view's cache, or nil in tree mode.
func (f *FTL) pagedActive() *mapcache.Cache {
	if f.active == nil {
		return nil
	}
	return f.active.fmap.Paged()
}

// SegmentOpened implements logcore.Policy: a just-erased segment entering
// service as log head joins the cleaner's accounting with an exact (empty)
// merge cache.
func (f *FTL) SegmentOpened(seg int) { f.acct.track(seg, true) }

// SegmentReleased implements logcore.Policy: an erased or retired segment
// leaves the presence summary and the cleaner's accounting.
func (f *FTL) SegmentReleased(seg int) {
	f.presence.clear(seg)
	f.acct.untrack(seg)
}

// HeadAdvanced implements logcore.Policy: a head advance arms the
// background cleaner, the scrubber, and the periodic checkpoint.
func (f *FTL) HeadAdvanced(now sim.Time) {
	f.maybeScheduleGC(now)
	f.maybeScheduleScrub(now)
	f.MaybeScheduleCheckpoint(now, f.active.fmap)
}

// MapFrozen implements logcore.Policy: a freeze forbids programs, so dirty
// translation pages stay resident.
func (f *FTL) MapFrozen() bool { return f.frozen }

// writeNote appends a snapshot note (one metadata block, the paper's 4 KB
// per snapshot operation) and returns its address. Notes are marked valid
// in the active epoch so the cleaner preserves them for crash recovery.
func (f *FTL) writeNote(now sim.Time, typ header.Type, id SnapshotID, epoch bitmap.Epoch) (nand.PageAddr, sim.Time, error) {
	reserve := f.cfg.DataReserve()
	if typ == header.TypeSnapDelete || typ == header.TypeSnapDeactivate {
		// Space-FREEING notes dip below the rescue reserve: deleting a
		// snapshot is how a degraded device recovers, so it must not be
		// refused for the very space it is about to release.
		reserve = 1
	}
	h := header.Header{Type: typ, LBA: uint64(id), Epoch: uint64(epoch)}
	addr, done, err := f.AppendPage(now, reserve, h, func(uint64) []byte {
		return make([]byte, f.cfg.Nand.SectorSize)
	})
	if err != nil {
		return 0, done, fmt.Errorf("iosnap: writing %v note: %w", typ, err)
	}
	f.vstore.Set(f.active.epoch, int64(addr))
	f.acct.onViewSet(int64(addr))
	f.presence.add(f.dev.SegmentOf(addr), f.active.epoch)
	return addr, done, nil
}

// Close writes a final synchronous checkpoint (when the device stores
// data, so the chunks can be read back) and marks the FTL closed. The log
// remains the source of truth — a failed or absent checkpoint only means
// the next recovery falls back to the full header scan.
func (f *FTL) Close(now sim.Time) (sim.Time, error) {
	if f.Closed {
		return now, ErrClosed
	}
	if f.cfg.Nand.StoreData && !f.CkptActive {
		done, _ := f.WriteCheckpoint(now, f.active.fmap)
		// A failed attempt still consumed real NAND and bus time for the
		// chunks that landed before the error, so the clock advances on
		// both paths. The error itself was recorded in CheckpointErrors
		// and the previous anchor (if any) stays intact; closing proceeds.
		now = done
	}
	f.Closed = true
	return now, nil
}

// liveEpochs returns every registered epoch (deleted ones are skipped by
// merge operations internally but still enumerated for per-epoch fixups).
func (f *FTL) liveEpochs() []bitmap.Epoch { return f.vstore.Epochs() }

// ratelimitBudget is a tiny helper so activation code reads clearly.
func ratelimitBudget(ws ratelimit.WorkSleep) *ratelimit.Budget { return ratelimit.NewBudget(ws) }
