// Package ftl implements the vanilla log-structured FTL the paper builds
// on: the Fusion-io Virtual Storage Layer as described in §5.2. The shared
// log core (internal/logcore) supplies the log head, Remap-on-Write
// appends, the media boundary and checkpoint pinning; this package adds a
// single validity bitmap, the greedy paced segment cleaner over it,
// checkpoint serialization, and crash recovery by log scan.
//
// This package has no snapshot support at all; it is the baseline
// ("Vanilla") column of the paper's Table 2 and Table 4.
package ftl

import (
	"errors"
	"fmt"

	"iosnap/internal/bitmap"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Errors returned by FTL operations.
var (
	ErrOutOfRange = errors.New("ftl: LBA out of range")
	ErrBadLength  = errors.New("ftl: buffer not a multiple of sector size")
	ErrClosed     = errors.New("ftl: device closed")
	ErrDeviceFull = logcore.ErrDeviceFull
	ErrOutOfSpace = logcore.ErrOutOfSpace
)

// Config parameterizes the FTL above the raw NAND geometry. The vanilla
// FTL needs nothing beyond the log core's settings.
type Config = logcore.Config

// DefaultConfig returns a config over the given NAND geometry with the
// calibrated defaults used throughout the experiments.
func DefaultConfig(nc nand.Config) Config { return logcore.DefaultConfig(nc) }

// Stats counts FTL-level activity.
type Stats struct {
	UserReads    int64 // sectors read by the user (not calls)
	UserWrites   int64 // sectors written by the user (not calls)
	BytesRead    int64
	BytesWritten int64
	Trims        int64

	GCRuns       int64        // victim segments cleaned
	GCForced     int64        // cleans forced synchronously by writers
	GCCopied     int64        // pages copy-forwarded
	GCErases     int64        // segments erased by the cleaner
	GCErrors     int64        // background cleans aborted by device errors
	GCLastErr    string       // most recent aborting error ("" when none)
	GCMergeTime  sim.Duration // host time spent computing block validity
	GCTotalTime  sim.Duration // virtual time from victim selection to erase
	GCLastAt     sim.Time     // completion time of the most recent clean
	MapMemory    int64        // forward map bytes, as if fully resident (refreshed on Stats())
	WriteAmplify float64      // (user+gc programs)/user programs, refreshed on Stats()

	MapMemoryResident int64 // host RAM the map actually holds: resident pages + GTD (refreshed on Stats())
	MapCacheHits      int64 // translation pages served from the cache (paged mode)
	MapCacheMisses    int64 // translation pages faulted from flash (paged mode)
	MapCacheEvictions int64 // resident translation pages evicted (paged mode)
	MapPagesFlushed   int64 // dirty translation pages written back to the log (paged mode)

	Retries          int64 // NAND operations re-attempted by the retry policy
	MediaFailures    int64 // permanent media failures (each marks a segment suspect)
	SegmentsSuspect  int   // refreshed on Stats()
	SegmentsRetired  int   // refreshed on Stats()
	OutOfSpaceWrites int64 // writes shed with ErrOutOfSpace
	Degraded         bool  // write path currently shedding load, refreshed on Stats()

	TornPagesSkipped int64 // unparseable headers dropped during recovery scans

	// Batched data-path accounting. The reference path reports the same
	// numbers — what the batched path would have submitted — so the two
	// paths' Stats stay comparable field for field.
	BatchDescents  int64 // leaf descents charged for run operations
	BatchPages     int64 // pages submitted through batch NAND entry points
	BatchNandCalls int64 // batch NAND calls issued (one per run chunk)

	Checkpoints       int64  // checkpoints committed (anchor updated)
	CheckpointChunks  int64  // chunk pages programmed by committed checkpoints
	CheckpointErrors  int64  // checkpoint attempts aborted by device errors
	CheckpointLastErr string // most recent aborting error ("" when none)

	RecoveryTailBounded bool  // this FTL came up via the checkpoint fast path
	RecoveryFallbacks   int64 // tail-bounded attempts that fell back to a full scan
	RecoverySegsScanned int64 // segments whose OOB headers recovery scanned
	RecoveryHeaderPages int64 // header pages recovery scanned
}

// FTL is the vanilla log-structured translation layer: the shared log core
// plus a single validity bitmap and its cleaner. It is not safe for
// concurrent use (the whole simulation is single-threaded virtual time).
type FTL struct {
	logcore.Log

	cfg   Config
	dev   *nand.Device
	sched *sim.Scheduler

	fmap     *mapcache.Map
	validity *bitmap.Bitmap

	gcActive bool
	gcVictim int // segment a background gcTask currently owns (-1 = none)
	stats    Stats

	acct *gcAcct // incremental per-segment valid counters (gcacct.go)
}

// markValid sets a validity bit and keeps the per-segment counters exact.
// All validity transitions must go through markValid/markInvalid.
func (f *FTL) markValid(p int64) {
	if f.validity.Test(p) {
		return
	}
	f.validity.Set(p)
	f.acct.onSet(p)
}

// markInvalid clears a validity bit and keeps the per-segment counters exact.
func (f *FTL) markInvalid(p int64) {
	if !f.validity.Test(p) {
		return
	}
	f.validity.Clear(p)
	f.acct.onClear(p)
}

// shell builds an FTL over dev with an empty log and map; New formats it,
// recovery fills it in from a scan.
func shell(cfg Config, dev *nand.Device, sched *sim.Scheduler) *FTL {
	if sched == nil {
		sched = sim.NewScheduler()
	}
	f := &FTL{
		cfg:      cfg,
		dev:      dev,
		sched:    sched,
		validity: bitmap.New(cfg.Nand.TotalPages()),
		gcVictim: -1,
	}
	f.Init(cfg, dev, sched, f)
	f.fmap = f.NewMap()
	f.acct = newGCAcct(f)
	return f
}

// New formats a fresh device and returns an FTL over it. The scheduler is
// where the FTL queues its background cleaning; callers drive it via
// Scheduler().RunUntil(now) (the workload package does this automatically).
func New(cfg Config, sched *sim.Scheduler) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f := shell(cfg, nand.New(cfg.Nand), sched)
	f.Format()
	return f, nil
}

// Device exposes the underlying NAND (tests and experiments inspect it).
func (f *FTL) Device() *nand.Device { return f.dev }

// Scheduler returns the background-task scheduler this FTL enqueues on.
func (f *FTL) Scheduler() *sim.Scheduler { return f.sched }

// Config returns the FTL configuration.
func (f *FTL) Config() Config { return f.cfg }

// SectorSize implements blockdev.Device.
func (f *FTL) SectorSize() int { return f.cfg.Nand.SectorSize }

// Sectors implements blockdev.Device.
func (f *FTL) Sectors() int64 { return f.cfg.UserSectors }

// Stats returns a snapshot of the counters with derived fields refreshed.
func (f *FTL) Stats() Stats {
	s := f.stats
	c := f.Counters
	s.Retries, s.MediaFailures, s.OutOfSpaceWrites = c.Retries, c.MediaFailures, c.OutOfSpaceWrites
	s.BatchDescents, s.BatchPages, s.BatchNandCalls = c.BatchDescents, c.BatchPages, c.BatchNandCalls
	s.Checkpoints, s.CheckpointChunks = c.Checkpoints, c.CheckpointChunks
	s.CheckpointErrors, s.CheckpointLastErr = c.CheckpointErrors, c.CheckpointLastErr
	s.MapMemory = f.fmap.MemoryBytes()
	s.MapMemoryResident = f.fmap.ResidentBytes()
	if c := f.fmap.Paged(); c != nil {
		cs := c.Stats()
		s.MapCacheHits = cs.Hits
		s.MapCacheMisses = cs.Misses
		s.MapCacheEvictions = cs.Evictions
		s.MapPagesFlushed = cs.Flushed
	}
	if s.UserWrites > 0 {
		s.WriteAmplify = float64(s.UserWrites+s.GCCopied) / float64(s.UserWrites)
	}
	s.SegmentsSuspect, s.SegmentsRetired = f.dev.HealthCounts()
	s.Degraded = f.Degraded
	return s
}

// FreeSegments returns the size of the erased-segment pool.
func (f *FTL) FreeSegments() int { return len(f.FreeSegs) }

// MappedSectors returns how many LBAs currently have a translation.
func (f *FTL) MappedSectors() int { return f.fmap.Len() }

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

// SegmentOpened implements logcore.Policy: a new log-head segment joins the
// cleaner's accounting.
func (f *FTL) SegmentOpened(seg int) { f.acct.track(seg) }

// SegmentReleased implements logcore.Policy: an erased or retired segment
// leaves the cleaner's accounting.
func (f *FTL) SegmentReleased(seg int) { f.acct.untrack(seg) }

// HeadAdvanced implements logcore.Policy: a head advance arms the
// background cleaner and the periodic checkpoint.
func (f *FTL) HeadAdvanced(now sim.Time) {
	f.maybeScheduleGC(now)
	f.MaybeScheduleCheckpoint(now, f.fmap)
}

// MapFrozen implements logcore.Policy: the vanilla FTL never freezes.
func (f *FTL) MapFrozen() bool { return false }

// StartCheckpoint forces a background checkpoint now (tests and tools).
// It reports whether a task was scheduled.
func (f *FTL) StartCheckpoint(now sim.Time) bool { return f.Log.StartCheckpoint(now, f.fmap) }

// Close checkpoints the forward map to the log and marks the FTL closed.
// Recovery from a checkpoint requires the NAND to store payloads
// (nand.Config.StoreData); without it, recovery falls back to the full
// header scan.
//
// The log remains the source of truth: a failed checkpoint attempt is
// recorded in CheckpointErrors, leaves the previous anchor (if any)
// intact, and the close still proceeds — the next recovery simply falls
// back to the full scan, matching iosnap's Close semantics. The returned
// time includes the NAND/bus time consumed by a partial attempt.
func (f *FTL) Close(now sim.Time) (sim.Time, error) {
	if f.Closed {
		return now, ErrClosed
	}
	if !f.CkptActive {
		now, _ = f.WriteCheckpoint(now, f.fmap)
	}
	f.Closed = true
	return now, nil
}
