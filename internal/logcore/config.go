package logcore

import (
	"errors"
	"fmt"

	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// Errors the log core returns; both FTL packages re-export them.
var (
	// ErrDeviceFull reports that the cleaner found nothing reclaimable.
	ErrDeviceFull = errors.New("log: no reclaimable space")
	// ErrOutOfSpace is graceful degradation: new writes are shed because the
	// free pool is down to the rescue reserve and cleaning cannot refill it.
	// Reads, trims, and background cleaning keep running, and writes resume
	// automatically once reclaimed space lifts the pool above the reserve.
	ErrOutOfSpace = errors.New("log: out of space (degraded: writes shed, reads still served)")
)

// Config is the part of an FTL's configuration the log core consumes. Both
// ftl.Config and iosnap.Config embed it.
type Config struct {
	Nand nand.Config

	// UserSectors is the advertised logical capacity. It must leave
	// over-provisioning headroom below the physical capacity or the cleaner
	// cannot make progress; DefaultConfig leaves 1/8 plus the reserve.
	UserSectors int64

	// ReserveSegments triggers background cleaning when the free-segment
	// pool drops to this level.
	ReserveSegments int

	// GCWindow is the interval over which the cleaner paces the copy-forward
	// of one victim segment.
	GCWindow sim.Duration

	// GCChunk is the number of pages the cleaner copies per quantum (and
	// the number of checkpoint chunks programmed per background quantum).
	GCChunk int

	// VictimPolicy selects how the cleaner picks segments (§5.2.3: "the
	// segment to erase is chosen on the basis of ... invalid data ... and
	// the relative age of the blocks").
	VictimPolicy VictimPolicy

	// MapCPUCost models the host CPU cost of one forward-map descent on the
	// I/O path. A multi-sector request is charged once per *leaf* its run
	// spans in a maximally-packed tree (ftlmap.RunSpan), not once per
	// sector — the batched data path's cost model (DESIGN.md §10).
	MapCPUCost sim.Duration

	// MapCachePages selects the forward map's memory layout (DESIGN.md
	// §13). 0 (the default) keeps the in-RAM B+tree. Non-zero switches to
	// the flash-resident paged map: translation pages of
	// mapcache.SlotsFor(SectorSize) slots each, a RAM-pinned global
	// translation directory, and a CLOCK cache of resident pages. A
	// positive value bounds the cache to that many resident translation
	// pages — dirty pages write back through the log head on eviction and
	// the map's host footprint becomes O(cache + GTD) instead of O(map) —
	// and requires a data-storing device (Nand.StoreData). A negative
	// value runs the paged layout cache-unbounded: nothing is ever written
	// to flash, which keeps it lockstep bit-exact with the tree.
	MapCachePages int

	// ReferenceDataPath selects the per-sector reference implementation of
	// the data path: per-key map operations, per-bit validity flips, and
	// per-page device calls, all on the exact virtual-time skeleton the
	// batched path uses. It exists to pin the batched path's semantics (the
	// equivalence tests run every workload both ways and demand identical
	// device state, Stats, and completion times) and as the baseline the
	// data-path benchmarks compare against.
	ReferenceDataPath bool

	// MergeCPUPerBlock models the cleaner's host CPU cost to determine one
	// block's validity. The vanilla FTL consults a single bitmap; the
	// snapshot FTL pays this per epoch merged (Table 4's "validity merge").
	MergeCPUPerBlock sim.Duration

	// Retry bounds per-NAND-operation retries of transient media errors and
	// how virtual-time backoff grows between attempts. Errors that persist
	// past the budget are permanent: the segment is marked suspect and the
	// rescue machinery takes over. The zero value disables retrying.
	Retry retry.Policy

	// RescueReserve is the number of free segments the write path must leave
	// untouched: headroom that keeps the cleaner and segment rescue able to
	// make progress even when users have filled the device. Writes that
	// would dip into the reserve (and cannot force-clean their way out) are
	// shed with ErrOutOfSpace. 0 behaves like the historical floor of 1.
	RescueReserve int

	// CheckpointInterval arms periodic background checkpointing: once at
	// least this much virtual time has passed since the last checkpoint, the
	// next head advance starts a paced checkpoint task. 0 disables the
	// periodic mode (Close still writes a synchronous checkpoint). Periodic
	// checkpoints only run when the NAND stores payloads
	// (nand.Config.StoreData) — without payloads a checkpoint can never be
	// read back.
	CheckpointInterval sim.Duration

	// CheckpointLimit paces the background checkpoint task's chunk
	// programs (work/sleep) so serialization never stalls foreground
	// writes. The zero value is unlimited.
	CheckpointLimit ratelimit.WorkSleep
}

// DefaultConfig returns a config over the given NAND geometry with the
// calibrated defaults used throughout the experiments.
func DefaultConfig(nc nand.Config) Config {
	phys := nc.TotalPages()
	reserve := nc.Segments / 16
	if reserve < 2 {
		reserve = 2
	}
	user := phys * 7 / 8
	// Never advertise into the reserve segments.
	maxUser := int64(nc.Segments-reserve-1) * int64(nc.PagesPerSegment)
	if user > maxUser {
		user = maxUser
	}
	return Config{
		Nand:             nc,
		UserSectors:      user,
		ReserveSegments:  reserve,
		GCWindow:         10 * sim.Second,
		GCChunk:          32,
		MapCPUCost:       300 * sim.Nanosecond,
		MergeCPUPerBlock: 15 * sim.Nanosecond,
		Retry:            retry.Default(),
		RescueReserve:    2,
	}
}

// Validate checks the shared fields' consistency.
func (c Config) Validate() error {
	if err := c.Nand.Validate(); err != nil {
		return err
	}
	if c.UserSectors <= 0 || c.UserSectors >= c.Nand.TotalPages() {
		return fmt.Errorf("config: UserSectors %d must be positive and leave over-provisioning (physical %d)",
			c.UserSectors, c.Nand.TotalPages())
	}
	if c.ReserveSegments < 1 || c.ReserveSegments >= c.Nand.Segments {
		return fmt.Errorf("config: ReserveSegments %d out of range", c.ReserveSegments)
	}
	if c.GCChunk <= 0 {
		return fmt.Errorf("config: GCChunk %d must be positive", c.GCChunk)
	}
	if c.RescueReserve < 0 || c.RescueReserve >= c.Nand.Segments {
		return fmt.Errorf("config: RescueReserve %d out of range", c.RescueReserve)
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("config: CheckpointInterval must not be negative")
	}
	if c.MapCachePages > 0 && !c.Nand.StoreData {
		return fmt.Errorf("config: MapCachePages %d requires a data-storing device (translation pages live on flash)", c.MapCachePages)
	}
	return nil
}

// DataReserve is the free-segment floor user writes may not cross; the
// historical behaviour (keep one segment for the cleaner's copy
// destination) is the minimum.
func (c Config) DataReserve() int {
	if c.RescueReserve < 1 {
		return 1
	}
	return c.RescueReserve
}

// mapLimit converts MapCachePages to the cache's residency-limit parameter
// (<=0 = unbounded).
func (c Config) mapLimit() int {
	if c.MapCachePages < 0 {
		return 0
	}
	return c.MapCachePages
}
