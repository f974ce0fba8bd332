package shard

import (
	"errors"
	"fmt"
	"sync"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// Service is the real-goroutine execution mode of the sharded front-end:
// one worker goroutine per shard owns that shard's FTL, scheduler, and
// virtual clock, and consumes a queue of request closures. Any number of
// client goroutines may submit concurrently; requests to different shards
// proceed in parallel, requests to the same shard serialize in queue
// order.
//
// Synchronization model. All shard state is touched only (a) by its
// worker goroutine or (b) by a caller holding the barrier write lock
// while every queue is provably empty. Ordinary operations hold the read
// lock: they enqueue closures and block on per-piece reply channels, so a
// client releases the read lock only after its pieces finished executing.
// The barrier (snapshot create, stats, close) takes the write lock, which
// it cannot acquire until every reader released — i.e. until every
// submitted closure has executed and replied. The worker's writes to
// shard state happen-before its reply send, which happens-before the
// client's read-lock release, which happens-before the barrier's
// write-lock acquire: direct FTL access under the write lock is
// race-free, and the race detector can follow that chain.
//
// Virtual time. Each worker keeps its own clock vnow: ops execute at
// vnow, which then advances to the op's completion. The clocks decouple —
// that is the point of sharding (an op on shard 3 does not wait for shard
// 5's clock) — and re-synchronize only at snapshot barriers, which
// advance every clock to the common freeze instant.
type Service struct {
	r  *serviceState
	mu sync.RWMutex
}

// serviceState is everything governed by the synchronization model above;
// keeping it behind one pointer makes the ownership rule auditable.
type serviceState struct {
	cfg    Config
	shards []*iosnap.FTL
	gov    *Governor
	queues []chan func()
	vnow   []sim.Time
	wg     sync.WaitGroup
	closed bool
}

// NewService builds fresh shards and starts one worker per shard.
func NewService(cfg Config) (*Service, error) {
	return newService(cfg, nil)
}

// NewServiceFrom recovers one FTL per already-loaded device and serves
// them as shards: devs[i] becomes shard i, crash-recovered under shard i's
// derived configuration. This is the storage server's mount path — the
// daemon loads each shard's image, recovers here, serves traffic, and
// saves the same devices back out at shutdown. Each shard's virtual clock
// starts at its recovery completion time.
func NewServiceFrom(cfg Config, devs []*nand.Device) (*Service, error) {
	if len(devs) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d devices for %d shards", len(devs), cfg.Shards)
	}
	return newService(cfg, devs)
}

func newService(cfg Config, devs []*nand.Device) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	in := &serviceState{cfg: cfg}
	var gate iosnap.GCGate
	if cfg.GCConcurrency > 0 {
		in.gov = NewGovernor(cfg.GCConcurrency)
		gate = in.gov
	}
	in.vnow = make([]sim.Time, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sc := cfg.shardConfig(i, gate)
		var f *iosnap.FTL
		var err error
		if devs == nil {
			f, err = iosnap.New(sc, nil)
		} else {
			f, in.vnow[i], err = iosnap.Recover(sc, devs[i], nil, 0)
		}
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		in.shards = append(in.shards, f)
		in.queues = append(in.queues, make(chan func(), 64))
	}
	s := &Service{r: in}
	for i := range in.queues {
		in.wg.Add(1)
		go func(q chan func()) {
			defer in.wg.Done()
			for fn := range q {
				fn()
			}
		}(in.queues[i])
	}
	return s, nil
}

// ConfigForDevices derives the service configuration whose per-shard split
// reproduces exactly the geometry of the given (identically-configured)
// devices — the inverse of shardConfig, used when mounting existing
// per-shard images. Contiguous partitioning is selected: shard boundaries
// must match what the images were written under, and contiguous is the
// layout the daemon initializes.
func ConfigForDevices(devs []*nand.Device) (Config, error) {
	if len(devs) == 0 {
		return Config{}, fmt.Errorf("shard: no devices")
	}
	nc := devs[0].Config()
	for i, d := range devs {
		if d.Config() != nc {
			return Config{}, fmt.Errorf("shard: device %d geometry differs from device 0", i)
		}
	}
	n := len(devs)
	per := iosnap.DefaultConfig(nc)
	base := per
	base.Nand.Segments = nc.Segments * n
	base.Nand.Channels = nc.Channels * n
	base.UserSectors = per.UserSectors * int64(n)
	base.ReserveSegments = per.ReserveSegments * n
	base.RescueReserve = per.RescueReserve * n
	return Config{Base: base, Shards: n}, nil
}

// LiveSnapshots returns the number of live snapshots (shard 0's count;
// cross-shard snapshot IDs are aligned by the create barrier). It takes
// the barrier lock, so it observes a quiescent point.
func (s *Service) LiveSnapshots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.shards[0].Tree().Live()
}

// MappedSectors sums the mapped-sector counts across shards at a quiescent
// point.
func (s *Service) MappedSectors() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, f := range s.r.shards {
		total += int64(f.MappedSectors())
	}
	return total
}

// Shards returns the number of shards.
func (s *Service) Shards() int { return len(s.r.shards) }

// SectorSize returns the logical sector size.
func (s *Service) SectorSize() int { return s.r.cfg.Base.Nand.SectorSize }

// Sectors returns the advertised capacity of the whole logical device.
func (s *Service) Sectors() int64 { return s.r.cfg.Base.UserSectors }

// Governor returns the global GC governor, or nil when GCConcurrency is 0.
func (s *Service) Governor() *Governor { return s.r.gov }

// shardOp is one piece of work bound for one shard's worker. The worker
// runs the shard's scheduler up to its clock, executes op at the clock,
// and advances the clock to the completion time.
type shardOp func(f *iosnap.FTL, now sim.Time) (sim.Time, error)

// submit enqueues op on shard i and returns the reply channel. The caller
// must hold s.mu.RLock for the whole submit/await span.
func (s *Service) submit(i int, op shardOp) chan error {
	in := s.r
	reply := make(chan error, 1)
	in.queues[i] <- func() {
		f := in.shards[i]
		f.Scheduler().RunUntil(in.vnow[i])
		done, err := op(f, in.vnow[i])
		if done > in.vnow[i] {
			in.vnow[i] = done
		}
		reply <- err
	}
	return reply
}

// await collects every piece's reply and returns the first error (all
// pieces are always awaited, so no reply leaks).
func await(replies []chan error) error {
	var first error
	for _, ch := range replies {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (s *Service) checkIO(lba, n int64) error {
	if n <= 0 || lba < 0 || lba+n > s.r.cfg.Base.UserSectors {
		return fmt.Errorf("shard: I/O out of range: lba %d n %d (capacity %d)", lba, n, s.r.cfg.Base.UserSectors)
	}
	return nil
}

// Write stores data at lba, fanning the pieces out to their shard workers
// and waiting for all of them.
func (s *Service) Write(lba int64, data []byte) error {
	ss := s.SectorSize()
	if len(data) == 0 || len(data)%ss != 0 {
		return fmt.Errorf("shard: write size %d not sector aligned", len(data))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.r.closed {
		return ErrClosed
	}
	n := int64(len(data) / ss)
	if err := s.checkIO(lba, n); err != nil {
		return err
	}
	exts := s.r.cfg.extents(lba, n, nil)
	replies := make([]chan error, 0, len(exts))
	for _, e := range exts {
		e := e
		replies = append(replies, s.submit(e.shard, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
			return f.Write(now, e.lba, data[e.off*int64(ss):(e.off+e.n)*int64(ss)])
		}))
	}
	return await(replies)
}

// Read fills buf from lba. Pieces target disjoint buf ranges, so the
// concurrent writes into buf do not race.
func (s *Service) Read(lba int64, buf []byte) error {
	ss := s.SectorSize()
	if len(buf) == 0 || len(buf)%ss != 0 {
		return fmt.Errorf("shard: read size %d not sector aligned", len(buf))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.r.closed {
		return ErrClosed
	}
	n := int64(len(buf) / ss)
	if err := s.checkIO(lba, n); err != nil {
		return err
	}
	exts := s.r.cfg.extents(lba, n, nil)
	replies := make([]chan error, 0, len(exts))
	for _, e := range exts {
		e := e
		replies = append(replies, s.submit(e.shard, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
			return f.Read(now, e.lba, buf[e.off*int64(ss):(e.off+e.n)*int64(ss)])
		}))
	}
	return await(replies)
}

// Trim invalidates [lba, lba+n).
func (s *Service) Trim(lba, n int64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.r.closed {
		return ErrClosed
	}
	if err := s.checkIO(lba, n); err != nil {
		return err
	}
	exts := s.r.cfg.extents(lba, n, nil)
	replies := make([]chan error, 0, len(exts))
	for _, e := range exts {
		e := e
		replies = append(replies, s.submit(e.shard, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
			return f.Trim(now, e.lba, e.n)
		}))
	}
	return await(replies)
}

// CreateSnapshot is the service-mode barrier: it takes the write lock
// (acquired only once every in-flight request has fully completed — see
// the synchronization model above), computes the consistent freeze
// instant across all shard clocks and devices, and logs the create note
// on every shard at that instant. All shard clocks advance to the
// barrier, re-synchronizing them.
func (s *Service) CreateSnapshot() (iosnap.SnapshotID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.r
	if in.closed {
		return 0, ErrClosed
	}
	tbar := sim.Time(0)
	for i, f := range in.shards {
		if in.vnow[i] > tbar {
			tbar = in.vnow[i]
		}
		if b := f.Device().BusyUntil(); b > tbar {
			tbar = b
		}
	}
	return barrierCreate(in.shards, tbar, in.vnow)
}

// DeleteSnapshot tombstones id on every shard (no barrier needed: deletes
// allocate nothing and commute with data ops).
func (s *Service) DeleteSnapshot(id iosnap.SnapshotID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.r.closed {
		return ErrClosed
	}
	replies := make([]chan error, 0, len(s.r.shards))
	for i := range s.r.shards {
		replies = append(replies, s.submit(i, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
			return f.DeleteSnapshot(now, id)
		}))
	}
	return await(replies)
}

// ServiceView is an activated snapshot spanning every shard; its I/O goes
// through the same worker queues as live I/O.
type ServiceView struct {
	s     *Service
	views []*iosnap.View
}

// ActivateSync activates snapshot id on every shard. The per-shard
// activations run on the workers (serializing with that shard's live
// I/O); a partial failure deactivates what was built.
func (s *Service) ActivateSync(id iosnap.SnapshotID, writable bool) (*ServiceView, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.r.closed {
		return nil, ErrClosed
	}
	views := make([]*iosnap.View, len(s.r.shards))
	replies := make([]chan error, 0, len(s.r.shards))
	for i := range s.r.shards {
		i := i
		replies = append(replies, s.submit(i, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
			v, done, err := f.ActivateSync(now, id, ratelimit.WorkSleep{}, writable)
			views[i] = v // worker-owned slot; published by the reply send
			return done, err
		}))
	}
	if err := await(replies); err != nil {
		for i, v := range views {
			if v == nil {
				continue
			}
			i, v := i, v
			<-s.submit(i, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
				return v.Deactivate(now)
			})
		}
		return nil, err
	}
	return &ServiceView{s: s, views: views}, nil
}

// Read fills buf from the snapshot image.
func (v *ServiceView) Read(lba int64, buf []byte) error {
	s := v.s
	ss := s.SectorSize()
	if len(buf) == 0 || len(buf)%ss != 0 {
		return fmt.Errorf("shard: read size %d not sector aligned", len(buf))
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.r.closed {
		return ErrClosed
	}
	n := int64(len(buf) / ss)
	if err := s.checkIO(lba, n); err != nil {
		return err
	}
	exts := s.r.cfg.extents(lba, n, nil)
	replies := make([]chan error, 0, len(exts))
	for _, e := range exts {
		e := e
		replies = append(replies, s.submit(e.shard, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
			return v.views[e.shard].Read(now, e.lba, buf[e.off*int64(ss):(e.off+e.n)*int64(ss)])
		}))
	}
	return await(replies)
}

// Deactivate releases the activation on every shard.
func (v *ServiceView) Deactivate() error {
	s := v.s
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.r.closed {
		return ErrClosed
	}
	replies := make([]chan error, 0, len(v.views))
	for i, pv := range v.views {
		pv := pv
		replies = append(replies, s.submit(i, func(f *iosnap.FTL, now sim.Time) (sim.Time, error) {
			return pv.Deactivate(now)
		}))
	}
	return await(replies)
}

// Summary is a single-barrier snapshot of everything a stats consumer
// wants: geometry, aggregate counts, and the per-shard counters plus
// virtual clocks (whose skew is the cross-shard load imbalance).
type Summary struct {
	Shards        int
	SectorSize    int
	Sectors       int64
	LiveSnapshots int
	MappedSectors int64
	PerShard      []iosnap.Stats
	Virtual       []sim.Time
}

// Summary collects the full statistics snapshot under one barrier, so all
// of its fields describe the same quiescent point (unlike calling
// LiveSnapshots, MappedSectors, and ShardStats back to back, which pays
// three barriers and lets I/O slip between them).
func (s *Service) Summary() Summary {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.r
	sum := Summary{
		Shards:        len(in.shards),
		SectorSize:    in.cfg.Base.Nand.SectorSize,
		Sectors:       in.cfg.Base.UserSectors,
		LiveSnapshots: in.shards[0].Tree().Live(),
		PerShard:      make([]iosnap.Stats, len(in.shards)),
		Virtual:       make([]sim.Time, len(in.shards)),
	}
	for i, f := range in.shards {
		sum.MappedSectors += int64(f.MappedSectors())
		sum.PerShard[i] = f.Stats()
		sum.Virtual[i] = in.vnow[i]
	}
	return sum
}

// ShardStats returns each shard's statistics plus its virtual clock. It
// takes the barrier lock, so it observes a quiescent point.
func (s *Service) ShardStats() ([]iosnap.Stats, []sim.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stats := make([]iosnap.Stats, len(s.r.shards))
	vnow := make([]sim.Time, len(s.r.shards))
	for i, f := range s.r.shards {
		stats[i] = f.Stats()
		vnow[i] = s.r.vnow[i]
	}
	return stats, vnow
}

// MaxVirtualTime returns the latest shard clock: the virtual makespan of
// everything executed so far.
func (s *Service) MaxVirtualTime() sim.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t sim.Time
	for _, v := range s.r.vnow {
		if v > t {
			t = v
		}
	}
	return t
}

// CheckInvariants sweeps every shard at a quiescent point.
func (s *Service) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for i, f := range s.r.shards {
		if err := f.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close stops the workers (draining their queues), drains each shard's
// scheduler, and closes each FTL at its final clock. Further calls on the
// service return ErrClosed.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	in := s.r
	if in.closed {
		return ErrClosed
	}
	in.closed = true
	for _, q := range in.queues {
		close(q)
	}
	in.wg.Wait()
	var errs []error
	for i, f := range in.shards {
		if d := f.Scheduler().Drain(in.vnow[i]); d > in.vnow[i] {
			in.vnow[i] = d
		}
		d, err := f.Close(in.vnow[i])
		if d > in.vnow[i] {
			in.vnow[i] = d
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}
