package main

import "fmt"

// workload is one seeded traffic mix against the served volume. Every
// workload starts from the same state: a fresh 4-shard daemon whose user
// LBAs were each written once (prefill), shut down gracefully and
// remounted. Each foreground connection owns one half of the LBA space;
// within a connection each of the depth closed-loop slots owns every
// depth-th op-sized unit of that half, so no two in-flight ops ever touch
// the same sector and every read has exactly one right answer.
type workload struct {
	name    string
	fgConns int // foreground connections; connection c owns half c of the volume
	depth   int // closed-loop slots (in-flight ops) per foreground connection
	sectors int // sectors per read and write
	readPct int // percentage of foreground ops that are reads

	// Snapshot lifecycle on its own connection at depth 1: one create per
	// createEvery completed foreground writes, then burst snap-reads of the
	// newest snapshot, then delete the oldest while more than keepLive are
	// live. Workloads without it run probeCycles lifecycle cycles (create,
	// burst, delete) on the quiet volume after the measured window, so
	// every workload reports snapshot latencies.
	lifecycle   bool
	createEvery int
	burst       int
	keepLive    int
	probeCycles int

	about []string // printed with every result
}

var workloads = []*workload{
	{
		name: "oltp-4k", fgConns: 2, depth: 16, sectors: 1, readPct: 70,
		burst: 64, probeCycles: 64,
		about: []string{
			"mix: 70% read / 30% write, 1-sector ops, uniform over the full volume; closed loop, 2 connections x depth 16; fill 100%.",
			"why: fixed per-op costs dominate (srv framing, goroutine-per-request dispatch, shard submit); the FTL does little per op and GC runs steadily from the overwrites.",
			"predicts: srv.self_ns_per_op / srv.allocs_per_op move ops_per_s and read_p50_us; shard.self_ns_per_op / shard.allocs_per_op move ops_per_s and write_p50_us.",
			"snapshot latencies come from a 64-cycle probe (create, 64 snap-reads, delete) on the quiet volume after the window.",
		},
	},
	{
		name: "bulk-1m", fgConns: 2, depth: 2, sectors: 256, readPct: 50,
		burst: 64, probeCycles: 64,
		about: []string{
			"mix: 50% read / 50% write, aligned 256-sector (1 MiB) ops, uniform over the full volume; closed loop, 2 connections x depth 2; fill 100%.",
			"why: per-byte costs dominate (iosnap batched data path, nand payload copies, GC copy-forward); srv/shard per-op overhead is spread over 256 sectors.",
			"predicts: iosnap.ns_per_op / allocs / map_descents / nand_calls and nand.*_per_op move ops_per_s and virtual_mb_s; a srv/shard stack-tax cut leaves this workload unchanged.",
			"snapshot latencies come from a 64-cycle probe (create, 64 snap-reads, delete) on the quiet volume after the window.",
		},
	},
	{
		name: "snap-churn", fgConns: 1, depth: 16, sectors: 1, readPct: 70,
		lifecycle: true, createEvery: 256, burst: 16, keepLive: 4,
		about: []string{
			"mix: connection 1 runs the oltp-4k mix (70/30, 1 sector, depth 16) over its half; connection 2 runs the snapshot lifecycle at depth 1: create every 256 completed foreground writes (1 MiB), 16 1-sector snap-reads of the newest snapshot (uniform over the full volume), delete the oldest while more than 4 are live; fill 100%.",
			"why: same layers as oltp-4k used differently: the create barrier drains every shard queue, snap-reads hit srv's view cache, writes pay CoW bitmap copies under live epochs; an optimisation that speeds plain I/O but slows snapshots shows here.",
			"predicts: srv.view_cache_hit_rate / activations_per_snap_read move snap_read_p50_us; shard.barrier_us_p50 moves snap_create_p50_us and read_p99_us; iosnap.gc_* / cow_copies_per_snapshot / checkpoint_chunks move write_amp, write_p99_us and virtual_mb_s; iosnap.note_pages and free_segments_end move error_rate.",
			"known defect: snapshot notes are never reclaimed (2 pages per shard per create/delete cycle) and a partial create failure leaves per-shard snapshot IDs diverged, so churn on a full volume drives shards out of space; refused and failed ops count in error_rate and ok_rate instead of being steered around.",
			"not gated: BENCHMARK.json lists only oltp-4k and bulk-1m, because the failures this defect causes differ from run to run, so two sets of runs of the same code cannot agree; gate it again once the defect is fixed.",
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// rng is splitmix64: tiny, fast, and identical on every platform and Go
// release, so a seed names one op stream forever.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// newRNG derives an independent stream from the seed and a label.
func newRNG(seed int64, label string, a, b int) *rng {
	h := uint64(seed)*0x100000001b3 ^ 0xcbf29ce484222325
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	r := &rng{s: h ^ uint64(a)<<32 ^ uint64(b)}
	r.next()
	return r
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opSnapCreate
	opSnapRead
	opSnapDelete
	opVerify // post-restart read checked against the prefill
	opMount  // daemon start to first successful op
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "snap_create", "snap_read", "snap_delete", "verify", "mount"}

// op is one generated foreground request.
type op struct {
	kind opKind
	lba  int64
	ver  uint64 // stamp version for writes
}

// layout is the volume geometry the streams are generated against.
type layout struct {
	sectors    int64 // user sectors of the whole volume
	shards     int
	sectorSize int
}

// slotStream generates one closed-loop slot's ops. Slot k of connection c
// owns units u ≡ k (mod depth) of half c, where a unit is one op's
// sectors; its writes are stamped with versions unique to the slot.
type slotStream struct {
	wl     *workload
	r      *rng
	base   int64 // first LBA of the connection's half
	units  int64 // units owned by this slot
	slot   int64
	id     uint64 // global slot id, high bits of every version
	writes uint64
}

// fits reports whether the volume's halves split evenly into the
// workload's slots and op-sized units.
func (wl *workload) fits(lay layout) error {
	half := lay.sectors / 2
	if lay.sectors%2 != 0 || half%int64(wl.sectors) != 0 || half/int64(wl.sectors)%int64(wl.depth) != 0 {
		return fmt.Errorf("%s: a %d-sector half does not split into %d slots of %d-sector units", wl.name, half, wl.depth, wl.sectors)
	}
	return nil
}

func newSlotStream(wl *workload, lay layout, seed int64, conn, slot int) (*slotStream, error) {
	if err := wl.fits(lay); err != nil {
		return nil, err
	}
	half := lay.sectors / 2
	perConn := half / int64(wl.sectors)
	return &slotStream{
		wl:    wl,
		r:     newRNG(seed, wl.name, conn, slot),
		base:  int64(conn) * half,
		units: perConn / int64(wl.depth),
		slot:  int64(slot),
		id:    uint64(conn*wl.depth+slot) + 1,
	}, nil
}

func (s *slotStream) next() op {
	u := s.r.intn(s.units)*int64(s.wl.depth) + s.slot
	o := op{kind: opRead, lba: s.base + u*int64(s.wl.sectors)}
	if s.r.intn(100) >= int64(s.wl.readPct) {
		s.writes++
		o.kind = opWrite
		o.ver = s.id<<40 | s.writes
	}
	return o
}

// lbaStream draws LBAs uniform over the full volume: the lifecycle's
// snap-read targets and the post-restart verification sample.
type lbaStream struct {
	r       *rng
	sectors int64
}

func newLBAStream(seed int64, label string, sectors int64) *lbaStream {
	return &lbaStream{r: newRNG(seed, label, 0, 0), sectors: sectors}
}

func (s *lbaStream) next() int64 { return s.r.intn(s.sectors) }
