package logcore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// fakePolicy is a minimal FTL: every page it wrote is garbage by the time
// the cleaner looks, so cleaning is just reclaiming the oldest non-head
// segment. It records every callback and fails the test on a segment
// opened twice or released while not open.
type fakePolicy struct {
	t        *testing.T
	l        *Log
	open     map[int]bool
	opens    map[int]int
	releases map[int]int
	advances int
	cleans   int
	frozen   bool
	chunks   []Chunk
}

func (p *fakePolicy) CleanOnce(now sim.Time, forced bool) (sim.Time, error) {
	for _, seg := range p.l.UsedSegs {
		if seg == p.l.HeadSeg {
			continue
		}
		p.cleans++
		done, _, err := p.l.ReclaimSegment(now, seg)
		return done, err
	}
	return now, ErrDeviceFull
}

func (p *fakePolicy) SegmentOpened(seg int) {
	if p.open[seg] {
		p.t.Fatalf("segment %d opened twice without a release", seg)
	}
	p.open[seg] = true
	p.opens[seg]++
}

func (p *fakePolicy) SegmentReleased(seg int) {
	if !p.open[seg] {
		p.t.Fatalf("segment %d released while not open", seg)
	}
	delete(p.open, seg)
	p.releases[seg]++
}

func (p *fakePolicy) HeadAdvanced(sim.Time) { p.advances++ }

func (p *fakePolicy) MapFrozen() bool { return p.frozen }

func (p *fakePolicy) SerializeCheckpoint() (uint64, []Chunk, error) {
	return p.l.Seq, p.chunks, nil
}

// testConfig is a tiny device: 8 segments of 4 pages, one rescue segment,
// no retries (so an injected device error is immediately permanent).
func testConfig() Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 64
	nc.PagesPerSegment = 4
	nc.Segments = 8
	nc.Channels = 2
	nc.StoreData = true
	cfg := DefaultConfig(nc)
	cfg.RescueReserve = 1
	cfg.Retry = retry.Policy{}
	return cfg
}

// newTestLog formats a log over a fresh device, with plan (if any) armed.
func newTestLog(t *testing.T, cfg Config, plan *faultinject.Plan) (*Log, *fakePolicy, *nand.Device) {
	t.Helper()
	dev := nand.New(cfg.Nand)
	if plan != nil {
		plan.Arm(dev)
	}
	l := &Log{}
	p := &fakePolicy{t: t, l: l, open: map[int]bool{}, opens: map[int]int{}, releases: map[int]int{}}
	l.Init(cfg, dev, sim.NewScheduler(), p)
	l.Format()
	return l, p, dev
}

// appendNote appends one metadata page whose payload is its sequence
// number.
func appendNote(l *Log, now sim.Time) (nand.PageAddr, sim.Time, error) {
	h := header.Header{Type: header.TypeSnapCreate}
	return l.AppendPage(now, l.cfg.DataReserve(), h, func(seq uint64) []byte {
		b := make([]byte, l.cfg.Nand.SectorSize)
		b[0] = byte(seq)
		return b
	})
}

// checkOpenSet verifies the open-callback bookkeeping matches the used list
// exactly: every used segment was opened once in its current life.
func checkOpenSet(t *testing.T, l *Log, p *fakePolicy) {
	t.Helper()
	if len(p.open) != len(l.UsedSegs) {
		t.Fatalf("%d segments open per callbacks, %d in the used list", len(p.open), len(l.UsedSegs))
	}
	for _, s := range l.UsedSegs {
		if !p.open[s] {
			t.Fatalf("used segment %d never got an open callback", s)
		}
	}
}

func TestHeadAdvanceAcrossSegmentBoundary(t *testing.T) {
	l, p, dev := newTestLog(t, testConfig(), nil)
	segs := append([]int{l.HeadSeg}, l.FreeSegs[:2]...) // the head's path
	now := sim.Time(0)
	var addrs []nand.PageAddr
	for i := 0; i < 10; i++ {
		a, done, err := appendNote(l, now)
		if err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, a)
		now = done
	}
	for i, a := range addrs {
		if want := dev.Addr(segs[i/4], i%4); a != want {
			t.Fatalf("page %d at %d, want %d", i, a, want)
		}
	}
	if l.HeadSeg != segs[2] || l.HeadIdx != 2 || fmt.Sprint(l.UsedSegs) != fmt.Sprint(segs) {
		t.Fatalf("head %d/%d, used %v, want used %v", l.HeadSeg, l.HeadIdx, l.UsedSegs, segs)
	}
	if p.advances != 2 || p.opens[segs[1]] != 1 || p.opens[segs[2]] != 1 {
		t.Fatalf("advances %d, opens %v", p.advances, p.opens)
	}
	// Every page ages its segment.
	for i, want := range []uint64{4, 8, 10} {
		if got := l.SegLastSeq[segs[i]]; got != want {
			t.Fatalf("segment %d aged to %d, want %d", segs[i], got, want)
		}
	}
	checkOpenSet(t, l, p)
}

func TestWriteRunSplitsAtSegmentBoundary(t *testing.T) {
	cfg := testConfig()
	l, _, dev := newTestLog(t, cfg, nil)
	m := l.NewMap()
	ss := cfg.Nand.SectorSize
	data := make([]byte, 6*ss)
	for i := range data {
		data[i] = byte(i / ss)
	}
	if _, _, err := appendNote(l, 0); err != nil { // head now at page 1
		t.Fatal(err)
	}
	var runs [][]nand.PageAddr
	written, now, err := l.WriteRun(0, m, 10, data, 7, func(lba0 uint64, addrs []nand.PageAddr) {
		runs = append(runs, append([]nand.PageAddr(nil), addrs...))
		l.InsertRun(m, lba0, addrs)
	})
	if err != nil || written != 6 {
		t.Fatalf("wrote %d: %v", written, err)
	}
	if len(runs) != 2 || len(runs[0]) != 3 || len(runs[1]) != 3 {
		t.Fatalf("chunks %v, want 3 pages per segment", runs)
	}
	if dev.SegmentOf(runs[1][0]) == dev.SegmentOf(runs[0][0]) {
		t.Fatalf("second chunk not on the next segment: %v", runs)
	}
	buf := make([]byte, 6*ss)
	if _, _, err := l.ReadRun(now, m, 10, 6, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("read back differs")
	}
	oob, _ := dev.PageOOB(runs[1][2])
	if h, _ := header.Unmarshal(oob); h.Epoch != 7 || h.LBA != 15 || h.Type != header.TypeData {
		t.Fatalf("last page header %+v", h)
	}
}

func TestUngetPageAfterFailedProgram(t *testing.T) {
	boom := errors.New("bus glitch")
	plan := faultinject.NewPlan(1, faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpProgram, Seg: faultinject.AnySeg, AfterN: 2, Err: boom})
	l, p, dev := newTestLog(t, testConfig(), plan)
	if _, _, err := appendNote(l, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := appendNote(l, 0); !errors.Is(err, boom) {
		t.Fatalf("second append: got %v, want the injected error", err)
	}
	if l.HeadSeg != 0 || l.HeadIdx != 1 {
		t.Fatalf("failed program not rolled back: head %d/%d", l.HeadSeg, l.HeadIdx)
	}
	// The reclaimed slot takes the next append; a sequential-program device
	// would reject anything else.
	a, _, err := appendNote(l, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != dev.Addr(0, 1) {
		t.Fatalf("retry landed at %d, want %d", a, dev.Addr(0, 1))
	}
	// Not a media failure: nothing suspected, the head stays.
	if l.Counters.MediaFailures != 0 || dev.SegmentHealth(0) != nand.Healthy || p.advances != 0 {
		t.Fatalf("non-media error treated as media failure: %+v", l.Counters)
	}
}

func TestSealHeadAndRetireUnderFaultinject(t *testing.T) {
	// Segment 7 is the first free segment, so the seal moves the head there.
	plan := faultinject.NewPlan(1,
		faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpProgram, Seg: 0, AfterN: 2},
		faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpErase, Seg: 7, AfterN: 1})
	l, p, dev := newTestLog(t, testConfig(), plan)
	if _, _, err := appendNote(l, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := appendNote(l, 0); !errors.Is(err, nand.ErrDeviceFailed) {
		t.Fatalf("got %v, want an injected device failure", err)
	}
	// A permanent failure suspects the segment and seals the head onto a
	// fresh one.
	if dev.SegmentHealth(0) != nand.Suspect || l.Counters.MediaFailures != 1 {
		t.Fatalf("segment 0 health %v, media failures %d", dev.SegmentHealth(0), l.Counters.MediaFailures)
	}
	if l.HeadSeg != 7 || l.HeadIdx != 0 || p.opens[7] != 1 {
		t.Fatalf("head not sealed onto segment 7: %d/%d", l.HeadSeg, l.HeadIdx)
	}
	// Sealing only opens: the sealed segment stays used until cleaned.
	if !l.InUse(0) || p.releases[0] != 0 {
		t.Fatal("sealed segment left service early")
	}

	// Reclaiming the suspect segment erases it, then retires it.
	if _, erased, err := l.ReclaimSegment(0, 0); err != nil || !erased {
		t.Fatalf("reclaim of suspect segment: erased=%v err=%v", erased, err)
	}
	if dev.SegmentHealth(0) != nand.Retired || l.InUse(0) || p.releases[0] != 1 {
		t.Fatalf("suspect segment not retired once: health %v, releases %d", dev.SegmentHealth(0), p.releases[0])
	}
	for _, s := range l.FreeSegs {
		if s == 0 {
			t.Fatal("retired segment back in the free pool")
		}
	}

	// A failing erase retires its victim directly.
	for l.HeadSeg == 7 {
		if _, _, err := appendNote(l, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, erased, err := l.ReclaimSegment(0, 7); err != nil || erased {
		t.Fatalf("reclaim with failing erase: erased=%v err=%v", erased, err)
	}
	if dev.SegmentHealth(7) != nand.Retired || p.releases[7] != 1 {
		t.Fatalf("segment 7 health %v, releases %d", dev.SegmentHealth(7), p.releases[7])
	}
	checkOpenSet(t, l, p)
}

func TestCallbacksExactlyOncePerSegmentLife(t *testing.T) {
	// Churn far past the device size: the fake cleaner reclaims segment
	// after segment, and a random fault plan fails some programs and
	// erases along the way, exercising seal, retire and reclaim.
	plan := faultinject.NewPlan(7,
		faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpProgram, Seg: faultinject.AnySeg, Prob: 0.02},
		faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpErase, Seg: faultinject.AnySeg, Prob: 0.1})
	l, p, dev := newTestLog(t, testConfig(), plan)
	now := sim.Time(0)
	for i := 0; i < 400; i++ {
		_, done, err := appendNote(l, now)
		if errors.Is(err, ErrOutOfSpace) {
			break // every segment but the reserve has been retired
		}
		if err != nil && !errors.Is(err, nand.ErrDeviceFailed) {
			t.Fatal(err)
		}
		now = done
		checkOpenSet(t, l, p)
	}
	retired := 0
	for s := 0; s < l.cfg.Nand.Segments; s++ {
		if dev.SegmentHealth(s) == nand.Retired {
			retired++
			if p.open[s] || l.InUse(s) {
				t.Fatalf("retired segment %d still open", s)
			}
		}
		if p.opens[s]-p.releases[s] != btoi(p.open[s]) {
			t.Fatalf("segment %d: %d opens, %d releases", s, p.opens[s], p.releases[s])
		}
	}
	if retired == 0 || p.cleans == 0 {
		t.Fatalf("workload too gentle: %d retired, %d cleans", retired, p.cleans)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestPinsFollowCopyForward(t *testing.T) {
	cfg := testConfig()
	l, p, dev := newTestLog(t, cfg, nil)
	ss := cfg.Nand.SectorSize
	p.chunks = []Chunk{
		{Type: header.TypeCheckpoint, Data: bytes.Repeat([]byte{1}, ss), Idx: 0, Total: 2},
		{Type: header.TypeCheckpoint, Data: bytes.Repeat([]byte{2}, ss), Idx: 1, Total: 2},
	}
	now, err := l.WriteCheckpoint(0, l.NewMap())
	if err != nil {
		t.Fatal(err)
	}
	if len(l.AnchorAddrs) != 2 || l.Counters.Checkpoints != 1 || l.PinnedInSeg(0) != 2 {
		t.Fatalf("anchor %v, counters %+v", l.AnchorAddrs, l.Counters)
	}
	// A translation page pinned alongside.
	mp, _, err := appendNote(l, now)
	if err != nil {
		t.Fatal(err)
	}
	l.MapPins[mp] = 9
	if l.PinnedInSeg(0) != 3 || !l.Pinned(mp) || !l.Pinned(l.AnchorAddrs[1]) {
		t.Fatal("pins not counted")
	}

	// Copy every pinned page of segment 0 forward, as a cleaner would.
	for l.HeadSeg == 0 {
		if _, _, err := appendNote(l, now); err != nil {
			t.Fatal(err)
		}
	}
	moved := map[nand.PageAddr]nand.PageAddr{}
	for i := 0; i < cfg.Nand.PagesPerSegment; i++ {
		old := dev.Addr(0, i)
		if !l.Pinned(old) {
			continue
		}
		dst, _, err := l.AllocPageGC(now)
		if err != nil {
			t.Fatal(err)
		}
		if now, err = l.DevCopyPage(now, old, dst); err != nil {
			t.Fatal(err)
		}
		oob, _ := dev.PageOOB(old)
		h, _ := header.Unmarshal(oob)
		if old == mp {
			h.Type = header.TypeMapPage // stand-in for a real translation page
		}
		l.MovePin(old, dst, h, nil)
		moved[old] = dst
	}
	if len(moved) != 3 || l.PinnedInSeg(0) != 0 {
		t.Fatalf("moved %d pins, %d left behind", len(moved), l.PinnedInSeg(0))
	}
	if idx, ok := l.MapPins[moved[mp]]; !ok || idx != 9 {
		t.Fatal("translation-page pin did not follow its page")
	}
	anchor := dev.Anchor()
	for i, a := range l.AnchorAddrs {
		if !l.CkptPins[a] || anchor.Addrs[i] != a || dev.SegmentOf(a) == 0 {
			t.Fatalf("anchor chunk %d at %d not republished after the move", i, a)
		}
	}
	if _, _, err := l.ReclaimSegment(now, 0); err != nil {
		t.Fatal(err)
	}
}
