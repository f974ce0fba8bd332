package main

import (
	"testing"
)

var testLayout = layout{sectors: 57344, shards: 4, sectorSize: 4096}

func drawSlot(t *testing.T, wl *workload, seed int64, conn, slot, n int) []op {
	t.Helper()
	s, err := newSlotStream(wl, testLayout, seed, conn, slot)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]op, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

func TestSameSeedSameOpStream(t *testing.T) {
	for _, wl := range workloads {
		for slot := 0; slot < wl.depth; slot++ {
			a := drawSlot(t, wl, 7, wl.fgConns-1, slot, 500)
			b := drawSlot(t, wl, 7, wl.fgConns-1, slot, 500)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s slot %d op %d: %+v vs %+v under one seed", wl.name, slot, i, a[i], b[i])
				}
			}
		}
		a, b := drawSlot(t, wl, 7, 0, 0, 200), drawSlot(t, wl, 8, 0, 0, 200)
		same := 0
		for i := range a {
			if a[i] == b[i] {
				same++
			}
		}
		if same == len(a) {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", wl.name)
		}
		x, y := newLBAStream(7, wl.name+"/snap", testLayout.sectors), newLBAStream(7, wl.name+"/snap", testLayout.sectors)
		for i := 0; i < 500; i++ {
			if p, q := x.next(), y.next(); p != q {
				t.Fatalf("%s snap-read stream differs at %d: %d vs %d", wl.name, i, p, q)
			}
		}
	}
}

// TestSlotsOwnDisjointUnits checks the property verification relies on:
// no two slots ever touch the same sector, every op stays in its
// connection's half, and ops are aligned to their size.
func TestSlotsOwnDisjointUnits(t *testing.T) {
	for _, wl := range workloads {
		owner := map[int64]int{}
		half := testLayout.sectors / 2
		for c := 0; c < wl.fgConns; c++ {
			for s := 0; s < wl.depth; s++ {
				for _, o := range drawSlot(t, wl, 3, c, s, 2000) {
					if o.lba < int64(c)*half || o.lba+int64(wl.sectors) > int64(c+1)*half || o.lba%int64(wl.sectors) != 0 {
						t.Fatalf("%s conn %d slot %d: op at %d outside its half or unaligned", wl.name, c, s, o.lba)
					}
					id := c*wl.depth + s
					if prev, ok := owner[o.lba]; ok && prev != id {
						t.Fatalf("%s: LBA %d used by slots %d and %d", wl.name, o.lba, prev, id)
					}
					owner[o.lba] = id
				}
			}
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		got  float64
	}{
		{100000, 99.9, 99.9}, // 100 beyond
		{10000, 99.9, 99.9},  // exactly 10 beyond
		{9999, 99.9, 99},     // 9.999 beyond p99.9: step down
		{1000, 99, 99},       // exactly 10 beyond
		{999, 99, 95},
		{200, 99, 95},
		{199, 99, 90},
		{100, 99, 90},
		{40, 99, 75},
		{20, 99, 50},
		{19, 99, 0},
		{100000, 50, 50}, // never above the percentile asked for
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, c.want); got != c.got {
			t.Errorf("tailPercentile(%d, %g) = %g, want %g", c.n, c.want, got, c.got)
		}
	}
	// The reported tail leaves at least 10 samples strictly beyond it.
	ns := make([]int64, 1000)
	for i := range ns {
		ns[i] = int64(i+1) * 1000
	}
	l := summarize(ns, 99)
	beyond := 0
	for _, x := range ns {
		if float64(x)/1e3 > l.tail {
			beyond++
		}
	}
	if l.tailPct != 99 || beyond < minBeyond || l.p50 != 500 {
		t.Errorf("summarize: tail p%g = %g with %d beyond, p50 %g", l.tailPct, l.tail, beyond, l.p50)
	}
}

func sector(lba int64, ver uint64) []byte {
	b := make([]byte, testLayout.sectorSize)
	fillSector(b, lba, ver)
	return b
}

func TestVerifierFlagsCorruptPayload(t *testing.T) {
	m := newModel(16)
	if v := m.checkLive(3, sector(3, 0)); v != vOK {
		t.Fatalf("prefill read: verdict %d", v)
	}
	m.beginWrite(3, 1, 42, 10)
	m.endWrite(3, 1, 42, 20)
	good := sector(3, 42)
	if v := m.checkLive(3, good); v != vOK {
		t.Fatalf("read of the acknowledged write: verdict %d", v)
	}
	if v := m.checkLive(3, sector(3, 0)); v != vMismatch {
		t.Errorf("stale read accepted")
	}
	if v := m.checkLive(3, sector(4, 42)); v != vMismatch {
		t.Errorf("sector of another LBA accepted")
	}
	bad := append([]byte(nil), good...)
	bad[2000] ^= 1
	if v := m.checkLive(3, bad); v != vMismatch {
		t.Errorf("corrupted payload accepted")
	}
	// One bad sector fails a whole multi-sector read.
	d := &driver{lay: testLayout}
	m.beginWrite(4, 1, 43, 30)
	m.endWrite(4, 1, 43, 40)
	run := append(append([]byte(nil), good...), sector(4, 43)...)
	if v := d.checkRun(run, 3, 2, m.checkLive); v != vOK {
		t.Errorf("intact 2-sector read: verdict %d", v)
	}
	run[testLayout.sectorSize+100] ^= 0xff
	if v := d.checkRun(run, 3, 2, m.checkLive); v != vMismatch {
		t.Errorf("2-sector read with one corrupted sector accepted")
	}
}

func TestVerifierFlagsWrongSnapshotVersion(t *testing.T) {
	m := newModel(16)
	// Writes of LBA 5: v1 acknowledged before the create, v2 in flight
	// across it, v3 issued after it completed.
	m.beginWrite(5, 1, 1, 10)
	m.endWrite(5, 1, 1, 20)
	m.beginWrite(5, 1, 2, 25)
	m.endWrite(5, 1, 2, 35)
	m.beginWrite(5, 1, 3, 50)
	m.endWrite(5, 1, 3, 60)
	cI, cA := int64(30), int64(40)
	for ver, want := range map[uint64]verdict{0: vMismatch, 1: vOK, 2: vOK, 3: vMismatch} {
		if v := m.checkSnap(5, sector(5, ver), cI, cA); v != want {
			t.Errorf("snapshot read of version %d: verdict %d, want %d", ver, v, want)
		}
	}
	// A sector never written since the prefill reads the prefill.
	if v := m.checkSnap(6, sector(6, 0), cI, cA); v != vOK {
		t.Errorf("prefill sector in snapshot: verdict %d", v)
	}
	if v := m.checkSnap(6, sector(6, 1), cI, cA); v != vMismatch {
		t.Errorf("unwritten sector with a foreign version accepted")
	}
	// The serial rung issues and acknowledges each op at the tick it runs,
	// and a create's barrier is its own tick: the write on the tick just
	// before the create is in the snapshot, and its predecessor is not.
	const create = 102
	for i, tick := range []int64{create - 2, create - 1, create + 1} {
		m.beginWrite(8, 1, uint64(i+1), tick)
		m.endWrite(8, 1, uint64(i+1), tick)
	}
	for ver, want := range map[uint64]verdict{0: vMismatch, 1: vMismatch, 2: vOK, 3: vMismatch} {
		if v := m.checkSnap(8, sector(8, ver), create, create); v != want {
			t.Errorf("serial snapshot read of version %d: verdict %d, want %d", ver, v, want)
		}
	}
	// A failed write may or may not have landed: both outcomes pass until
	// a later write succeeds.
	m.beginWrite(7, 1, 9, 70)
	if v := m.checkLive(7, sector(7, 9)); v != vOK {
		t.Errorf("failed write's version rejected")
	}
	if v := m.checkLive(7, sector(7, 0)); v != vOK {
		t.Errorf("failed write's predecessor rejected")
	}
}
