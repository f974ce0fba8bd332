package main

import (
	"encoding/binary"
	"math"
	"sync"
)

// Every sector the benchmark writes carries a stamp: its LBA and the
// write's version in the first 16 bytes, and a pattern derived from both
// in the rest, so a misplaced, stale, or corrupted sector is detected.
// The prefill writes version 0 everywhere.

func patternWord(lba int64, ver uint64, i int) uint64 {
	z := uint64(lba)*0x9e3779b97f4a7c15 ^ ver*0xc2b2ae3d27d4eb4f ^ uint64(i)*0x165667b19e3779f9
	return z ^ z>>29
}

// fillSector stamps one sector.
func fillSector(dst []byte, lba int64, ver uint64) {
	binary.LittleEndian.PutUint64(dst, uint64(lba))
	binary.LittleEndian.PutUint64(dst[8:], ver)
	for i := 16; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], patternWord(lba, ver, i))
	}
}

// fillRun stamps len(dst)/ss consecutive sectors starting at lba.
func fillRun(dst []byte, ss int, lba int64, ver uint64) {
	for off := 0; off < len(dst); off += ss {
		fillSector(dst[off:off+ss], lba+int64(off/ss), ver)
	}
}

// readStamp returns the version stamped in src, or ok=false when the
// sector is not an intact stamp of lba.
func readStamp(src []byte, lba int64) (ver uint64, ok bool) {
	if len(src) < 16 || int64(binary.LittleEndian.Uint64(src)) != lba {
		return 0, false
	}
	ver = binary.LittleEndian.Uint64(src[8:])
	for i := 16; i+8 <= len(src); i += 8 {
		if binary.LittleEndian.Uint64(src[i:]) != patternWord(lba, ver, i) {
			return ver, false
		}
	}
	return ver, true
}

// pending marks a write with no acknowledgement: in flight, or failed (a
// failed write may or may not have landed).
const pending = math.MaxInt64

// histLen writes per sector are retained. A snapshot is read right after
// its create, so only the last few writes of a sector can straddle it.
const histLen = 4

type wentry struct {
	ver        uint64
	issue, ack int64
}

// model is the expected content of every sector: the last histLen writes
// with their issue and acknowledgement times (any monotonic clock; the
// serial rung uses op counts). The prefill is the write at time -1.
type model struct {
	locks [64]sync.Mutex // striped by LBA
	hist  [][histLen]wentry
	n     []uint32 // writes ever recorded per sector
}

func newModel(sectors int64) *model {
	m := &model{hist: make([][histLen]wentry, sectors), n: make([]uint32, sectors)}
	for i := range m.hist {
		m.hist[i][0] = wentry{ver: 0, issue: -1, ack: -1}
		m.n[i] = 1
	}
	return m
}

func (m *model) lock(lba int64) *sync.Mutex { return &m.locks[lba&63] }

// beginWrite records a write of n sectors at lba issued at t.
func (m *model) beginWrite(lba int64, n int, ver uint64, t int64) {
	for s := lba; s < lba+int64(n); s++ {
		mu := m.lock(s)
		mu.Lock()
		m.hist[s][m.n[s]%histLen] = wentry{ver: ver, issue: t, ack: pending}
		m.n[s]++
		mu.Unlock()
	}
}

// endWrite acknowledges a successful write at t. A failed write is left
// pending: either outcome stays acceptable until a later write succeeds.
func (m *model) endWrite(lba int64, n int, ver uint64, t int64) {
	for s := lba; s < lba+int64(n); s++ {
		mu := m.lock(s)
		mu.Lock()
		h := &m.hist[s]
		for i := range h {
			if h[i].ver == ver && h[i].ack == pending {
				h[i].ack = t
			}
		}
		mu.Unlock()
	}
}

// verdict of one sector check.
type verdict uint8

const (
	vOK         verdict = iota
	vMismatch           // wrong LBA, corrupted payload, or a version the model rules out
	vUnverified         // history too short to decide (counted, not failed)
)

// entries returns the retained writes of sector s oldest first, and
// whether older writes were dropped. Callers hold the sector's lock.
func (m *model) entries(s int64) (out [histLen]wentry, k int, dropped bool) {
	n := int(m.n[s])
	k = n
	if k > histLen {
		k = histLen
	}
	for i := 0; i < k; i++ {
		out[i] = m.hist[s][(n-k+i)%histLen]
	}
	return out, k, n > histLen
}

// checkLive verifies a live read of sector lba. The caller's slot owns
// the sector, so none of its writes is in flight: the newest acknowledged
// write is the answer, or any failed write issued after it.
func (m *model) checkLive(lba int64, got []byte) verdict {
	ver, ok := readStamp(got, lba)
	if !ok {
		return vMismatch
	}
	mu := m.lock(lba)
	mu.Lock()
	defer mu.Unlock()
	all, k, dropped := m.entries(lba)
	es := all[:k]
	last := -1
	for i, e := range es {
		if e.ack != pending {
			last = i
		}
	}
	if last < 0 && dropped {
		return vUnverified
	}
	if last < 0 {
		last = 0
	}
	for _, e := range es[last:] {
		if e.ver == ver {
			return vOK
		}
	}
	return vMismatch
}

// checkSnap verifies a snap-read of sector lba from a snapshot whose
// create was issued at cI and acknowledged at cA. The barrier fell
// somewhere in [cI, cA], so the answer is the newest write acknowledged
// before cI, or any write whose interval overlaps [cI, cA].
func (m *model) checkSnap(lba int64, got []byte, cI, cA int64) verdict {
	ver, ok := readStamp(got, lba)
	if !ok {
		return vMismatch
	}
	mu := m.lock(lba)
	mu.Lock()
	defer mu.Unlock()
	all, k, dropped := m.entries(lba)
	es := all[:k]
	stable := -1
	for i, e := range es {
		if e.ack < cI {
			stable = i
		}
	}
	if stable < 0 && dropped {
		return vUnverified
	}
	for i, e := range es {
		if (i == stable || e.issue < cA && e.ack >= cI) && e.ver == ver {
			return vOK
		}
	}
	return vMismatch
}
