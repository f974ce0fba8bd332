package logcore

// The foreground data path, built around batches. A multi-sector request is
// one *run*: the forward map is charged one MapCPUCost per leaf the run
// spans in a maximally-packed tree (ftlmap.RunSpan) instead of one per
// sector, translations move through the run operations (InsertRun /
// LookupRange / DeleteRange), and the NAND sees one batch call per log-head
// chunk instead of one call per sector. What a landed run does to validity
// is the FTL's business: WriteRun hands each landed chunk to a commit
// callback.
//
// Config.ReferenceDataPath selects the historical per-sector algorithms —
// per-key map operations and per-page device calls — on the *same*
// virtual-time skeleton: the same MapCPUCost charge, the same chunk
// boundaries, the same submit times, and the same counter increments. The
// two paths must therefore produce bit-identical device state, Stats, and
// completion times on any fault-free workload; the equivalence tests
// enforce exactly that.
//
// Partial failure is accounted honestly: when the device fails mid-run, the
// sectors that completed stay committed and the returned time reflects the
// work actually consumed.

import (
	"fmt"
	"sort"

	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// scratch holds the log's reusable buffers; the simulation is
// single-threaded, so one set suffices.
type scratch struct {
	addrs   []nand.PageAddr
	datas   [][]byte
	oobs    [][]byte
	oobBuf  []byte   // flat backing store for oobs: header.Len bytes per page
	rdatas  [][]byte // DevReadPages results, valid until its next call
	roobs   [][]byte
	entries []ftlmap.Entry
	prevs   []uint64
	vals    []uint64
	found   []bool
	secIdx  []int

	mapMiss  []uint64        // translation-page indices to fault (mappage.go)
	mapAddrs []nand.PageAddr // their flash addresses
}

// ChargeRun charges the map CPU for a run operation over n sectors: one
// MapCPUCost per leaf the run spans. It returns the charge.
func (l *Log) ChargeRun(n int) sim.Duration {
	span := ftlmap.RunSpan(n)
	l.Counters.BatchDescents += int64(span)
	return sim.Duration(span) * l.cfg.MapCPUCost
}

// ReadRun reads n sectors starting at lba through forward map m into buf.
// Unmapped sectors read as zeros. It returns the number of sectors
// completed (all of them unless the device failed mid-run), the completion
// time of the work performed, and the first error.
func (l *Log) ReadRun(now sim.Time, m *mapcache.Map, lba int64, n int, buf []byte) (completed int, done sim.Time, err error) {
	ss := l.cfg.Nand.SectorSize
	t := now.Add(l.ChargeRun(n))
	// Paged map: fault the run's translation pages in (charged) before the
	// map is consulted. Tree and unbounded-paged maps pass through untimed.
	if t, err = l.MapEnsure(t, m, uint64(lba), n); err != nil {
		return 0, t, err
	}
	done = t

	// Resolve the run's translations; unmapped sectors read as zeros.
	addrs := l.ws.addrs[:0]
	secIdx := l.ws.secIdx[:0]
	if l.cfg.ReferenceDataPath {
		for i := 0; i < n; i++ {
			if a, ok := m.Lookup(uint64(lba) + uint64(i)); ok {
				addrs = append(addrs, nand.PageAddr(a))
				secIdx = append(secIdx, i)
			} else {
				clear(buf[i*ss : (i+1)*ss])
			}
		}
	} else {
		vals, found := l.lookupScratch(n)
		m.LookupRange(uint64(lba), vals, found)
		for i := 0; i < n; i++ {
			if found[i] {
				addrs = append(addrs, nand.PageAddr(vals[i]))
				secIdx = append(secIdx, i)
				found[i] = false // leave the scratch all-false for reuse
			} else {
				clear(buf[i*ss : (i+1)*ss])
			}
		}
	}
	l.ws.addrs, l.ws.secIdx = addrs, secIdx
	if len(addrs) == 0 {
		return n, done, nil
	}
	l.Counters.BatchPages += int64(len(addrs))
	l.Counters.BatchNandCalls++

	if l.cfg.ReferenceDataPath {
		for j, a := range addrs {
			data, _, d, err := l.DevReadPage(t, a)
			if err != nil {
				return secIdx[j], done, fmt.Errorf("log: reading LBA %d: %w", lba+int64(secIdx[j]), err)
			}
			copy(buf[secIdx[j]*ss:(secIdx[j]+1)*ss], data) // nil data (fingerprint mode) leaves buf as-is
			if d > done {
				done = d
			}
		}
		return n, done, nil
	}
	datas, _, k, d, err := l.DevReadPages(t, addrs)
	for j := 0; j < k; j++ {
		copy(buf[secIdx[j]*ss:(secIdx[j]+1)*ss], datas[j])
	}
	if d > done {
		done = d
	}
	if err != nil {
		return secIdx[k], done, fmt.Errorf("log: reading LBA %d: %w", lba+int64(secIdx[k]), err)
	}
	return n, done, nil
}

// lookupScratch returns the reusable LookupRange buffers, grown to n and
// with found all-false (ReadRun resets the bits it sets).
func (l *Log) lookupScratch(n int) ([]uint64, []bool) {
	if cap(l.ws.vals) < n {
		l.ws.vals = make([]uint64, n)
		l.ws.found = make([]bool, n)
	}
	return l.ws.vals[:n], l.ws.found[:n]
}

// WriteRun appends len(data)/SectorSize sectors for LBAs starting at lba
// at the log head — Remap-on-Write — in per-segment chunks, each page
// headed as a data block of the given epoch (0 for the vanilla FTL). After
// each chunk's program, commit receives the pages that landed (addrs[j]
// now backs lba0+j; never empty) and installs them in the FTL's map and
// validity. It returns the number of sectors written, the completion time,
// and the first error; sectors that landed before a mid-run failure stay
// committed.
func (l *Log) WriteRun(now sim.Time, m *mapcache.Map, lba int64, data []byte, epoch uint64,
	commit func(lba0 uint64, addrs []nand.PageAddr)) (written int, done sim.Time, err error) {
	ss := l.cfg.Nand.SectorSize
	n := len(data) / ss
	at := now.Add(l.ChargeRun(n))
	if at, err = l.MapEnsure(at, m, uint64(lba), n); err != nil {
		return 0, at, err
	}
	done = at
	var firstErr error
	for written < n && firstErr == nil {
		// The first page of each chunk goes through AllocPage so head
		// advancement (forced cleaning, degradation, background-task
		// scheduling) behaves exactly as before; the rest of the chunk
		// fills the head segment contiguously.
		addr0, at2, err := l.AllocPage(at)
		if err != nil {
			firstErr = err
			break
		}
		at = at2
		if at > done {
			done = at
		}
		chunk := n - written
		if room := l.cfg.Nand.PagesPerSegment - l.HeadIdx + 1; chunk > room {
			chunk = room
		}
		addrs := append(l.ws.addrs[:0], addr0)
		for j := 1; j < chunk; j++ {
			addrs = append(addrs, l.dev.Addr(l.HeadSeg, l.HeadIdx))
			l.HeadIdx++
		}
		seqBase := l.Seq
		datas, oobs := l.ws.datas[:0], l.ws.oobs[:0]
		if l.cfg.ReferenceDataPath {
			// Historical host-cost profile: one fresh header buffer per page.
			for j := 0; j < chunk; j++ {
				datas = append(datas, data[(written+j)*ss:(written+j+1)*ss])
				h := header.Header{Type: header.TypeData, LBA: uint64(lba) + uint64(written+j), Epoch: epoch, Seq: seqBase + uint64(j) + 1}
				oobs = append(oobs, h.Marshal())
			}
		} else {
			if need := chunk * header.Len; cap(l.ws.oobBuf) < need {
				l.ws.oobBuf = make([]byte, need)
			}
			for j := 0; j < chunk; j++ {
				datas = append(datas, data[(written+j)*ss:(written+j+1)*ss])
				h := header.Header{Type: header.TypeData, LBA: uint64(lba) + uint64(written+j), Epoch: epoch, Seq: seqBase + uint64(j) + 1}
				oob := l.ws.oobBuf[j*header.Len : (j+1)*header.Len]
				h.MarshalInto(oob)
				oobs = append(oobs, oob)
			}
		}
		l.Seq += uint64(chunk)
		l.ws.addrs, l.ws.datas, l.ws.oobs = addrs, datas, oobs
		l.Counters.BatchPages += int64(chunk)
		l.Counters.BatchNandCalls++

		var k int
		var d sim.Time
		if l.cfg.ReferenceDataPath {
			d = at
			for k = 0; k < chunk; k++ {
				pd, e := l.DevProgramPage(at, addrs[k], datas[k], oobs[k])
				if pd > d {
					d = pd
				}
				if e != nil {
					err = e
					break
				}
			}
		} else {
			k, d, err = l.DevProgramPages(at, addrs, datas, oobs)
		}
		if d > done {
			done = d
		}
		if k > 0 {
			l.SegLastSeq[l.dev.SegmentOf(addrs[0])] = seqBase + uint64(k)
		}
		if err != nil {
			// Pages past the failing one were never attempted: they hand
			// back their sequence numbers and log-head slots. The failing
			// page keeps its consumed seq (as the per-sector path always
			// did) and is reclaimed by UngetPage unless it landed after all.
			l.Seq -= uint64(chunk - k - 1)
			l.HeadIdx -= chunk - k - 1
			l.UngetPage(addrs[k])
			if retry.MediaFailure(err) {
				l.SealHead() // move future appends off the failing segment
			}
			firstErr = fmt.Errorf("log: programming LBA %d: %w", lba+int64(written+k), err)
		}
		if k > 0 {
			commit(uint64(lba)+uint64(written), addrs[:k])
		}
		written += k
	}
	return written, done, firstErr
}

// InsertRun maps lba0+j to addrs[j] in m with one run operation and
// returns the physical pages the run displaced. The slice is scratch,
// valid until the next InsertRun or DeleteRange.
func (l *Log) InsertRun(m *mapcache.Map, lba0 uint64, addrs []nand.PageAddr) []uint64 {
	entries := l.ws.entries[:0]
	for j, a := range addrs {
		entries = append(entries, ftlmap.Entry{Key: lba0 + uint64(j), Val: uint64(a)})
	}
	l.ws.entries = entries
	l.ws.prevs = l.ws.prevs[:0]
	m.InsertRun(entries, func(_ int, prev uint64) {
		l.ws.prevs = append(l.ws.prevs, prev)
	})
	return l.ws.prevs
}

// DeleteRange drops m's translations for [lo, hi) and returns the physical
// pages they named. The slice is scratch, valid until the next InsertRun
// or DeleteRange.
func (l *Log) DeleteRange(m *mapcache.Map, lo, hi uint64) []uint64 {
	l.ws.prevs = l.ws.prevs[:0]
	m.DeleteRange(lo, hi, func(_, prev uint64) {
		l.ws.prevs = append(l.ws.prevs, prev)
	})
	return l.ws.prevs
}

// SegmentRuns sorts pages in place and calls fn once per maximal run of
// consecutive pages [lo, hi), splitting runs at segment boundaries so each
// call stays within one segment's accounting.
func (l *Log) SegmentRuns(pages []uint64, fn func(lo, hi int64)) {
	if len(pages) == 0 {
		return
	}
	sorted := true
	for i := 1; i < len(pages); i++ {
		if pages[i] < pages[i-1] {
			sorted = false
			break
		}
	}
	if !sorted { // sequential overwrites displace already-ascending runs
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	}
	pps := int64(l.cfg.Nand.PagesPerSegment)
	for i := 0; i < len(pages); {
		lo := int64(pages[i])
		hi := lo + 1
		segEnd := (lo/pps + 1) * pps
		j := i + 1
		for j < len(pages) && int64(pages[j]) == hi && hi < segEnd {
			hi++
			j++
		}
		fn(lo, hi)
		i = j
	}
}
