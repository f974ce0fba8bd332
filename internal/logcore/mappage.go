package logcore

import (
	"fmt"

	"iosnap/internal/ftlmap"
	"iosnap/internal/header"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Flash-resident paged mapping table (DESIGN.md §13). The active forward
// map is cut into translation pages (mapcache); this file is the log-side
// glue: charged foreground faults through the batched read path, CLOCK
// eviction with dirty write-back through the log head, and the pin
// bookkeeping that protects on-flash translation pages from the cleaner
// (they are never valid, exactly like checkpoint chunks).

// NewMap builds the active forward map per the configured
// layout: the legacy in-RAM tree, or the paged translation-page cache
// (bounded when MapCachePages > 0, unbounded — and therefore lockstep
// bit-exact with the tree — when negative).
func (l *Log) NewMap() *mapcache.Map {
	if l.cfg.MapCachePages == 0 {
		return mapcache.NewTree()
	}
	return mapcache.NewPaged(mapcache.SlotsFor(l.cfg.Nand.SectorSize), l.cfg.mapLimit(), l.mapFault())
}

// RecoveredMap builds the active forward map from recovery output:
// sorted entries (the full scan or a legacy full-map checkpoint) plus, in
// bounded-paged mode, an optional GTD from a paged checkpoint. GTD pages
// stay on flash and fault in lazily; entries become resident dirty pages
// (the cache may start over-limit — the first foreground op shrinks it).
func (l *Log) RecoveredMap(entries []ftlmap.Entry, gtd []mapcache.GTDEnt) *mapcache.Map {
	if l.cfg.MapCachePages == 0 {
		return mapcache.FromTree(ftlmap.BulkLoad(entries, 1.0))
	}
	m := mapcache.NewPaged(mapcache.SlotsFor(l.cfg.Nand.SectorSize), l.cfg.mapLimit(), l.mapFault())
	c := m.Paged()
	if len(gtd) > 0 {
		c.LoadGTD(gtd)
		for _, ent := range gtd {
			l.MapPins[nand.PageAddr(ent.Addr)] = ent.Idx
		}
	}
	c.LoadEntries(entries)
	return m
}

// mapFault serves host-side translation-page faults (invariant walks,
// background decodes): an untimed payload read straight off the device.
// Foreground faults never come here — they go through MapEnsure's charged
// batch read before the map operation runs.
func (l *Log) mapFault() mapcache.FaultFunc {
	return func(idx, addr uint64) ([]uint64, error) {
		payload, err := l.dev.PageData(nand.PageAddr(addr))
		if err != nil {
			return nil, err
		}
		gotIdx, slots, err := mapcache.DecodePage(payload)
		if err != nil {
			return nil, err
		}
		if gotIdx != idx {
			return nil, fmt.Errorf("log: translation page %d decoded as %d", idx, gotIdx)
		}
		return slots, nil
	}
}

// MapEnsure makes the translation pages covering [lba, lba+n) resident in
// m before a foreground operation, charging the fault reads to the
// operation's timeline, then evicts back down to the residency limit.
// Tree-mode and unbounded maps pass through untouched (no GTD entries ⇒
// no misses ⇒ no added virtual time).
func (l *Log) MapEnsure(now sim.Time, m *mapcache.Map, lba uint64, n int) (sim.Time, error) {
	c := m.Paged()
	if c == nil {
		return now, nil
	}
	l.ws.mapMiss = c.TouchRange(lba, n, l.ws.mapMiss[:0])
	now, err := l.mapFill(now, c, l.ws.mapMiss)
	if err != nil {
		return now, err
	}
	if !c.Bounded() {
		return now, nil
	}
	return l.mapShrink(now, c, c.PageOf(lba), c.PageOf(lba+uint64(n)-1))
}

// MapEnsureRange is MapEnsure for sparse spans (trims): only translation
// pages that exist are faulted, so a discard over a huge hole costs
// O(existing pages), not O(range).
func (l *Log) MapEnsureRange(now sim.Time, m *mapcache.Map, lo, hi uint64) (sim.Time, error) {
	c := m.Paged()
	if c == nil {
		return now, nil
	}
	loIdx, hiIdx := c.PageOf(lo), c.PageOf(hi-1)
	l.ws.mapMiss = c.MissingInRange(loIdx, hiIdx, l.ws.mapMiss[:0])
	now, err := l.mapFill(now, c, l.ws.mapMiss)
	if err != nil {
		return now, err
	}
	if !c.Bounded() {
		return now, nil
	}
	return l.mapShrink(now, c, loIdx, hiIdx)
}

// mapFill faults the missed translation pages with one charged batch read
// and installs the decoded slots.
func (l *Log) mapFill(now sim.Time, c *mapcache.Cache, miss []uint64) (sim.Time, error) {
	if len(miss) == 0 {
		return now, nil
	}
	addrs := l.ws.mapAddrs[:0]
	for _, idx := range miss {
		a, ok := c.AddrOf(idx)
		if !ok {
			panic(fmt.Sprintf("log: missed translation page %d has no flash address", idx))
		}
		addrs = append(addrs, nand.PageAddr(a))
	}
	l.ws.mapAddrs = addrs
	datas, _, k, done, err := l.DevReadPages(now, addrs)
	for i := 0; i < k; i++ {
		gotIdx, slots, derr := mapcache.DecodePage(datas[i])
		if derr != nil {
			return done, fmt.Errorf("log: translation page %d at %d: %w", miss[i], addrs[i], derr)
		}
		if gotIdx != miss[i] {
			return done, fmt.Errorf("log: translation page %d decoded as %d", miss[i], gotIdx)
		}
		c.Absorb(miss[i], slots)
	}
	if err != nil {
		return done, fmt.Errorf("log: faulting translation page %d: %w", miss[k], err)
	}
	return done, nil
}

// mapShrink evicts resident translation pages until the cache is back
// under its limit, skipping the pages the in-flight operation needs
// ([keepLo, keepHi]) and — while the device is frozen — dirty pages, since
// a freeze forbids programs. Eviction follows the CLOCK hand: emptied
// pages are dropped everywhere (their flash copy is unpinned and becomes
// garbage), dirty ones are flushed through the log head first. A failed
// flush stops shrinking (soft over-limit; the next operation retries).
func (l *Log) mapShrink(now sim.Time, c *mapcache.Cache, keepLo, keepHi uint64) (sim.Time, error) {
	for c.Resident() > c.Limit() {
		idx, ok := c.ClockVictim(func(idx uint64) bool {
			if idx >= keepLo && idx <= keepHi {
				return true
			}
			if l.pol.MapFrozen() {
				if dirty, _, _ := c.PageState(idx); dirty {
					return true
				}
			}
			return false
		})
		if !ok {
			return now, nil
		}
		dirty, live, _ := c.PageState(idx)
		if live == 0 {
			if prev, had := c.DropPage(idx); had {
				delete(l.MapPins, nand.PageAddr(prev))
			}
			continue
		}
		if dirty {
			var err error
			now, err = l.flushMapPage(now, c, idx)
			if err != nil {
				return now, nil
			}
		}
		c.DropResident(idx)
		c.NoteEviction()
	}
	return now, nil
}

// flushMapPage writes one dirty translation page through the log head:
// an ordinary log append under a TypeMapPage header (LBA = page index,
// epoch 0 — translation pages are never valid; the pin in MapPins is
// their only cleaning protection).
func (l *Log) flushMapPage(now sim.Time, c *mapcache.Cache, idx uint64) (sim.Time, error) {
	h := header.Header{Type: header.TypeMapPage, LBA: idx}
	addr, done, err := l.AppendPage(now, l.cfg.DataReserve(), h, func(seq uint64) []byte {
		return mapcache.EncodePage(idx, seq, c.Slots(idx), l.cfg.Nand.SectorSize)
	})
	if err != nil {
		return done, fmt.Errorf("log: writing translation page %d: %w", idx, err)
	}
	if prev, had := c.MarkFlushed(idx, uint64(addr)); had {
		delete(l.MapPins, nand.PageAddr(prev))
	}
	l.MapPins[addr] = idx
	c.NoteFlushed(1)
	return done, nil
}

// FlushAllMapPages writes back every dirty translation page (checkpoint
// prologue: the GTD a checkpoint serializes must reference current
// copies). It loops to convergence because a forced clean inside a flush
// can re-point mappings on already-flushed pages (the cleaner's fix-ups
// insert through the live map, re-dirtying them).
func (l *Log) FlushAllMapPages(now sim.Time, c *mapcache.Cache) (sim.Time, error) {
	for {
		dirty := c.DirtyPages()
		if len(dirty) == 0 {
			return now, nil
		}
		for _, idx := range dirty {
			var err error
			now, err = l.flushMapPage(now, c, idx)
			if err != nil {
				return now, err
			}
		}
	}
}
