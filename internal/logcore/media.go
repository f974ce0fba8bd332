package logcore

import (
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// The media-failure boundary: every NAND operation goes through a wrapper
// that retries transient errors under the configured policy and, when a
// failure proves permanent, marks the affected segment suspect so the
// cleaner (or a scrubber) rescues its data and retires it.

// MarkSuspect records a permanent media failure against seg.
func (l *Log) MarkSuspect(seg int) {
	if l.dev.SegmentHealth(seg) != nand.Healthy {
		return
	}
	l.dev.MarkSuspect(seg)
	l.Counters.MediaFailures++
}

// DevReadPage reads one page under the retry policy.
func (l *Log) DevReadPage(now sim.Time, addr nand.PageAddr) (data, oob []byte, done sim.Time, err error) {
	done, retries, err := l.cfg.Retry.Do(now, func(at sim.Time) (sim.Time, error) {
		var e error
		data, oob, at, e = l.dev.ReadPage(at, addr)
		return at, e
	})
	l.Counters.Retries += retries
	if err != nil && retry.MediaFailure(err) {
		l.MarkSuspect(l.dev.SegmentOf(addr))
	}
	return data, oob, done, err
}

// DevProgramPage programs one page under the retry policy.
func (l *Log) DevProgramPage(now sim.Time, addr nand.PageAddr, data, oob []byte) (sim.Time, error) {
	done, retries, err := l.cfg.Retry.Do(now, func(at sim.Time) (sim.Time, error) {
		return l.dev.ProgramPage(at, addr, data, oob)
	})
	l.Counters.Retries += retries
	if err != nil && retry.MediaFailure(err) {
		l.MarkSuspect(l.dev.SegmentOf(addr))
	}
	return done, err
}

// DevCopyPage attributes a permanent copy failure to the source segment:
// that is the segment the cleaner is trying to move data off, and suspecting
// it drives the rescue machinery toward the data most at risk. (A permanent
// destination failure resurfaces as a program failure on the head soon
// enough.)
func (l *Log) DevCopyPage(now sim.Time, from, to nand.PageAddr) (sim.Time, error) {
	done, retries, err := l.cfg.Retry.Do(now, func(at sim.Time) (sim.Time, error) {
		return l.dev.CopyPage(at, from, to)
	})
	l.Counters.Retries += retries
	if err != nil && retry.MediaFailure(err) {
		l.MarkSuspect(l.dev.SegmentOf(from))
	}
	return done, err
}

// DevEraseSegment erases one segment under the retry policy.
func (l *Log) DevEraseSegment(now sim.Time, seg int) (sim.Time, error) {
	done, retries, err := l.cfg.Retry.Do(now, func(at sim.Time) (sim.Time, error) {
		return l.dev.EraseSegment(at, seg)
	})
	l.Counters.Retries += retries
	if err != nil && retry.MediaFailure(err) {
		l.MarkSuspect(seg)
	}
	return done, err
}

// DevScanSegmentOOB reads every OOB header of one segment under the retry
// policy.
func (l *Log) DevScanSegmentOOB(now sim.Time, seg int) (oobs [][]byte, done sim.Time, err error) {
	done, retries, err := l.cfg.Retry.Do(now, func(at sim.Time) (sim.Time, error) {
		var e error
		oobs, at, e = l.dev.ScanSegmentOOB(at, seg)
		return at, e
	})
	l.Counters.Retries += retries
	if err != nil && retry.MediaFailure(err) {
		l.MarkSuspect(seg)
	}
	return oobs, done, err
}

// DevProgramPages is the batched data path's program boundary: one device
// call for the whole run. The batch call counts as each page's first
// attempt; when a page fails transiently, it alone re-enters the policy's
// backoff schedule (retry.DoFrom) and, once it lands, the remainder of the
// batch resumes at the recovered page's completion time. Returns how many
// pages landed, the completion time of the landed pages, and the first
// unrecovered error.
func (l *Log) DevProgramPages(now sim.Time, addrs []nand.PageAddr, datas, oobs [][]byte) (n int, done sim.Time, err error) {
	done = now
	at := now
	for n < len(addrs) {
		k, d, e := l.dev.ProgramPages(at, addrs[n:], datas[n:], oobs[n:])
		n += k
		if d > done {
			done = d
		}
		if e == nil {
			return n, done, nil
		}
		d2, retries, e2 := l.cfg.Retry.DoFrom(at, 1, e, func(t sim.Time) (sim.Time, error) {
			return l.dev.ProgramPage(t, addrs[n], datas[n], oobs[n])
		})
		l.Counters.Retries += retries
		if d2 > done {
			done = d2
		}
		if e2 != nil {
			if retry.MediaFailure(e2) {
				l.MarkSuspect(l.dev.SegmentOf(addrs[n]))
			}
			return n, done, e2
		}
		n++
		at = d2
	}
	return n, done, nil
}

// DevReadPages is the batched read boundary, with the same per-page retry
// continuation as DevProgramPages. Returned slices alias device memory and
// per-log scratch: they are valid until the next DevReadPages call, so
// callers that loop must copy out what they keep (slice headers suffice —
// the device page memory itself is stable).
func (l *Log) DevReadPages(now sim.Time, addrs []nand.PageAddr) (datas, oobs [][]byte, n int, done sim.Time, err error) {
	done = now
	at := now
	datas = l.ws.rdatas[:0]
	oobs = l.ws.roobs[:0]
	defer func() { l.ws.rdatas, l.ws.roobs = datas, oobs }()
	for n < len(addrs) {
		k, d, e := l.dev.ReadPagesInto(at, addrs[n:], &datas, &oobs)
		n += k
		if d > done {
			done = d
		}
		if e == nil {
			return datas, oobs, n, done, nil
		}
		var data, oob []byte
		d2, retries, e2 := l.cfg.Retry.DoFrom(at, 1, e, func(t sim.Time) (sim.Time, error) {
			var e3 error
			data, oob, t, e3 = l.dev.ReadPage(t, addrs[n])
			return t, e3
		})
		l.Counters.Retries += retries
		if d2 > done {
			done = d2
		}
		if e2 != nil {
			if retry.MediaFailure(e2) {
				l.MarkSuspect(l.dev.SegmentOf(addrs[n]))
			}
			return datas, oobs, n, done, e2
		}
		datas = append(datas, data)
		oobs = append(oobs, oob)
		n++
		at = d2
	}
	return datas, oobs, n, done, nil
}

// DevCopyPages is the cleaner's batched copy-forward boundary. Failure
// attribution matches DevCopyPage: the source segment is suspected.
func (l *Log) DevCopyPages(now sim.Time, froms, tos []nand.PageAddr) (n int, done sim.Time, err error) {
	done = now
	at := now
	for n < len(froms) {
		k, d, e := l.dev.CopyPages(at, froms[n:], tos[n:])
		n += k
		if d > done {
			done = d
		}
		if e == nil {
			return n, done, nil
		}
		d2, retries, e2 := l.cfg.Retry.DoFrom(at, 1, e, func(t sim.Time) (sim.Time, error) {
			return l.dev.CopyPage(t, froms[n], tos[n])
		})
		l.Counters.Retries += retries
		if d2 > done {
			done = d2
		}
		if e2 != nil {
			if retry.MediaFailure(e2) {
				l.MarkSuspect(l.dev.SegmentOf(froms[n]))
			}
			return n, done, e2
		}
		n++
		at = d2
	}
	return n, done, nil
}
