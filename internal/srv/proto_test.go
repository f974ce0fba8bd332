package srv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// frameBytes encodes a frame header announcing n body bytes, followed by
// body (which may be shorter than n).
func frameBytes(n uint32, body []byte) []byte {
	b := binary.BigEndian.AppendUint32(nil, n)
	return append(b, body...)
}

// TestReadFrameAllocationBoundedByArrivedBytes: a header announcing a
// near-maxFrame body, with no body behind it, must not make the reader
// allocate anywhere near maxFrame.
func TestReadFrameAllocationBoundedByArrivedBytes(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(frameBytes(maxFrame-1, nil)))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("bodiless frame: got %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > maxFrame/16 {
		t.Fatalf("bodiless %d-byte frame allocated %d bytes before any body arrived", maxFrame-1, got)
	}
}

// TestReadFrameLargeBodies: frames past the one-allocation limit still
// arrive intact, across several buffer doublings.
func TestReadFrameLargeBodies(t *testing.T) {
	for _, n := range []int{directFrame, directFrame + 1, 5*directFrame + 3} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte(i * 7)
		}
		got, err := readFrame(bytes.NewReader(frameBytes(uint32(n), body)))
		if err != nil {
			t.Fatalf("%d-byte frame: %v", n, err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("%d-byte frame corrupted", n)
		}
		// A truncated body is still reported as such.
		if _, err := readFrame(bytes.NewReader(frameBytes(uint32(n), body[:n/2]))); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncated %d-byte frame: got %v", n, err)
		}
	}
}

// TestReadFrameMiBAllocatesOnlyItsBody: a 1 MiB payload plus op header —
// the bulk data path's frame — costs one body-sized allocation, with no
// growth steps on top. (Bytes, not allocation counts, are asserted: the
// race detector randomly empties sync.Pools.)
func TestReadFrameMiBAllocatesOnlyItsBody(t *testing.T) {
	const n = 1<<20 + 64
	frame := frameBytes(n, make([]byte, n))
	rd := bytes.NewReader(frame)
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		rd.Reset(frame)
		if _, err := readFrame(rd); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// Slack covers the allocator's size-class rounding, not a second buffer.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > n+n/8 {
		t.Fatalf("1 MiB frame allocated %d bytes per read, want about %d", per, n)
	}
}
