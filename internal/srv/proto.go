// Package srv is the storage-service front-end: a long-running TCP block
// server that multiplexes many client connections onto one shard.Service,
// plus the matching client. Since wire protocol v2 a connection is a
// *pipeline*: requests carry a 32-bit tag, the server dispatches each
// tagged request on its own goroutine (bounded by a per-connection
// window), and responses return in completion order — so independent
// operations land on different shards concurrently instead of paying one
// round-trip each. Version 1 (one untagged request/response pair at a
// time) remains fully supported for old clients, and a v2 client degrades
// to v1 automatically when the server does not understand the hello.
package srv

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"sync"
)

// Wire format. Every frame, in both directions, is
//
//	[u32 big-endian length][payload of exactly that many bytes]
//
// Protocol v1: a request payload is [u8 op][op-specific body]; a response
// payload is [u8 status][body], where status 0 is success (body is the
// op's result) and status 1 is an error (body is the error text). The
// connection carries one request/response pair at a time.
//
// Protocol v2 is negotiated by a hello exchange in v1 framing: the
// client's first frame is [opHello]["iosnapv2"][u32 maxVersion][u32
// wantWindow]; a v2 server answers [statusOK][u32 version][u32 window]
// and the connection switches to tagged framing, where a request payload
// is [u32 tag][u8 op][body] and a response payload is [u32 tag][u8
// status][body]. Tags are chosen by the client; the server answers each
// tag exactly once, in completion order (NOT submission order — that is
// the point), and at most `window` requests may be in flight. A v1 server
// answers the hello with an in-band statusErr ("unknown op"), which a v2
// client takes as the signal to fall back to serial v1 operation.
//
// Op bodies (all integers big-endian):
//
//	ping        ->                               <- (empty)
//	read        -> u64 lba, u32 sectors          <- data
//	write       -> u64 lba, data                 <- (empty)
//	trim        -> u64 lba, u64 sectors          <- (empty)
//	snapCreate  ->                               <- u64 id
//	snapDelete  -> u64 id                        <- (empty)
//	snapRead    -> u64 id, u64 lba, u32 sectors  <- data
//	stats       ->                               <- JSON ServerStats
//	shutdown    ->                               <- (empty; server stops)
//	hello       -> magic, u32 ver, u32 window    <- u32 ver, u32 window
const (
	opPing       byte = 1
	opRead       byte = 2
	opWrite      byte = 3
	opTrim       byte = 4
	opSnapCreate byte = 5
	opSnapDelete byte = 6
	opSnapRead   byte = 7
	opStats      byte = 8
	opShutdown   byte = 9
	opHello      byte = 10
)

const (
	statusOK  byte = 0
	statusErr byte = 1
)

// protoVersion2 is the highest protocol version this package speaks.
const protoVersion2 = 2

// helloMagic guards against mistaking a v1 request that happens to start
// with byte 10 for a negotiation attempt (no v1 op uses 10, but a hostile
// peer could).
const helloMagic = "iosnapv2"

// defaultWindow bounds in-flight requests per v2 connection when neither
// side asks for a specific window.
const defaultWindow = 128

// maxFrame bounds a single frame. It caps request sizes (a hostile or
// buggy peer cannot make the server allocate gigabytes) and therefore the
// largest single read/write a client may issue.
const maxFrame = 1 << 26 // 64 MiB

// maxBody is the largest op result that fits a response frame in either
// protocol version (v2 spends 4 tag bytes + 1 status byte of the frame).
const maxBody = maxFrame - 5

// --- pooled frame buffers ---------------------------------------------------
//
// readFrame and the dispatch read paths used to allocate a fresh []byte
// per frame — at depth-16 pipelines that is the single largest per-request
// allocation on both ends of the wire. Buffers are pooled in power-of-two
// size classes; getBuf returns a slice of exactly the requested length,
// putBuf recycles any buffer whose capacity is exactly a class size (so a
// slice that grew elsewhere, or a sub-slice handed to a caller, is simply
// left for the GC rather than poisoning a class).

const (
	minBufShift = 9  // 512 B
	maxBufShift = 20 // 1 MiB; larger frames allocate fresh
	bufClasses  = maxBufShift - minBufShift + 1
)

var bufPools [bufClasses]sync.Pool

// getBuf returns a length-n slice backed by a pooled class buffer (or a
// fresh allocation for n beyond the largest class).
func getBuf(n int) []byte {
	if n > 1<<maxBufShift {
		return make([]byte, n)
	}
	shift := minBufShift
	for n > 1<<shift {
		shift++
	}
	if p := bufPools[shift-minBufShift].Get(); p != nil {
		return (*(p.(*[]byte)))[:n]
	}
	return make([]byte, n, 1<<shift)
}

// putBuf recycles b if (and only if) its capacity is exactly a pool class
// size. Callers must own b outright: no live sub-slice may survive the put.
func putBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufShift || c > 1<<maxBufShift || c&(c-1) != 0 {
		return
	}
	b = b[:c]
	bufPools[bits.TrailingZeros(uint(c))-minBufShift].Put(&b)
}

// writeFrame sends one length-prefixed frame built from the given parts.
func writeFrame(w io.Writer, parts ...[]byte) error {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > maxFrame {
		return fmt.Errorf("srv: frame of %d bytes exceeds limit %d", total, maxFrame)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(total))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

// readFrame reads one length-prefixed frame into a pooled buffer. io.EOF
// is returned only at a clean frame boundary; a frame cut off mid-payload
// is io.ErrUnexpectedEOF. The caller owns the returned buffer and should
// putBuf it when the frame's contents are dead. Frames up to directFrame
// take one allocation; larger ones grow with the bytes that actually
// arrive (readLarge), so a bare length prefix cannot make the reader
// allocate maxFrame up front.
func readFrame(r io.Reader) ([]byte, error) {
	// The header is pooled: a stack array would escape through the
	// io.Reader call and cost an allocation per frame.
	hdr := hdrPool.Get().(*[4]byte)
	_, err := io.ReadFull(r, hdr[:])
	n := binary.BigEndian.Uint32(hdr[:])
	hdrPool.Put(hdr)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("srv: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if n > directFrame {
		return readLarge(r, int(n))
	}
	buf := getBuf(int(n))
	if _, err := io.ReadFull(r, buf); err != nil {
		putBuf(buf)
		return nil, unexpectedEOF(err)
	}
	return buf, nil
}

var hdrPool = sync.Pool{New: func() any { return new([4]byte) }}

// directFrame is the largest frame readFrame allocates in full before its
// body arrives: the biggest pooled class plus room for any op's header, so
// a 1 MiB read or write still costs one allocation.
const directFrame = 1<<maxBufShift + 1<<12

// readLarge reads an n-byte frame body in steps that double the buffer
// only once the previous step filled it, bounding the allocation by twice
// the bytes received (plus the first directFrame step).
func readLarge(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, directFrame)
	for len(buf) < n {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*cap(buf), n))
			copy(grown, buf)
			buf = grown
		}
		k, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, unexpectedEOF(err)
		}
	}
	return buf, nil
}

// unexpectedEOF reports a frame cut off mid-payload as such.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// helloRequest builds the v2 negotiation frame body (after the op byte).
func helloRequest(wantWindow int) [][]byte {
	return [][]byte{[]byte(helloMagic), putU32(protoVersion2), putU32(uint32(wantWindow))}
}

// parseHello validates a hello body and returns the peer's max version and
// requested window.
func parseHello(body []byte) (version, window int, ok bool) {
	if len(body) != len(helloMagic)+8 || string(body[:len(helloMagic)]) != helloMagic {
		return 0, 0, false
	}
	return int(be32(body[len(helloMagic):])), int(be32(body[len(helloMagic)+4:])), true
}

func be64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }
func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

func putU64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

func putU32(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}
