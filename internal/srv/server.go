package srv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/shard"
	"iosnap/internal/sim"
)

// ServerStats is the stats-op response: an aggregate view of the service
// plus the per-shard counters, JSON-encoded on the wire so the CLI can
// print it without sharing Go types beyond this package.
type ServerStats struct {
	Shards        int
	SectorSize    int
	Sectors       int64
	LiveSnapshots int
	MappedSectors int64
	PerShard      []iosnap.Stats
	// PerShardVirtual is each shard's virtual clock at the stats barrier:
	// the skew between entries is the load imbalance across shards.
	PerShardVirtual []sim.Time
	// Snapshot-view cache counters (see viewCache).
	ViewCacheHits          int64
	ViewCacheMisses        int64
	ViewCacheExpiries      int64
	ViewCacheInvalidations int64
	ViewCacheLive          int
}

// Server serves the block protocol over a listener, dispatching every
// request onto one shard.Service. Connections are handled concurrently,
// and a v2 connection additionally pipelines: each tagged request runs on
// its own goroutine (at most Window in flight per connection), responses
// are serialized through a per-connection writer goroutine in completion
// order. A graceful shutdown (Shutdown call or shutdown op) stops the
// accept loop, waits for in-flight requests to finish, drains the
// snapshot-view cache, and returns from Serve with the service still
// open, so the owner can checkpoint and persist it.
type Server struct {
	svc *shard.Service
	ln  net.Listener

	// Window bounds in-flight pipelined requests per v2 connection. Zero
	// means defaultWindow. Set before Serve.
	Window int
	// ViewTTL is how long an idle activated snapshot view stays cached
	// before the janitor deactivates it. Zero means defaultViewTTL; a
	// negative value disables caching entirely (every snap-read activates
	// and deactivates, the pre-v2 behavior). Set before Serve.
	ViewTTL time.Duration

	views *viewCache

	// preDispatch, when non-nil, runs in the handler goroutine before a v2
	// request dispatches. Test hook: it forces deterministic out-of-order
	// completion by stalling chosen ops.
	preDispatch func(op byte)

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	stopping bool
	stopped  chan struct{}
	wg       sync.WaitGroup
}

// defaultViewTTL keeps an idle activated view alive this long by default.
const defaultViewTTL = 2 * time.Second

// NewServer wraps svc behind ln. The server does not own svc: Serve
// returns with the service open, and closing it (checkpointing the FTLs)
// is the caller's job.
func NewServer(svc *shard.Service, ln net.Listener) *Server {
	return &Server{svc: svc, ln: ln, conns: make(map[net.Conn]struct{}), stopped: make(chan struct{})}
}

// Addr returns the listener address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) window() int {
	if s.Window > 0 {
		return s.Window
	}
	return defaultWindow
}

// Serve accepts connections until Shutdown is called (directly or via the
// shutdown op), then waits for in-flight connections to drain. It returns
// nil on a clean shutdown. When Accept fails for any other reason the
// error is returned — but only after in-flight connections drained there
// too: the caller's next move is closing the service, and handler
// goroutines must not race it.
func (s *Server) Serve() error {
	ttl := s.ViewTTL
	if ttl == 0 {
		ttl = defaultViewTTL
	}
	if ttl > 0 {
		s.views = newViewCache(s.svc, ttl)
		jstop := make(chan struct{})
		defer close(jstop)
		go s.janitor(jstop)
	}
	for {
		c, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.stopping
			if !stopping {
				// Abnormal accept failure: unblock every connection's reader
				// so the drain below terminates.
				for c := range s.conns {
					c.Close()
				}
			}
			s.mu.Unlock()
			s.wg.Wait()
			if s.views != nil {
				s.views.drain()
			}
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			c.Close()
		}()
	}
}

// janitor periodically expires idle cached views until Serve returns.
func (s *Server) janitor(stop <-chan struct{}) {
	period := s.views.ttl / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.views.sweep()
		case <-stop:
			return
		}
	}
}

// Shutdown stops the accept loop. In-flight requests finish; idle
// connections are closed. Safe to call more than once and from request
// handlers. It does not wait — Serve's return is the completion signal.
func (s *Server) Shutdown() {
	s.stopAccepting()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Close connections so their readFrame unblocks. A request being
	// executed right now still writes its response: the write races the
	// close harmlessly (worst case the client sees a reset after its
	// response, exactly like a server crash after commit).
	for c := range s.conns {
		c.Close()
	}
}

// stopAccepting closes the listener so no new connection is accepted,
// leaving live ones running. The shutdown op calls it before sending its
// acknowledgement, so a client that saw the ack cannot connect again.
func (s *Server) stopAccepting() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopping {
		return
	}
	s.stopping = true
	close(s.stopped)
	s.ln.Close()
}

// serveConn inspects the first frame: a valid hello upgrades the
// connection to the pipelined v2 loop, anything else is a v1 client and
// runs the serial loop (starting with that first request).
func (s *Server) serveConn(c net.Conn) {
	req, err := readFrame(c)
	if err != nil || len(req) == 0 {
		putBuf(req)
		return
	}
	if req[0] == opHello {
		if _, want, ok := parseHello(req[1:]); ok {
			putBuf(req)
			s.serveConn2(c, want)
			return
		}
	}
	s.serveConn1(c, req)
}

// serveConn1 runs the serial v1 request loop: one request, one response,
// in order. first is the already-read first frame (owned by this func).
// Any protocol error (as opposed to an op error, which is reported
// in-band) ends the connection.
func (s *Server) serveConn1(c net.Conn, first []byte) {
	req := first
	for {
		if req == nil {
			var err error
			req, err = readFrame(c)
			if err != nil {
				return // client went away or spoke garbage; nothing to answer
			}
			if len(req) == 0 {
				putBuf(req)
				return
			}
		}
		op, body := req[0], req[1:]
		if op == opShutdown {
			// Acknowledge before stopping: Shutdown closes every
			// connection, so the response must already be on the wire.
			putBuf(req)
			s.stopAccepting()
			writeFrame(c, []byte{statusOK})
			s.Shutdown()
			return
		}
		result, err := s.dispatch(op, body)
		putBuf(req)
		req = nil
		if err != nil {
			if werr := writeFrame(c, []byte{statusErr}, []byte(err.Error())); werr != nil {
				return
			}
			continue
		}
		werr := writeFrame(c, []byte{statusOK}, result)
		putBuf(result)
		if werr != nil {
			return
		}
	}
}

// wresp is one response bound for a v2 connection's writer goroutine.
type wresp struct {
	tag    uint32
	status byte
	body   []byte // recycled by the writer after the frame is out
	after  func() // runs after the frame (and everything before it) is flushed
}

// serveConn2 runs the pipelined v2 loop. The reader accepts tagged frames
// and hands each to its own handler goroutine, admission-limited by a
// window semaphore (a client past the window simply stalls in TCP — flow
// control, not an error). Handlers dispatch concurrently, so requests to
// different shards overlap; a single writer goroutine serializes the
// responses in completion order, flushing when the queue runs dry so
// back-to-back completions coalesce into one syscall. No ordering is
// promised between in-flight requests — a client that needs write-then-
// read ordering must wait for the write's response before issuing the
// read.
func (s *Server) serveConn2(c net.Conn, wantWindow int) {
	window := s.window()
	if wantWindow > 0 && wantWindow < window {
		window = wantWindow
	}
	if err := writeFrame(c, []byte{statusOK}, putU32(protoVersion2), putU32(uint32(window))); err != nil {
		return
	}

	out := make(chan wresp, window)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		bw := bufio.NewWriterSize(c, 64<<10)
		broken := false
		for r := range out {
			if !broken {
				if err := writeFrame(bw, putU32(r.tag), []byte{r.status}, r.body); err != nil {
					broken = true
				}
				if len(out) == 0 && !broken {
					// Flush only when the queue is truly dry. Handlers whose
					// responses are an instant away are sitting on the run
					// queue; yielding once lets them enqueue, so one syscall
					// carries a batch instead of every completion paying its
					// own. (On the loopback bench this halves write syscalls.)
					runtime.Gosched()
					if len(out) == 0 {
						if err := bw.Flush(); err != nil {
							broken = true
						}
					}
				}
			}
			putBuf(r.body)
			if r.after != nil {
				bw.Flush()
				r.after()
			}
		}
		bw.Flush()
	}()

	sem := make(chan struct{}, window)
	var wg sync.WaitGroup
	// Buffer the read side too: a deep pipeline delivers many request
	// frames per TCP segment, and one syscall should consume them all.
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		req, err := readFrame(br)
		if err != nil {
			break
		}
		if len(req) < 5 {
			// A tagged frame needs at least tag+op; anything shorter is a
			// protocol violation and ends the connection (there is no tag
			// to answer on).
			putBuf(req)
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(req []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			tag, op, body := be32(req), req[4], req[5:]
			if gate := s.preDispatch; gate != nil {
				gate(op)
			}
			if op == opShutdown {
				putBuf(req)
				s.stopAccepting()
				out <- wresp{tag: tag, status: statusOK, after: s.Shutdown}
				return
			}
			result, err := s.dispatch(op, body)
			putBuf(req)
			if err != nil {
				out <- wresp{tag: tag, status: statusErr, body: []byte(err.Error())}
				return
			}
			out <- wresp{tag: tag, status: statusOK, body: result}
		}(req)
	}
	wg.Wait()
	close(out)
	<-writerDone
}

// dispatch executes one op against the service. The returned buffer may be
// pooled; the caller recycles it (putBuf) once the response frame is out.
func (s *Server) dispatch(op byte, body []byte) ([]byte, error) {
	switch op {
	case opPing:
		return nil, nil

	case opRead:
		if len(body) != 12 {
			return nil, fmt.Errorf("srv: read body %d bytes, want 12", len(body))
		}
		lba := int64(be64(body))
		n := int64(be32(body[8:]))
		size := n * int64(s.svc.SectorSize())
		if n <= 0 || size > maxBody {
			return nil, fmt.Errorf("srv: read of %d sectors out of range", n)
		}
		buf := getBuf(int(size))
		if err := s.svc.Read(lba, buf); err != nil {
			putBuf(buf)
			return nil, err
		}
		return buf, nil

	case opWrite:
		if len(body) < 8 {
			return nil, fmt.Errorf("srv: write body %d bytes, want >= 8", len(body))
		}
		data := body[8:]
		if ss := s.svc.SectorSize(); len(data) == 0 || len(data)%ss != 0 {
			return nil, fmt.Errorf("srv: write payload of %d bytes is not a positive multiple of the %d-byte sector size", len(data), ss)
		}
		return nil, s.svc.Write(int64(be64(body)), data)

	case opTrim:
		if len(body) != 16 {
			return nil, fmt.Errorf("srv: trim body %d bytes, want 16", len(body))
		}
		return nil, s.svc.Trim(int64(be64(body)), int64(be64(body[8:])))

	case opSnapCreate:
		id, err := s.svc.CreateSnapshot()
		if err != nil {
			return nil, err
		}
		return putU64(uint64(id)), nil

	case opSnapDelete:
		if len(body) != 8 {
			return nil, fmt.Errorf("srv: snap-delete body %d bytes, want 8", len(body))
		}
		id := iosnap.SnapshotID(be64(body))
		// Drop the cached activation first: the delete must not observe it,
		// and the snapshot's blocks must actually become reclaimable.
		if s.views != nil {
			s.views.invalidate(id)
		}
		return nil, s.svc.DeleteSnapshot(id)

	case opSnapRead:
		if len(body) != 20 {
			return nil, fmt.Errorf("srv: snap-read body %d bytes, want 20", len(body))
		}
		id := iosnap.SnapshotID(be64(body))
		lba := int64(be64(body[8:]))
		n := int64(be32(body[16:]))
		size := n * int64(s.svc.SectorSize())
		if n <= 0 || size > maxBody {
			return nil, fmt.Errorf("srv: snap-read of %d sectors out of range", n)
		}
		view, release, err := s.acquireView(id)
		if err != nil {
			return nil, err
		}
		buf := getBuf(int(size))
		rerr := view.Read(lba, buf)
		derr := release()
		if rerr == nil {
			rerr = derr
		}
		if rerr != nil {
			putBuf(buf)
			return nil, rerr
		}
		return buf, nil

	case opStats:
		sum := s.svc.Summary()
		st := ServerStats{
			Shards:          sum.Shards,
			SectorSize:      sum.SectorSize,
			Sectors:         sum.Sectors,
			LiveSnapshots:   sum.LiveSnapshots,
			MappedSectors:   sum.MappedSectors,
			PerShard:        sum.PerShard,
			PerShardVirtual: sum.Virtual,
		}
		if s.views != nil {
			st.ViewCacheHits, st.ViewCacheMisses, st.ViewCacheExpiries,
				st.ViewCacheInvalidations, st.ViewCacheLive = s.views.counters()
		}
		return json.Marshal(st)

	default:
		return nil, fmt.Errorf("srv: unknown op %d", op)
	}
}

// acquireView resolves a snapshot view either through the cache or, when
// caching is disabled, by a one-shot activate whose release deactivates.
func (s *Server) acquireView(id iosnap.SnapshotID) (*shard.ServiceView, func() error, error) {
	if s.views != nil {
		view, release, err := s.views.acquire(id)
		if err != nil {
			return nil, nil, err
		}
		return view, func() error { release(); return nil }, nil
	}
	view, err := s.svc.ActivateSync(id, false)
	if err != nil {
		return nil, nil, err
	}
	return view, view.Deactivate, nil
}
