package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"iosnap/internal/srv"
)

// daemon is one iosnapd subprocess. Only the listen address and image
// path are set; every other flag keeps its default.
type daemon struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	out     *lineWriter
	errBuf  bytes.Buffer
	done    chan struct{} // closed once Wait returned
	waitErr error
}

// daemonArgs are the flags the benchmark passes to iosnapd.
func daemonArgs(image string) []string {
	return []string{"-image", image, "-addr", "127.0.0.1:0"}
}

// startDaemon launches iosnapd and waits until it listens. The daemon
// prints its bound address once mount (image load and recovery) is done.
func startDaemon(bin, image string, timeout time.Duration) (*daemon, error) {
	d := &daemon{out: &lineWriter{ready: make(chan string, 1)}, done: make(chan struct{})}
	d.cmd = exec.Command(bin, daemonArgs(image)...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = &d.errBuf
	// The daemon must not outlive the benchmark.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting iosnapd: %w", err)
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.done)
	}()
	select {
	case d.addr = <-d.out.ready:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("iosnapd exited before serving: %v: %s", d.waitErr, strings.TrimSpace(d.errBuf.String()))
	case <-time.After(timeout):
		d.kill()
		return nil, fmt.Errorf("iosnapd did not serve within %v", timeout)
	}
}

// kill stops the daemon without saving and waits for it to exit.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // already exited is fine
	<-d.done
}

// shutdown asks for a graceful stop (checkpoint + image save) and waits
// for the process to exit.
func (d *daemon) shutdown(timeout time.Duration) error {
	c, err := srv.Dial(d.addr)
	if err == nil {
		err = c.Shutdown()
		c.Close()
	}
	if err != nil {
		d.kill()
		return fmt.Errorf("shutdown op: %w", err)
	}
	select {
	case <-d.done:
		if d.waitErr != nil {
			return fmt.Errorf("iosnapd: %v: %s", d.waitErr, strings.TrimSpace(d.errBuf.String()))
		}
		return nil
	case <-time.After(timeout):
		d.kill()
		return fmt.Errorf("iosnapd did not exit within %v of shutdown", timeout)
	}
}

// peakRSSMB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cpuNS reads the daemon's user+system CPU time.
func (d *daemon) cpuNS() int64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return (ut + st) * int64(time.Second) / clockTicks
}

// clockTicks is USER_HZ, 100 on every Linux architecture Go supports.
const clockTicks = 100

// lineWriter forwards the daemon's stdout, catching the serving line.
type lineWriter struct {
	mu    sync.Mutex
	buf   []byte
	ready chan string
	sent  bool
}

func (w *lineWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if j := strings.LastIndex(line, " on "); !w.sent && strings.HasPrefix(line, "iosnapd: serving") && j >= 0 {
			w.ready <- line[j+4:]
			w.sent = true
		}
	}
}

// setupResult is one format → prefill → graceful shutdown → restart.
type setupResult struct {
	d      *daemon
	lay    layout
	image  string
	setupS float64 // format through the first successful op after restart
	verify tally   // the post-restart prefill sample; holds the mount op
}

// mountS is restart through the first successful op, in seconds.
func (s *setupResult) mountS() float64 {
	if l := s.verify.lat[opMount]; len(l) > 0 {
		return float64(l[0]) / 1e9
	}
	return 0
}

// setup builds the fresh state every workload starts from and leaves the
// remounted daemon running. The first op after the restart is the first
// read of a seeded sample of LBAs checked against the prefill.
func setup(bin, dir string, seed int64) (*setupResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	image := filepath.Join(dir, "vol.img")
	t0 := time.Now()
	d, err := startDaemon(bin, image, 60*time.Second)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	lay, err := prefill(d.addr)
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("prefill: %w", err)
	}
	if err := d.shutdown(60 * time.Second); err != nil {
		return nil, fmt.Errorf("shutdown after prefill: %w", err)
	}
	d, err = startDaemon(bin, image, 60*time.Second)
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}
	res := &setupResult{d: d, lay: lay, image: image}
	res.verify, err = verifyPrefill(d, lay, seed)
	if err != nil {
		d.kill()
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()
	return res, nil
}

// remount shuts the daemon down gracefully, starts it again on the same
// image and checks the prefill sample again; s.verify then holds the new
// mount, failed or not. On error the daemon is gone and s.d is nil.
func (s *setupResult) remount(bin string, seed int64) error {
	s.verify = tally{}
	if err := s.d.shutdown(60 * time.Second); err != nil {
		s.d = nil
		s.verify.add(opMount, 0, err)
		return fmt.Errorf("shutdown before remount: %w", err)
	}
	d, err := startDaemon(bin, s.image, 60*time.Second)
	if err != nil {
		s.d = nil
		s.verify.add(opMount, 0, err)
		return fmt.Errorf("remount: %w", err)
	}
	s.d = d
	s.verify, err = verifyPrefill(d, s.lay, seed)
	if err != nil {
		d.kill()
		s.d = nil
	}
	return err
}

// prefill writes every user LBA once, version 0, in 1 MiB writes over two
// pipelined connections.
func prefill(addr string) (layout, error) {
	c, err := srv.Dial(addr)
	if err != nil {
		return layout{}, err
	}
	st, err := c.Stats()
	c.Close()
	if err != nil {
		return layout{}, err
	}
	lay := layout{sectors: st.Sectors, shards: st.Shards, sectorSize: st.SectorSize}
	const chunk = 256 // sectors: 1 MiB at 4 KiB
	if lay.sectors%(2*chunk) != 0 {
		return lay, fmt.Errorf("%d sectors do not split into 1 MiB halves", lay.sectors)
	}
	errs := make(chan error, 2)
	for h := int64(0); h < 2; h++ {
		go func(h int64) { errs <- prefillHalf(addr, lay, h*lay.sectors/2, lay.sectors/2, chunk) }(h)
	}
	err = <-errs
	if e := <-errs; err == nil {
		err = e
	}
	return lay, err
}

func prefillHalf(addr string, lay layout, base, n int64, chunk int) error {
	const depth = 4
	c, err := srv.DialOpts(addr, srv.DialOptions{Window: depth})
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, chunk*lay.sectorSize)
	var ring []*srv.Call
	for lba := base; lba < base+n; lba += int64(chunk) {
		if len(ring) == depth {
			if _, err := ring[0].Wait(); err != nil {
				return err
			}
			ring = ring[1:]
		}
		fillRun(buf, lay.sectorSize, lba, 0)
		ring = append(ring, c.GoWrite(lba, buf)) // GoWrite copies buf
	}
	for _, cl := range ring {
		if _, err := cl.Wait(); err != nil {
			return err
		}
	}
	return nil
}

// verifySamples LBAs are read back after every restart.
const verifySamples = 256

// verifyPrefill reads a seeded sample of LBAs and checks each against the
// prefill; the first success ends mount. A daemon that serves but cannot
// answer counts its failures and is still returned.
func verifyPrefill(d *daemon, lay layout, seed int64) (tally, error) {
	var t tally
	c, err := srv.Dial(d.addr)
	if err != nil {
		t.add(opMount, 0, err)
		return t, fmt.Errorf("dial after restart: %w", err)
	}
	defer c.Close()
	s := newLBAStream(seed, "verify", lay.sectors)
	mounted := false
	for i := 0; i < verifySamples; i++ {
		lba := s.next()
		t0 := time.Now()
		b, err := c.Read(lba, 1)
		t.add(opVerify, time.Since(t0).Nanoseconds(), err)
		if err != nil {
			continue
		}
		if ver, ok := readStamp(b, lba); !ok || ver != 0 {
			t.verdict(opVerify, vMismatch)
			continue
		}
		if !mounted {
			mounted = true
			t.add(opMount, time.Since(d.started).Nanoseconds(), nil)
		}
	}
	if !mounted {
		t.add(opMount, 0, fmt.Errorf("no successful read after restart"))
	}
	return t, nil
}
