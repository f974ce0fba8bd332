// Command perfbench is the repository's benchmark: it runs the stock
// iosnapd daemon as a subprocess and measures what a client sees, end to
// end, on three seeded workloads; with -trace 1 it instead climbs a ladder
// of rungs (daemon, in-process server, shard service, single FTL) on the
// same ops and reports per-layer numbers. See README.md beside it.
//
// Usage (from the repository root, after building iosnapd into
// .bench_build; run.sh does both):
//
//	perfbench -workload oltp-4k -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"iosnap/internal/srv"
)

// workDir holds the daemon binary, the volume images and the span files,
// relative to the root of the checkout the benchmark runs from.
const workDir = ".bench_build"

// setupRounds fresh set-ups run per untraced run, and each is remounted
// remountsPerRound more times (graceful shutdown, restart); setup_s is the
// median over the set-ups, mount_s over every restart, and the last
// round's daemon is measured.
const (
	setupRounds      = 5
	remountsPerRound = 3
)

type metric struct {
	name  string
	unit  string
	value float64
	note  string // sample count or derivation, printed only
}

type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v, note: note})
}

func main() {
	workload := flag.String("workload", "", "workload name: oltp-4k, bulk-1m or snap-churn")
	seed := flag.Int64("seed", 1, "seed of the op streams")
	seconds := flag.Int("seconds", 20, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced ladder run (per-layer metrics), 0 = end-to-end metrics")
	flag.Parse()

	wl, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	bin := filepath.Join(workDir, "iosnapd")
	if _, err := os.Stat(bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no iosnapd binary (build it first; run.sh does):", err)
		os.Exit(2)
	}
	dir := filepath.Join(workDir, "run-"+wl.name)
	defer os.RemoveAll(dir)

	printContext(wl, *seed, *seconds, *trace)
	window := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		res, err = tracedRun(wl, *seed, window, bin, dir, filepath.Join(workDir, "spans-"+wl.name+".csv.gz"))
	} else {
		res, err = plainRun(wl, *seed, window, bin, dir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	emit(res)
}

// printContext records the machine and configuration with every result.
func printContext(wl *workload, seed int64, seconds, trace int) {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	daemonProcs := os.Getenv("GOMAXPROCS")
	if daemonProcs == "" {
		daemonProcs = fmt.Sprint(runtime.NumCPU())
	}
	ctx := map[string]any{
		"workload":           wl.name,
		"seed":               seed,
		"seconds":            seconds,
		"trace":              trace,
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"daemon_gomaxprocs":  daemonProcs,
		"go":                 runtime.Version(),
		"kernel":             strings.TrimSpace(string(kernel)),
		"commit":             sourceID(),
		"daemon_flags":       strings.Join(daemonArgs("IMAGE"), " "),
		"daemon_geometry":    "4 shards x 64 MiB, 4 KiB sectors (iosnapd defaults)",
		"generator_settings": fmt.Sprintf("conns=%d depth=%d sectors=%d read=%d%% lifecycle=%v", wl.fgConns, wl.depth, wl.sectors, wl.readPct, wl.lifecycle),
	}
	b, _ := json.Marshal(ctx)
	fmt.Println("context:", string(b))
	for _, line := range wl.about {
		fmt.Println("workload:", line)
	}
}

// sourceID names the code under test: the VCS revision Go stamped into
// this binary, marked "+modified" for a dirty tree, or "unknown" when the
// build was not made inside a repository.
func sourceID() string {
	var rev, modified string
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	if rev == "" {
		return "unknown"
	}
	if modified == "true" {
		rev += "+modified"
	}
	return rev
}

// emit prints the human-readable table, then the result line.
func emit(res *result) {
	if res == nil {
		res = &result{attempted: 1, failed: 1}
	}
	metrics := map[string]any{}
	for _, m := range res.metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("%-34s %14.6g %-6s %s\n", m.name, v, m.unit, m.note)
		metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
	}
	out, _ := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	fmt.Println(string(out))
}

// printTally prints per-op-type attempted and failed counts.
func printTally(label string, t *tally) {
	var parts []string
	for k := opKind(0); k < nKinds; k++ {
		if t.attempted[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s %d/%d failed", kindNames[k], t.failed[k], t.attempted[k]))
		}
	}
	fmt.Printf("%s: %s; verification mismatches %d, undecidable sectors %d\n", label, strings.Join(parts, ", "), t.mismatches, t.unverified)
}

// plainRun is the untraced run: setupRounds fresh set-ups, then the
// measured window against the last one's daemon.
func plainRun(wl *workload, seed int64, window time.Duration, bin, dir string) (*result, error) {
	res := &result{}
	var setups, mounts []float64
	var sr *setupResult
	var setupTally tally
	for i := 0; i < setupRounds; i++ {
		// Each round sets up alone: the previous round's daemon is gone
		// before the next one formats.
		if sr != nil {
			sr.d.kill()
			sr = nil
		}
		s, err := setup(bin, dir, seed)
		if err != nil {
			setupTally.add(opMount, 0, err)
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			continue
		}
		setupTally.merge(&s.verify)
		setups = append(setups, s.setupS)
		mounts = append(mounts, s.mountS())
		for j := 0; j < remountsPerRound && s.d != nil; j++ {
			err := s.remount(bin, seed)
			setupTally.merge(&s.verify)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
				continue
			}
			mounts = append(mounts, s.mountS())
		}
		if s.d != nil {
			sr = s
		}
	}
	res.attempted, res.failed = setupTally.totals()
	if sr == nil {
		printTally("set-up", &setupTally)
		return res, fmt.Errorf("the last set-up's daemon never came up")
	}
	defer sr.d.kill()
	if err := wl.fits(sr.lay); err != nil {
		return res, err
	}

	clients, err := dialAll(sr.d.addr, wl, sr.lay.sectorSize)
	if err != nil {
		setupTally.add(opMount, 0, err)
		res.attempted, res.failed = setupTally.totals()
		return res, err
	}
	defer closeAll(clients)
	before, err := clients[0].c.Stats()
	if err != nil {
		return res, fmt.Errorf("stats before the window: %w", err)
	}
	drv := newDriver(wl, sr.lay, seed, newModel(sr.lay.sectors), 1)
	drv.deadline = window.Nanoseconds()
	fg, life := targetsOf(clients, wl)
	drv.run(fg, life, nil, -1)
	elapsed := time.Since(drv.t0)
	after, err := clients[0].c.Stats()
	if err != nil {
		return res, fmt.Errorf("stats after the window: %w", err)
	}
	drv.probe(clients[len(clients)-1])
	rss, err := sr.d.peakRSSMB()
	if err != nil {
		return res, err
	}

	t := &drv.rec.t
	printTally("set-up", &setupTally)
	printTally("window", t)
	t.merge(&setupTally)
	res.attempted, res.failed = t.totals()
	res.correct = t.mismatches == 0 && len(setups) == setupRounds && len(mounts) == setupRounds*(1+remountsPerRound)

	fgOps := t.attempted[opRead] - t.failed[opRead] + t.attempted[opWrite] - t.failed[opWrite]
	lifeOps := int64(0)
	if wl.lifecycle {
		for _, k := range []opKind{opSnapCreate, opSnapRead, opSnapDelete} {
			lifeOps += t.attempted[k] - t.failed[k]
		}
	}
	res.add("ops_per_s", "1/s", float64(fgOps+lifeOps)/elapsed.Seconds(), fmt.Sprintf("%d ok ops in %.2fs", fgOps+lifeOps, elapsed.Seconds()))
	addLatency(res, "read", t.lat[opRead])
	addLatency(res, "write", t.lat[opWrite])
	sc := summarize(t.lat[opSnapCreate], 50)
	res.add("snap_create_p50_us", "us", sc.p50, fmt.Sprintf("n=%d", sc.n))
	sr2 := summarize(t.lat[opSnapRead], 50)
	res.add("snap_read_p50_us", "us", sr2.p50, fmt.Sprintf("n=%d", sr2.n))
	errRate := float64(res.failed) / float64(res.attempted)
	fmt.Printf("%-34s %14.6g %-6s %d of %d ops failed or refused (incl. verification)\n", "error_rate", errRate, "ratio", res.failed, res.attempted)
	res.add("ok_rate", "ratio", 1-errRate, "1 - error_rate")
	res.add("setup_s", "s", median(setups), fmt.Sprintf("median of %d: %s", len(setups), fmtFloats(setups)))
	res.add("mount_s", "s", median(mounts), fmt.Sprintf("median of %d: %s", len(mounts), fmtFloats(mounts)))
	res.add("rss_mb", "MiB", rss, "daemon VmHWM")
	w := windowDelta(before, after)
	res.add("virtual_mb_s", "MB/s", w.virtualMBs(t.bytes), fmt.Sprintf("%d payload bytes over a mean %.3f virtual s per shard (over the largest, %.3f s: %.4g MB/s)",
		t.bytes, w.meanVirtual.Seconds(), w.maxVirtual.Seconds(), float64(t.bytes)/1e6/w.maxVirtual.Seconds()))
	res.add("write_amp", "x", w.writeAmp(), fmt.Sprintf("(%d user + %d gc copied) / %d user", w.userWrites, w.gcCopied, w.userWrites))
	return res, nil
}

func addLatency(res *result, name string, ns []int64) {
	l := summarize(ns, 99)
	res.add(name+"_p50_us", "us", l.p50, fmt.Sprintf("n=%d", l.n))
	res.add(name+"_p99_us", "us", l.tail, fmt.Sprintf("n=%d, reported at p%g (>= %d samples beyond)", l.n, l.tailPct, minBeyond))
}

func fmtFloats(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// dialAll opens one connection per foreground half plus one for the
// snapshot lifecycle (or the post-window probe).
func dialAll(addr string, wl *workload, ss int) ([]clientTarget, error) {
	var out []clientTarget
	for i := 0; i <= wl.fgConns; i++ {
		window := wl.depth
		if i == wl.fgConns {
			window = 1
		}
		c, err := srv.DialOpts(addr, srv.DialOptions{Window: window})
		if err != nil {
			closeAll(out)
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		out = append(out, clientTarget{c: c, ss: ss})
	}
	return out, nil
}

func closeAll(cs []clientTarget) {
	for _, c := range cs {
		c.c.Close()
	}
}

func targetsOf(cs []clientTarget, wl *workload) (fg []target, life target) {
	for _, c := range cs[:wl.fgConns] {
		fg = append(fg, c)
	}
	if wl.lifecycle {
		life = cs[wl.fgConns]
	}
	return fg, life
}
