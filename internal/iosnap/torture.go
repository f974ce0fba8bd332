package iosnap

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"iosnap/internal/faultinject"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
	"iosnap/internal/xport"
)

// The torture harness drives a randomized workload — writes, trims, snapshot
// create/delete, background activations, view writes, deactivations, forced
// cleans — against an FTL whose device may have a fault plan armed, and
// asserts after every operation that either the operation reported an error
// or the full content model still matches, and periodically (plus after
// every crash recovery) that CheckInvariants holds. Everything is driven by
// explicit seeds: the same TortureOptions reproduce the same run, faults and
// all.

// TortureOptions configures one torture run.
type TortureOptions struct {
	Seed  uint64 // workload RNG seed
	Steps int    // operations to attempt (default 800)
	Space int64  // LBA working-set size (default 100)

	// Plan, when non-nil, is armed on the device before the workload starts.
	// When a crash rule fires the harness power-cycles: the in-RAM FTL and
	// scheduler are abandoned, the plan is disarmed, and the device is
	// crash-recovered with Recover.
	Plan *faultinject.Plan

	// Replan, when non-nil, supplies a fresh fault plan after each
	// power-cycle (cycle counts from 1), letting one run take multiple
	// crash/recover cycles; returning nil leaves the remainder of the run
	// fault-free. Without Replan the first crash permanently disarms faults
	// (the original single-crash behaviour).
	Replan func(cycle int) *faultinject.Plan

	// CheckEvery runs CheckInvariants after this many steps (default 100).
	CheckEvery int

	// ActivationLimit rate-limits background activations so they stay
	// in-flight across workload steps (zero = unthrottled, activations
	// complete almost immediately).
	ActivationLimit ratelimit.WorkSleep

	// SnapshotChurn shifts the operation mix toward snapshot-lifecycle
	// storms: more creates (the live-snapshot cap rises from 3 to 6), more
	// deletes, more activate/deactivate cycles, more forced cleans, plus
	// scrub passes. Every one of those changes the epoch set or the view
	// membership, so churn runs hammer the cleaner's generation-stamped
	// cache invalidation (gcacct.go) across GC, rescue, and scrub.
	SnapshotChurn bool

	// ExportChurn adds snapshot replication to a churn-style mix: a band of
	// steps ships a live snapshot to a fault-free destination device through
	// the xport transport (incremental against the previous generation when
	// it is still live) and bit-verifies the replica against the frozen
	// model. Export reads run on the SOURCE device with the fault plan
	// armed, so injected transient and corrupt-data read faults hit the
	// replication path itself.
	ExportChurn bool

	// MapThrash widens the data bands (writes, trims, reads) while keeping
	// snapshot churn, so a run with a tiny MapCachePages config and a large
	// Space constantly faults, dirties, flushes, and evicts translation
	// pages — with checkpoints, cleans, and crash replans landing mid-churn.
	// The flag only changes the mix when set, so every existing seeded run
	// draws its historical operation sequence.
	MapThrash bool
}

// opCuts are the cumulative percentile cut-points of the operation mix; an
// op draw in [0,100) lands in the first band it is below (subject to each
// band's guard, falling through to later bands like the switch always did).
type opCuts struct {
	write, trim, create, del, activate, viewWrite, deact, force, scrub, repl int
	maxSnaps                                                                 int
}

func (o TortureOptions) cuts() opCuts {
	if o.MapThrash {
		return opCuts{write: 30, trim: 38, create: 50, del: 60, activate: 68,
			viewWrite: 72, deact: 76, force: 82, scrub: 86, repl: 86, maxSnaps: 6}
	}
	if o.ExportChurn {
		return opCuts{write: 20, trim: 26, create: 42, del: 54, activate: 64,
			viewWrite: 68, deact: 74, force: 82, scrub: 86, repl: 94, maxSnaps: 6}
	}
	if o.SnapshotChurn {
		return opCuts{write: 20, trim: 26, create: 44, del: 58, activate: 70,
			viewWrite: 74, deact: 80, scrub: 96, repl: 96, force: 90, maxSnaps: 6}
	}
	// The historical mix; scrub == force makes the scrub band empty so
	// seeded non-churn runs draw the exact same operation sequence as ever.
	return opCuts{write: 45, trim: 52, create: 60, del: 66, activate: 74,
		viewWrite: 78, deact: 83, force: 88, scrub: 88, repl: 88, maxSnaps: 3}
}

// TortureReport summarizes a torture run.
type TortureReport struct {
	Steps        int                 // operations attempted
	OpErrors     int64               // operations that returned an error (faults doing their job)
	Crashes      int64               // power losses taken
	Recoveries   int64               // successful crash recoveries
	Checks       int64               // CheckInvariants passes
	Activations  int64               // background activations started
	Replications int64               // snapshot replications committed and bit-verified
	Fired        []faultinject.Fired // accumulated across all armed plans
	FinalStats   Stats
}

func (r *TortureReport) String() string {
	return fmt.Sprintf("steps=%d opErrors=%d crashes=%d recoveries=%d checks=%d repls=%d gcErrors=%d torn=%d",
		r.Steps, r.OpErrors, r.Crashes, r.Recoveries, r.Checks, r.Replications,
		r.FinalStats.GCErrors, r.FinalStats.TornPagesSkipped)
}

// torturePattern fills a sector deterministically from (lba, version).
func torturePattern(ss int, lba int64, v byte) []byte {
	b := make([]byte, ss)
	for i := range b {
		b[i] = byte(int64(i)+lba) ^ v
	}
	return b
}

// tortureRun owns the mutable state of one run.
type tortureRun struct {
	opt  TortureOptions
	cfg  Config
	f    *FTL
	rng  *sim.RNG
	now  sim.Time
	rep  *TortureReport
	ss   int
	snap map[SnapshotID]map[int64]byte // frozen content per live snapshot
	mod  map[int64]byte                // active-view content
	act  *Activation                   // in-flight background activation
	view *View                         // one live activated view
	vmod map[int64]byte                // its content model

	dst      *FTL        // replication destination (fault-free, lazily built)
	repl     *Replicator // replication driver; survives power cycles
	lastRepl SnapshotID  // snapshot whose image is the committed generation

	// plan is the currently armed fault plan (starts as opt.Plan, swapped by
	// opt.Replan after each power-cycle; nil once faults are done).
	plan *faultinject.Plan

	// crashHandled is set once the current plan's crash has been
	// power-cycled: its Crashed() stays true forever, but only the first
	// observation demands a recovery. It resets when Replan arms a fresh
	// plan for the next cycle.
	crashHandled bool
}

// Torture runs the randomized fault workload and returns its report. A
// non-nil error means a real bug: an invariant violation, content served
// wrongly without an error, or a failed crash recovery — never a fault
// "working as injected".
func Torture(cfg Config, opt TortureOptions) (*TortureReport, error) {
	if opt.Steps <= 0 {
		opt.Steps = 800
	}
	if opt.Space <= 0 {
		opt.Space = 100
	}
	if opt.CheckEvery <= 0 {
		opt.CheckEvery = 100
	}
	f, err := New(cfg, nil)
	if err != nil {
		return nil, err
	}
	t := &tortureRun{
		opt:  opt,
		cfg:  cfg,
		f:    f,
		rng:  sim.NewRNG(opt.Seed),
		rep:  &TortureReport{},
		ss:   f.SectorSize(),
		snap: make(map[SnapshotID]map[int64]byte),
		mod:  make(map[int64]byte),
	}
	t.plan = opt.Plan
	if t.plan != nil {
		t.plan.Arm(f.dev)
	}
	err = t.run()
	t.retirePlan()
	t.rep.FinalStats = t.f.Stats()
	return t.rep, err
}

// retirePlan disarms the current plan, banking its fired records into the
// cumulative report.
func (t *tortureRun) retirePlan() {
	if t.plan == nil {
		return
	}
	t.rep.Fired = append(t.rep.Fired, t.plan.Fired()...)
	t.plan.Disarm(t.f.dev)
	t.plan = nil
}

func (t *tortureRun) crashed() bool {
	return !t.crashHandled && t.plan != nil && t.plan.Crashed()
}

// opErr tallies an operation error; a crash is handled by the step loop.
func (t *tortureRun) opErr() { t.rep.OpErrors++ }

func (t *tortureRun) run() error {
	for step := 0; step < t.opt.Steps; step++ {
		t.rep.Steps++
		t.f.sched.RunUntil(t.now)
		if t.crashed() {
			if err := t.powerCycle(); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			continue
		}
		t.reapActivation()
		if err := t.step(step); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		if t.crashed() {
			if err := t.powerCycle(); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
			continue
		}
		if step%t.opt.CheckEvery == t.opt.CheckEvery-1 {
			t.now = t.f.sched.Drain(t.now)
			if t.crashed() {
				if err := t.powerCycle(); err != nil {
					return fmt.Errorf("step %d: %w", step, err)
				}
				continue
			}
			if err := t.check(); err != nil {
				return fmt.Errorf("step %d: %w", step, err)
			}
		}
	}
	// Final settle: drain, recover once more if a late fault crashed us,
	// then verify everything.
	t.now = t.f.sched.Drain(t.now)
	if t.crashed() {
		if err := t.powerCycle(); err != nil {
			return err
		}
	}
	if err := t.check(); err != nil {
		return err
	}
	return t.verifySnapshots()
}

// step performs one random operation. Any error return is a harness bug;
// injected faults are absorbed as OpErrors.
func (t *tortureRun) step(step int) error {
	f := t.f
	cut := t.opt.cuts()
	switch op := t.rng.Intn(100); {
	case op < cut.write: // active write
		lba := t.rng.Int63n(t.opt.Space)
		v := byte(step%251 + 1)
		done, err := f.Write(t.now, lba, torturePattern(t.ss, lba, v))
		if err != nil {
			t.opErr()
			return nil
		}
		if t.crashed() {
			// The program landed torn and power died before the completion
			// ever reached the host: the write was never acknowledged.
			t.opErr()
			return nil
		}
		t.mod[lba] = v
		t.now = done
	case op < cut.trim: // trim
		lba := t.rng.Int63n(t.opt.Space)
		done, err := f.Trim(t.now, lba, 1)
		if err != nil {
			t.opErr()
			return nil
		}
		delete(t.mod, lba)
		t.now = done
	case op < cut.create && len(t.snap) < cut.maxSnaps: // snapshot create
		snap, done, err := f.CreateSnapshot(t.now)
		if err != nil {
			t.opErr()
			return nil
		}
		if t.crashed() {
			t.opErr() // torn create note: never acknowledged
			return nil
		}
		t.now = done
		frozen := make(map[int64]byte, len(t.mod))
		for k, v := range t.mod {
			frozen[k] = v
		}
		t.snap[snap.ID] = frozen
	case op < cut.del && len(t.snap) > 0: // snapshot delete
		id := t.pickSnap()
		if t.view != nil && t.view.Snapshot().ID == id {
			return nil // keep the activated snapshot's model simple
		}
		if t.act != nil && !t.act.Ready() && t.act.Snapshot().ID == id {
			return nil
		}
		done, err := f.DeleteSnapshot(t.now, id)
		if err != nil {
			t.opErr()
			return nil
		}
		if t.crashed() {
			t.opErr() // torn delete note: the snapshot survives recovery
			return nil
		}
		t.now = done
		delete(t.snap, id)
	case op < cut.activate && len(t.snap) > 0 && t.act == nil && t.view == nil: // activate
		id := t.pickSnap()
		writable := t.rng.Intn(2) == 0
		act, done, err := f.Activate(t.now, id, t.opt.ActivationLimit, writable)
		if err != nil {
			t.opErr()
			return nil
		}
		if t.crashed() {
			t.opErr() // torn activate note: the activation dies with the host
			return nil
		}
		t.now = done
		t.act = act
		t.rep.Activations++
	case op < cut.viewWrite && t.view != nil: // view write
		if !t.view.Writable() {
			return nil
		}
		lba := t.rng.Int63n(t.opt.Space)
		v := byte(step%250 + 2)
		done, err := t.view.Write(t.now, lba, torturePattern(t.ss, lba, v))
		if err != nil {
			t.opErr()
			return nil
		}
		if t.crashed() {
			t.opErr()
			return nil
		}
		t.vmod[lba] = v
		t.now = done
	case op < cut.deact && t.view != nil: // deactivate
		done, err := t.view.Deactivate(t.now)
		if err != nil {
			t.opErr()
			return nil
		}
		if t.crashed() {
			t.opErr() // the view dies with the crash regardless
			return nil
		}
		t.now = done
		t.view, t.vmod = nil, nil
	case op < cut.force: // forced clean of a random used, non-head segment
		used := f.UsedSegments()
		if len(used) < 2 || f.CleaningActive() {
			return nil
		}
		seg := used[t.rng.Intn(len(used))]
		if seg == f.HeadSeg {
			return nil
		}
		if err := f.ForceClean(t.now, seg); err != nil {
			t.opErr()
			return nil
		}
	case op < cut.scrub: // scrub pass (churn mix only)
		f.StartScrub(t.now)
	case op < cut.repl && len(t.snap) > 0: // replicate a snapshot (export-churn mix)
		return t.replicate()
	default: // verify one active LBA
		lba := t.rng.Int63n(t.opt.Space)
		buf := make([]byte, t.ss)
		done, err := f.Read(t.now, lba, buf)
		if err != nil {
			t.opErr()
			return nil
		}
		t.now = done
		if v, ok := t.mod[lba]; ok && !bytes.Equal(buf, torturePattern(t.ss, lba, v)) {
			return fmt.Errorf("torture: LBA %d served wrong content without error", lba)
		}
	}
	return nil
}

// replicate ships one live snapshot to the fault-free destination device
// and bit-verifies the replica against the frozen model. The export reads
// run with the fault plan armed, so the replication path absorbs (or
// surfaces, as OpErrors) whatever the plan injects; a committed
// replication must serve the model exactly or the run fails.
func (t *tortureRun) replicate() error {
	if t.repl == nil {
		dst, err := New(t.cfg, nil)
		if err != nil {
			return fmt.Errorf("torture: creating replica device: %w", err)
		}
		t.dst = dst
		t.repl = &Replicator{Src: t.f, Dst: dst, Policy: t.cfg.Retry}
	}
	id := t.pickSnap()
	base := SnapshotID(0)
	if t.lastRepl != 0 && t.repl.Generation() != nil {
		if _, live := t.snap[t.lastRepl]; live {
			base = t.lastRepl
		}
	}
	_, done, err := t.repl.Replicate(t.now, id, base)
	if errors.Is(err, xport.ErrWrongTransfer) {
		// A journal from an interrupted transfer of a different snapshot:
		// explicitly drop it and restart this transfer fresh.
		t.repl.Restore(t.repl.Generation(), nil)
		_, done, err = t.repl.Replicate(t.now, id, base)
	}
	if err != nil {
		if t.crashed() || t.planArmed() || errors.Is(err, ErrOutOfSpace) {
			t.opErr()
			return nil
		}
		return fmt.Errorf("torture: replicating snapshot %d: %w", id, err)
	}
	t.now = done
	t.lastRepl = id
	t.rep.Replications++
	// The destination runs its own background work (cleaning) off-line.
	t.now = t.dst.Scheduler().Drain(t.now)
	// Bit-verify the replica against the frozen model. Acknowledged frozen
	// content must be served exactly; no fault excuse applies — the plan is
	// armed on the source, and end-to-end integrity is the whole point.
	buf := make([]byte, t.ss)
	frozen := t.snap[id]
	for _, lba := range sortedLBAs(frozen) {
		if _, err := t.dst.Read(t.now, lba, buf); err != nil {
			return fmt.Errorf("torture: replica read LBA %d: %w", lba, err)
		}
		if !bytes.Equal(buf, torturePattern(t.ss, lba, frozen[lba])) {
			return fmt.Errorf("torture: replica of snapshot %d LBA %d content mismatch", id, lba)
		}
	}
	return nil
}

func (t *tortureRun) pickSnap() SnapshotID {
	ids := t.sortedSnapIDs()
	return ids[t.rng.Intn(len(ids))]
}

// sortedSnapIDs returns the live snapshot IDs ascending. Model sweeps and
// RNG draws must not depend on Go's randomized map order: every device
// operation's (order, address) has to be a pure function of the seeds, or
// probabilistic fault rules would fire at run-dependent addresses.
func (t *tortureRun) sortedSnapIDs() []SnapshotID {
	ids := make([]SnapshotID, 0, len(t.snap))
	for id := range t.snap {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// sortedLBAs returns m's keys ascending, for the same reason.
func sortedLBAs(m map[int64]byte) []int64 {
	out := make([]int64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// reapActivation publishes a finished background activation as the live view.
func (t *tortureRun) reapActivation() {
	if t.act == nil || !t.act.Ready() {
		return
	}
	act := t.act
	t.act = nil
	view, err := act.View()
	if err != nil {
		t.opErr() // a propagated scan fault, by design
		return
	}
	t.view = view
	src := t.snap[act.Snapshot().ID]
	t.vmod = make(map[int64]byte, len(src))
	for k, v := range src {
		t.vmod[k] = v
	}
}

// powerCycle models the crash: RAM state (FTL, scheduler, views, in-flight
// activations) is abandoned, power is restored (the plan detaches), and the
// device is recovered from its log. Writes acknowledged before the crash
// must all survive; views and un-noted view writes die by design.
func (t *tortureRun) powerCycle() error {
	t.rep.Crashes++
	t.crashHandled = true
	t.retirePlan()
	t.f.sched.Reset()
	t.act, t.view, t.vmod = nil, nil, nil
	f2, now2, err := Recover(t.cfg, t.f.dev, sim.NewScheduler(), t.now)
	if err != nil {
		return fmt.Errorf("torture: crash recovery failed: %w", err)
	}
	t.f = f2
	t.now = now2
	t.rep.Recoveries++
	// Replication state (destination contents, committed generation, any
	// receive journal) survives the source's crash; only the source handle
	// is re-wired to the recovered FTL.
	if t.repl != nil {
		t.repl.Src = f2
	}
	// Snapshots whose create note never became durable are gone; ones that
	// were acknowledged must have survived.
	for id := range t.snap {
		s, ok := f2.tree.Lookup(id)
		if !ok || s.Deleted {
			return fmt.Errorf("torture: acknowledged snapshot %d lost by recovery", id)
		}
	}
	if err := t.check(); err != nil {
		return err
	}
	// Arm the next cycle's plan, if the caller wants more crashes.
	if t.opt.Replan != nil {
		if p := t.opt.Replan(int(t.rep.Crashes)); p != nil {
			t.plan = p
			t.plan.Arm(t.f.dev)
			t.crashHandled = false
		}
	}
	return nil
}

// check asserts the invariants and the active content model.
func (t *tortureRun) check() error {
	if err := t.f.CheckInvariants(); err != nil {
		return err
	}
	t.rep.Checks++
	buf := make([]byte, t.ss)
	for _, lba := range sortedLBAs(t.mod) {
		v := t.mod[lba]
		if _, err := t.f.Read(t.now, lba, buf); err != nil {
			if t.crashed() {
				return nil // a fresh fault mid-verify; the step loop recovers
			}
			if t.planArmed() {
				t.opErr() // an injected read error; skip this LBA's compare
				continue
			}
			return fmt.Errorf("torture: reading LBA %d: %w", lba, err)
		}
		if !bytes.Equal(buf, torturePattern(t.ss, lba, v)) {
			return fmt.Errorf("torture: LBA %d content mismatch", lba)
		}
	}
	if t.view != nil {
		for _, lba := range sortedLBAs(t.vmod) {
			v := t.vmod[lba]
			if _, err := t.view.Read(t.now, lba, buf); err != nil {
				if t.crashed() {
					return nil
				}
				if t.planArmed() {
					t.opErr()
					continue
				}
				return fmt.Errorf("torture: view read LBA %d: %w", lba, err)
			}
			if !bytes.Equal(buf, torturePattern(t.ss, lba, v)) {
				return fmt.Errorf("torture: view LBA %d content mismatch", lba)
			}
		}
	}
	return nil
}

// planArmed reports whether the fault plan is still attached to the device,
// i.e. verification reads themselves can draw injected errors.
func (t *tortureRun) planArmed() bool {
	return t.plan != nil && t.f.dev.FaultHook() == t.plan
}

// verifySnapshots activates every live snapshot (unthrottled, faults
// disarmed by the caller at this point unless the plan never crashed) and
// verifies its frozen content.
func (t *tortureRun) verifySnapshots() error {
	t.retirePlan()
	if t.view != nil {
		if _, err := t.view.Deactivate(t.now); err != nil && !t.crashed() {
			if !errors.Is(err, ErrOutOfSpace) {
				return fmt.Errorf("torture: final deactivate: %w", err)
			}
			t.opErr() // genuinely exhausted: the note cannot be logged
		}
		t.view, t.vmod = nil, nil
	}
	buf := make([]byte, t.ss)
	for _, id := range t.sortedSnapIDs() {
		frozen := t.snap[id]
		view, done, err := t.f.ActivateSync(t.now, id, ratelimit.WorkSleep{}, false)
		if err != nil {
			if errors.Is(err, ErrOutOfSpace) {
				// A degraded device cannot log the activation note; the
				// snapshot's data is intact but unverifiable this run.
				t.opErr()
				continue
			}
			return fmt.Errorf("torture: final activation of snapshot %d: %w", id, err)
		}
		t.now = done
		for _, lba := range sortedLBAs(frozen) {
			v := frozen[lba]
			if _, err := view.Read(t.now, lba, buf); err != nil {
				return fmt.Errorf("torture: snapshot %d LBA %d: %w", id, lba, err)
			}
			if !bytes.Equal(buf, torturePattern(t.ss, lba, v)) {
				return fmt.Errorf("torture: snapshot %d LBA %d content mismatch", id, lba)
			}
		}
		if _, err := view.Deactivate(t.now); err != nil {
			if !errors.Is(err, ErrOutOfSpace) {
				return fmt.Errorf("torture: snapshot %d deactivate: %w", id, err)
			}
			t.opErr()
		}
	}
	return nil
}
