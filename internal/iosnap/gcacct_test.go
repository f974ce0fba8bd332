package iosnap

import (
	"testing"

	"iosnap/internal/logcore"
	"iosnap/internal/sim"
)

// The cleaner's victim policies live in the log core; these test-only
// names keep the policy tables below short.
type VictimPolicy = logcore.VictimPolicy

const (
	VictimGreedy      = logcore.VictimGreedy
	VictimCostBenefit = logcore.VictimCostBenefit
)

// churnVictimState drives an FTL through writes, overwrites, trims, and
// snapshot create/delete churn, leaving a mix of fresh and stale accounting
// caches behind for the selection tests to chew on.
func churnVictimState(t *testing.T, f *FTL) sim.Time {
	t.Helper()
	ss := f.SectorSize()
	now := sim.Time(0)
	var snaps []SnapshotID
	for round := 0; round < 6; round++ {
		for lba := int64(0); lba < 60; lba++ {
			done, err := f.Write(now, lba, sectorPattern(ss, lba, byte(round+1)))
			if err != nil {
				t.Fatalf("round %d write lba %d: %v", round, lba, err)
			}
			now = done
			f.sched.RunUntil(now)
		}
		if round%2 == 0 {
			s, done, err := f.CreateSnapshot(now)
			if err != nil {
				t.Fatalf("round %d snapshot: %v", round, err)
			}
			now = done
			snaps = append(snaps, s.ID)
		}
		if round == 3 && len(snaps) > 1 {
			done, err := f.DeleteSnapshot(now, snaps[0])
			if err != nil {
				t.Fatalf("delete snapshot %d: %v", snaps[0], err)
			}
			now = done
			snaps = snaps[1:]
		}
		if _, err := f.Trim(now, int64(10*round), 5); err != nil {
			t.Fatalf("round %d trim: %v", round, err)
		}
	}
	return f.sched.Drain(now)
}

// TestSelectVictimMatchesScratch pins the tentpole's correctness bar: the
// heap/counter-based selection must choose the same victim, with the same
// merged-valid estimate, as a from-scratch merge over every used segment —
// under both victim policies and with snapshot churn in the history.
func TestSelectVictimMatchesScratch(t *testing.T) {
	for _, policy := range []VictimPolicy{VictimGreedy, VictimCostBenefit} {
		cfg := testConfig()
		cfg.VictimPolicy = policy
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		now := churnVictimState(t, f)
		for i := 0; i < 4; i++ {
			gotSeg, gotValid, _, _ := f.selectVictim()
			wantSeg, wantValid := f.selectVictimScratch()
			if gotSeg != wantSeg || gotValid != wantValid {
				t.Fatalf("policy %v pass %d: incremental selection (%d, %d) != scratch (%d, %d)",
					policy, i, gotSeg, gotValid, wantSeg, wantValid)
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("policy %v pass %d: %v", policy, i, err)
			}
			// Mutate between passes: more overwrites, another snapshot flip.
			for lba := int64(0); lba < 20; lba++ {
				done, werr := f.Write(now, lba, sectorPattern(f.SectorSize(), lba, byte(40+i)))
				if werr != nil {
					t.Fatalf("policy %v pass %d write: %v", policy, i, werr)
				}
				now = done
			}
			if i == 1 {
				if _, done, serr := f.CreateSnapshot(now); serr == nil {
					now = done
				}
			}
			now = f.sched.Drain(now)
		}
	}
}

// TestSelectVictimNeverFullyValid pins the zero-merged-invalid fix: a
// segment with nothing reclaimable must never be chosen, even when other
// segments make "any invalid exists" true.
func TestSelectVictimNeverFullyValid(t *testing.T) {
	for _, policy := range []VictimPolicy{VictimGreedy, VictimCostBenefit} {
		cfg := testConfig()
		cfg.VictimPolicy = policy
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		churnVictimState(t, f)
		victim, mergedValid, _, _ := f.selectVictim()
		if victim < 0 {
			continue
		}
		pps := f.cfg.Nand.PagesPerSegment
		if mergedValid >= pps {
			t.Fatalf("policy %v: victim %d is fully merged-valid (%d/%d)", policy, victim, mergedValid, pps)
		}
	}
}

// TestTortureSnapshotChurn runs the snapshot-lifecycle storm mix: heavy
// create/delete/activate/deactivate traffic plus forced cleans and scrub
// passes, with the gcacct cross-check firing inside every CheckInvariants.
func TestTortureSnapshotChurn(t *testing.T) {
	for _, seed := range []uint64{2, 13, 77} {
		rep, err := Torture(tortureConfig(), TortureOptions{
			Seed:          seed,
			Steps:         900,
			SnapshotChurn: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if rep.Checks == 0 {
			t.Fatalf("seed %d: no invariant checks ran", seed)
		}
		if rep.FinalStats.GCCacheRebuilds == 0 {
			t.Fatalf("seed %d: churn run never rebuilt a cleaning cache (%s)", seed, rep)
		}
	}
}

// TestTortureSnapshotChurnDeterministic re-runs one churn seed and demands
// bit-identical accounting-visible outcomes: the incremental selection path
// must not introduce run-to-run nondeterminism.
func TestTortureSnapshotChurnDeterministic(t *testing.T) {
	run := func() Stats {
		rep, err := Torture(tortureConfig(), TortureOptions{
			Seed:          13,
			Steps:         900,
			SnapshotChurn: true,
		})
		if err != nil {
			t.Fatalf("%v (%s)", err, rep)
		}
		return rep.FinalStats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("churn run not deterministic:\n run1: %+v\n run2: %+v", a, b)
	}
}
