package iosnap

import (
	"errors"

	"iosnap/internal/sim"
)

// ErrFrozen is returned for writes attempted while the device is frozen.
var ErrFrozen = errors.New("iosnap: device frozen")

// Freeze quiesces the write path, the block-layer half of the freeze/
// unfreeze handshake the paper describes (§2: file systems flush dirty
// state and block I/O so the block device can take a consistent snapshot;
// §5.8: "the application must quiesce writes before issuing a snapshot
// create"). While frozen, writes and trims — on the active device and on
// writable views — fail with ErrFrozen; reads and snapshot operations
// proceed.
func (f *FTL) Freeze(now sim.Time) (sim.Time, error) {
	if f.Closed {
		return now, ErrClosed
	}
	f.frozen = true
	return now, nil
}

// Unfreeze resumes the write path.
func (f *FTL) Unfreeze(now sim.Time) (sim.Time, error) {
	if f.Closed {
		return now, ErrClosed
	}
	f.frozen = false
	return now, nil
}

// Frozen reports whether the device is currently quiesced.
func (f *FTL) Frozen() bool { return f.frozen }

// FrozenSnapshot is the safe-create convenience: freeze, snapshot,
// unfreeze, returning the snapshot.
func (f *FTL) FrozenSnapshot(now sim.Time) (*Snapshot, sim.Time, error) {
	if _, err := f.Freeze(now); err != nil {
		return nil, now, err
	}
	snap, done, err := f.CreateSnapshot(now)
	if _, uerr := f.Unfreeze(done); uerr != nil && err == nil {
		err = uerr
	}
	return snap, done, err
}
