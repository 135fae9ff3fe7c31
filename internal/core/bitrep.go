package core

import "fmt"

// Bitwise-reproducibility support (paper Sec. III-C2): "the simulation
// context keeps a map from filenames to checksums that can be updated
// through a command line utility at the time when the first simulation is
// run". SIMFS_Bitrep compares a re-simulated file's checksum against the
// registered original.

// RegisterChecksum stores the original checksum of a file, as computed by
// the simulator-specific driver checksum at initial-simulation time.
func (v *Virtualizer) RegisterChecksum(ctxName, filename string, sum uint64) error {
	cs, step, err := v.lockedStep(ctxName, filename)
	if err != nil {
		return err
	}
	defer cs.mu.Unlock()
	cs.checksums[step] = sum
	return nil
}

// Bitrep implements SIMFS_Bitrep: it checks whether the given (current)
// file content matches the originally produced file, by comparing the
// driver-computed checksums. The returned flag is true when the contents
// are bitwise identical. An error is returned if no original checksum was
// registered for the file. The checksum itself is computed outside the
// shard lock.
func (v *Virtualizer) Bitrep(ctxName, filename string, content []byte) (bool, error) {
	cs, step, err := v.lockedStep(ctxName, filename)
	if err != nil {
		return false, err
	}
	orig, found := cs.checksums[step]
	driver := cs.driver
	cs.mu.Unlock()
	if !found {
		return false, fmt.Errorf("core: %w: no registered checksum for %q (run the checksum utility after the initial simulation)", ErrInvalid, filename)
	}
	return driver.Checksum(content) == orig, nil
}
