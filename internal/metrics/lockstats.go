package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// LockStats summarizes the acquisition history of a ContendedMutex. The
// sharded Virtualizer exposes one per context shard, so operators can see
// whether a workload serializes on a single context.
//
//simfs:exhaustive
type LockStats struct {
	// Acquisitions counts successful Lock calls.
	Acquisitions uint64 `json:"lock_acquisitions,omitempty"`
	// Contended counts acquisitions that had to wait for another holder.
	Contended uint64 `json:"lock_contended,omitempty"`
	// Wait is the cumulative time spent blocked in contended acquisitions.
	Wait time.Duration `json:"lock_wait_ns,omitempty"`
}

// Add accumulates other into s.
//
//simfs:sync LockStats
func (s *LockStats) Add(other LockStats) {
	s.Acquisitions += other.Acquisitions
	s.Contended += other.Contended
	s.Wait += other.Wait
}

// ContendedMutex is a sync.Mutex that counts acquisitions and contention.
// The fast path (uncontended TryLock) costs one atomic add over a plain
// mutex; the timing overhead is only paid when the lock is actually
// contended. The zero value is ready to use.
type ContendedMutex struct {
	mu           sync.Mutex
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	waitNs       atomic.Int64
}

// Lock acquires the mutex, recording contention if it had to wait.
//
//simfs:allow wallclock contention wait times are wall-time observability, not simulation state
func (m *ContendedMutex) Lock() {
	if m.mu.TryLock() {
		m.acquisitions.Add(1)
		return
	}
	start := time.Now()
	m.mu.Lock()
	m.waitNs.Add(int64(time.Since(start)))
	m.contended.Add(1)
	m.acquisitions.Add(1)
}

// Unlock releases the mutex.
func (m *ContendedMutex) Unlock() { m.mu.Unlock() }

// Stats returns a snapshot of the counters.
func (m *ContendedMutex) Stats() LockStats {
	return LockStats{
		Acquisitions: m.acquisitions.Load(),
		Contended:    m.contended.Load(),
		Wait:         time.Duration(m.waitNs.Load()),
	}
}
