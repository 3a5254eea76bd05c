package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 safe for concurrent use. The
// zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1 and returns the new value.
func (c *Counter) Inc() int64 { return c.v.Add(1) }

// Add adds n and returns the new value.
func (c *Counter) Add(n int64) int64 { return c.v.Add(n) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// CounterSet is a named registry of counters for a serving component. Lookups
// after first use are lock-free on the Counter itself; creation is guarded.
type CounterSet struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// NewCounterSet returns an empty counter registry.
func NewCounterSet() *CounterSet {
	return &CounterSet{m: make(map[string]*Counter)}
}

// Counter returns the named counter, creating it on first use.
func (s *CounterSet) Counter(name string) *Counter {
	s.mu.RLock()
	c, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.m[name]; ok {
		return c
	}
	c = &Counter{}
	s.m[name] = c
	return c
}

// Snapshot returns a point-in-time copy of every counter value.
func (s *CounterSet) Snapshot() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.m))
	for name, c := range s.m {
		out[name] = c.Value()
	}
	return out
}

// Rollup sums counter snapshots key-wise — the fleet-wide view of a set
// of per-job counter sets. Keys missing from a snapshot contribute zero,
// so heterogeneous jobs (different pre-registered sets) still roll up.
func Rollup(snaps ...map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range snaps {
		for name, v := range s {
			out[name] += v
		}
	}
	return out
}
