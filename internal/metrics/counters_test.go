package metrics

import (
	"sync"
	"testing"
)

func TestCounterSetBasics(t *testing.T) {
	s := NewCounterSet()
	s.Counter("a").Inc()
	s.Counter("a").Add(4)
	s.Counter("b").Add(7)
	if got := s.Counter("a").Value(); got != 5 {
		t.Fatalf("a = %d, want 5", got)
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap["a"] != 5 || snap["b"] != 7 {
		t.Fatalf("snapshot = %v", snap)
	}
}

func TestCounterSetConcurrent(t *testing.T) {
	s := NewCounterSet()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Counter("shared").Inc()
				s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared = %d, want 8000", got)
	}
}
