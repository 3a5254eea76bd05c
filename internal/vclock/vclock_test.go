package vclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestClock(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock = %v", c.Now())
	}
	if err := c.AdvanceTo(5); err != nil {
		t.Fatal(err)
	}
	if c.Now() != 5 {
		t.Fatalf("now = %v", c.Now())
	}
	if err := c.AdvanceTo(3); err == nil {
		t.Fatal("rewind must error")
	}
	if c.Now() != 5 {
		t.Fatal("a refused rewind must leave the clock alone")
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	q.Push(3, "c")
	q.Push(1, "a")
	q.Push(2, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		e, ok := q.Pop()
		if !ok || e.Payload.(string) != w {
			t.Fatalf("got %v want %s", e.Payload, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("empty queue must report !ok")
	}
}

func TestQueueFIFOAtSameTime(t *testing.T) {
	var q Queue
	for i := 0; i < 10; i++ {
		q.Push(7, i)
	}
	for i := 0; i < 10; i++ {
		e, _ := q.Pop()
		if e.Payload.(int) != i {
			t.Fatalf("tie-break violated: got %v want %d", e.Payload, i)
		}
	}
}

func TestQueuePeekLen(t *testing.T) {
	var q Queue
	if _, ok := q.Peek(); ok {
		t.Fatal("peek on empty")
	}
	q.Push(2, "x")
	q.Push(1, "y")
	e, ok := q.Peek()
	if !ok || e.Payload.(string) != "y" {
		t.Fatalf("peek = %v", e.Payload)
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	q.Pop()
	if q.Len() != 1 {
		t.Fatalf("len after pop = %d", q.Len())
	}
}

func TestQueueSortsArbitraryInput(t *testing.T) {
	// Property: popping everything yields times in nondecreasing order.
	f := func(times []float64) bool {
		var q Queue
		for _, tm := range times {
			q.Push(tm, nil)
		}
		var popped []float64
		for {
			e, ok := q.Pop()
			if !ok {
				break
			}
			popped = append(popped, e.Time)
		}
		return sort.Float64sAreSorted(popped) && len(popped) == len(times)
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
