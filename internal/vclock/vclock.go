// Package vclock provides the virtual clock and event queue that drive the
// experimental framework's fast-forwarded simulations (paper §3.4): results
// are reported "over a virtual time that's calculated independently of the
// underlying hardware clock", and the asynchronous mode's leader "uses a
// priority queue-based task scheduler to generate tasks in a streaming
// fashion and dispatch them in the correct order".
package vclock

import (
	"container/heap"
	"fmt"
)

// Seconds is virtual time measured in seconds from job start.
type Seconds = float64

// Clock tracks monotonically advancing virtual time.
type Clock struct {
	now Seconds
}

// Now returns the current virtual time.
func (c *Clock) Now() Seconds { return c.now }

// AdvanceTo moves the clock forward; rewinding is an error because event
// ordering in the simulator depends on monotonicity.
func (c *Clock) AdvanceTo(t Seconds) error {
	if t < c.now {
		return fmt.Errorf("vclock: cannot rewind from %.3f to %.3f", c.now, t)
	}
	c.now = t
	return nil
}

// Event is a scheduled occurrence in virtual time. Payload is opaque to the
// queue; the sequence number breaks ties deterministically (FIFO within the
// same instant).
type Event struct {
	Time    Seconds
	Seq     uint64
	Payload interface{}
}

// Queue is a deterministic min-heap of events ordered by (Time, Seq).
// The zero value is ready to use. Not safe for concurrent use.
type Queue struct {
	h   eventHeap
	seq uint64
}

// Push schedules payload at time t and returns the assigned sequence.
func (q *Queue) Push(t Seconds, payload interface{}) uint64 {
	q.seq++
	heap.Push(&q.h, Event{Time: t, Seq: q.seq, Payload: payload})
	return q.seq
}

// Pop removes and returns the earliest event; ok is false when empty.
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return heap.Pop(&q.h).(Event), true
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Len returns the number of queued events.
func (q *Queue) Len() int { return len(q.h) }

type eventHeap []Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Seq < h[j].Seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(Event)) }

func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
