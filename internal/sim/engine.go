// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock measured in machine cycles and executes
// scheduled events in (time, insertion-order) order, so a given event program
// always produces the same trace. It is the substrate under the EARTH
// abstract machine in package earth: execution units, synchronization units,
// and the interconnection network are all expressed as events and resources
// on one Engine.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is a point on the virtual clock, in cycles.
type Time int64

// Infinity is a time later than any event the engine will ever run.
const Infinity Time = math.MaxInt64

// Event is a scheduled callback. Events are ordered by time; ties are broken
// by scheduling order so simulations are reproducible.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int // heap index, -1 when not queued
}

// At reports the virtual time this event fires at.
func (e *Event) At() Time { return e.at }

// Cancel prevents a pending event from firing. Cancelling an event that has
// already fired (or was already cancelled) is a no-op.
func (e *Event) Cancel() { e.dead = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx, q[j].idx = i, j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	queue eventQueue
	nRun  uint64
}

// NewEngine returns an engine with the clock at zero and an empty calendar.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events reports how many events have been executed so far.
func (e *Engine) Events() uint64 { return e.nRun }

// Schedule arranges for fn to run after delay cycles. It panics if delay is
// negative: events cannot fire in the past.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time at, which must
// not be earlier than Now.
func (e *Engine) ScheduleAt(at Time, fn func()) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Step runs the single earliest pending event and reports whether one ran.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.nRun++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the calendar is empty and returns the final
// virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with firing time <= deadline. It returns the
// virtual time of the last executed event (or the starting time when no
// event fired). Events scheduled later than deadline remain queued.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.queue) > 0 {
		// Peek at the earliest live event.
		ev := e.queue[0]
		if ev.dead {
			heap.Pop(&e.queue)
			continue
		}
		if ev.at > deadline {
			break
		}
		e.Step()
	}
	return e.now
}

// Pending reports the number of events still queued (including cancelled
// events not yet discarded).
func (e *Engine) Pending() int { return len(e.queue) }
