// Package sim is a small deterministic discrete-event simulation engine:
// an event queue with stable FIFO ordering for simultaneous events, plus
// capacity-limited resources and basic statistics used by the network
// simulator.  It plays the role of the event-driven core of the paper's
// (Java) communication simulator.
//
// The engine is built for throughput on the simulator's hot path: events
// live inline in a value-typed 4-ary min-heap (no per-event pointer
// boxing), their payloads sit in a free-listed arena that is reused in
// steady state (scheduling does not allocate once the backing arrays
// have grown to the working-set size), and cancellation is O(1) by
// tombstoning the event's arena slot — the stale heap entry is discarded
// lazily when it surfaces at the top.
package sim

import (
	"context"
	"fmt"
	"time"
)

// Engine is a discrete-event simulator clock and pending-event queue.
// Events scheduled for the same instant run in scheduling order, which
// keeps simulations deterministic.
type Engine struct {
	now     time.Duration
	seq     uint64
	stepped uint64
	live    int // pending events, excluding tombstoned (cancelled) ones

	// heap is a 4-ary min-heap of inline entries ordered by (at, seq).
	// A 4-ary layout halves the tree depth of a binary heap and keeps
	// sibling comparisons inside one or two cache lines, which measurably
	// beats container/heap's pointer-chasing interface dispatch here.
	heap []heapEntry
	// arena holds event payloads; heap entries reference slots by index.
	// Freed slots chain through a free list and are reused, so the
	// backing array stops growing once it covers the peak backlog.
	arena []eventSlot
	free  int32 // head of the free-slot list, -1 when empty

	// probe, when non-nil, is sampled at every probeInterval boundary of
	// simulated time (see SetProbe).  The disabled path costs one nil
	// check per Step and allocates nothing.
	probe         Probe
	probeInterval time.Duration
	probeNext     time.Duration
}

// Probe observes the engine at fixed simulated-time boundaries.  It is
// the telemetry hook of the tracing layer: Step calls Sample(t, n) for
// every boundary t the clock crosses, before executing the event that
// crosses it, with n the events executed so far.  Sampling happens
// outside the event queue — a probe never schedules events, so a probed
// run executes exactly the same events as an unprobed one (Processed
// and every model counter are unaffected).  Sample must not mutate the
// model; it runs on the engine's goroutine.
type Probe interface {
	Sample(now time.Duration, processed uint64)
}

// heapEntry is one inline heap element.  It carries the ordering key
// (at, seq) so comparisons never touch the arena, plus the arena slot of
// the payload.  Entries whose slot no longer holds their seq are
// tombstones left by Cancel and are discarded when popped.
type heapEntry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// eventSlot is one arena cell: the payload of a pending event, or a
// free-list node.  seq is the occupant's sequence number (0 when free);
// gen counts how many times the slot has been recycled, letting EventID
// detect stale handles in O(1).
type eventSlot struct {
	fn   func()
	afn  func(any)
	arg  any
	seq  uint64
	gen  uint32
	next int32 // next free slot when on the free list
}

// New returns an engine with the clock at zero and no pending events.
func New() *Engine {
	return &Engine{free: -1}
}

// Now returns the current simulation time.
func (e *Engine) Now() time.Duration { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.stepped }

// Pending returns the number of events waiting to run.
func (e *Engine) Pending() int { return e.live }

// Reserve pre-sizes the engine for at least n simultaneously pending
// events, growing the heap and payload arena in one step so a model
// that knows its peak backlog (e.g. netsim's batch-event volume) avoids
// the early doubling reallocations.  It never shrinks, and reserving
// less than the current capacity is a no-op.
func (e *Engine) Reserve(n int) {
	if n > cap(e.heap) {
		h := make([]heapEntry, len(e.heap), n)
		copy(h, e.heap)
		e.heap = h
	}
	if n > cap(e.arena) {
		a := make([]eventSlot, len(e.arena), n)
		copy(a, e.arena)
		e.arena = a
	}
}

// SetProbe installs (or, with a nil probe, removes) the engine's
// sampling probe.  The first sample fires at the first multiple of
// interval strictly after the current clock, then every interval of
// simulated time after that — boundaries are exact multiples of the
// interval, so two runs of the same model sample at identical instants
// regardless of their event times.  interval must be positive when a
// probe is installed.
func (e *Engine) SetProbe(p Probe, interval time.Duration) {
	if p == nil {
		e.probe = nil
		return
	}
	if interval <= 0 {
		panic(fmt.Sprintf("sim: probe interval must be positive, got %v", interval))
	}
	e.probe = p
	e.probeInterval = interval
	e.probeNext = (e.now/interval + 1) * interval
}

// runProbe fires the probe for every interval boundary up to and
// including t, advancing the clock to each boundary first so time-based
// statistics (resource busy time) are exact at the sampling instant.
// It is kept out of line so the probe-disabled Step stays small.
func (e *Engine) runProbe(t time.Duration) {
	for t >= e.probeNext {
		if e.probeNext > e.now {
			e.now = e.probeNext
		}
		e.probe.Sample(e.probeNext, e.stepped)
		e.probeNext += e.probeInterval
	}
}

// EventID identifies a scheduled event for cancellation.  It encodes
// the event's arena slot and the slot's generation, so cancelling an
// event that already ran (or was already cancelled) is detected in O(1)
// and returns false.
type EventID uint64

// Schedule runs fn after delay of simulated time.  A negative delay is
// treated as zero (run at the current instant, after already-queued
// events for that instant).
func (e *Engine) Schedule(delay time.Duration, fn func()) EventID {
	if delay < 0 {
		delay = 0
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute simulation time t.  Scheduling in the past is an
// error that panics: it indicates a broken model rather than a
// recoverable condition.
func (e *Engine) At(t time.Duration, fn func()) EventID {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	return e.push(t, fn, nil, nil)
}

// ScheduleCall runs fn(arg) after delay of simulated time, with the
// same ordering semantics as Schedule.  It is the allocation-free form
// for hot paths: with fn a package-level function and arg a pointer to
// reusable state, scheduling captures no closure, so the call allocates
// nothing once the engine's arrays have reached steady state.
func (e *Engine) ScheduleCall(delay time.Duration, fn func(any), arg any) EventID {
	if delay < 0 {
		delay = 0
	}
	if fn == nil {
		panic("sim: scheduling nil event function")
	}
	return e.push(e.now+delay, nil, fn, arg)
}

// push stores the payload in a (reused) arena slot and pushes the heap
// entry.  Exactly one of fn and afn is non-nil.
func (e *Engine) push(t time.Duration, fn func(), afn func(any), arg any) EventID {
	e.seq++
	slot := e.allocSlot()
	sl := &e.arena[slot]
	sl.fn, sl.afn, sl.arg, sl.seq = fn, afn, arg, e.seq
	e.heapPush(heapEntry{at: t, seq: e.seq, slot: slot})
	e.live++
	return EventID(uint64(sl.gen)<<32 | uint64(slot+1))
}

// allocSlot pops a free arena slot, growing the arena only when the
// free list is empty.
func (e *Engine) allocSlot() int32 {
	if e.free >= 0 {
		s := e.free
		e.free = e.arena[s].next
		return s
	}
	e.arena = append(e.arena, eventSlot{})
	return int32(len(e.arena) - 1)
}

// freeSlot recycles an arena slot: payload references are dropped, the
// generation advances (invalidating outstanding EventIDs), and the slot
// joins the free list.
func (e *Engine) freeSlot(slot int32) {
	sl := &e.arena[slot]
	sl.fn, sl.afn, sl.arg, sl.seq = nil, nil, nil, 0
	sl.gen++
	sl.next = e.free
	e.free = slot
}

// Cancel removes a pending event.  It reports whether the event was
// found (an already-executed or unknown ID returns false).  The cost is
// O(1): the arena slot is tombstoned and recycled immediately, and the
// event's heap entry is discarded lazily when it reaches the top.
func (e *Engine) Cancel(id EventID) bool {
	slot := int32(uint32(id)) - 1
	if slot < 0 || int(slot) >= len(e.arena) {
		return false
	}
	sl := &e.arena[slot]
	if sl.seq == 0 || sl.gen != uint32(id>>32) {
		return false
	}
	e.freeSlot(slot)
	e.live--
	return true
}

// Step executes the next pending event, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	for len(e.heap) > 0 {
		top := e.heap[0]
		sl := &e.arena[top.slot]
		if sl.seq != top.seq {
			// Tombstone left by Cancel: the slot was recycled (and
			// possibly reoccupied under a different seq).  Drop it.
			e.heapPop()
			continue
		}
		e.heapPop()
		if e.probe != nil && top.at >= e.probeNext {
			// Sample every boundary the clock is about to cross, before
			// the event that crosses it executes.
			e.runProbe(top.at)
		}
		e.now = top.at
		e.stepped++
		e.live--
		fn, afn, arg := sl.fn, sl.afn, sl.arg
		// Free before invoking so the payload can reuse the slot when it
		// schedules follow-up events.
		e.freeSlot(top.slot)
		if fn != nil {
			fn()
		} else {
			afn(arg)
		}
		return true
	}
	return false
}

// peek returns the earliest live heap entry, discarding any tombstones
// that have surfaced at the top.  ok is false when no live event remains.
func (e *Engine) peek() (top heapEntry, ok bool) {
	for len(e.heap) > 0 {
		top = e.heap[0]
		if e.arena[top.slot].seq != top.seq {
			e.heapPop()
			continue
		}
		return top, true
	}
	return heapEntry{}, false
}

// Run executes events until none remain or the event budget is
// exhausted, returning the number executed.  A budget of 0 means
// unlimited.
func (e *Engine) Run(budget uint64) uint64 {
	var n uint64
	for {
		if budget > 0 && n >= budget {
			return n
		}
		if !e.Step() {
			return n
		}
		n++
	}
}

// ctxCheckInterval is how many events RunContext executes between
// cancellation checks.  Checking ctx.Err() per event would dominate the
// hot loop; every 4096 events keeps cancellation latency well under a
// millisecond of wall time for any realistic model.
const ctxCheckInterval = 4096

// RunContext executes events until none remain, the event budget is
// exhausted, or ctx is cancelled.  A budget of 0 means unlimited.  It
// returns the number of events executed and, when the run was cut short
// by cancellation, the context's error.  On cancellation the engine is
// left intact (clock and pending events preserved), so a caller may
// inspect or resume it.
func (e *Engine) RunContext(ctx context.Context, budget uint64) (uint64, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	var n uint64
	for {
		if budget > 0 && n >= budget {
			return n, nil
		}
		if n%ctxCheckInterval == ctxCheckInterval-1 {
			if err := ctx.Err(); err != nil {
				return n, err
			}
		}
		if !e.Step() {
			return n, nil
		}
		n++
	}
}

// RunUntil executes events with time at or before t, then advances the
// clock to t.  Events scheduled after t remain pending.
func (e *Engine) RunUntil(t time.Duration) {
	for {
		top, ok := e.peek()
		if !ok || top.at > t {
			break
		}
		e.Step()
	}
	if e.probe != nil && t >= e.probeNext {
		// Boundaries between the last event and t fire now, so a window
		// advance samples the same instants a serial run would.
		e.runProbe(t)
	}
	if t > e.now {
		e.now = t
	}
}

// entryLess orders heap entries by time, then by scheduling sequence,
// which is what makes simultaneous events run FIFO.
func entryLess(a, b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush appends the entry and sifts it up the 4-ary heap.
func (e *Engine) heapPush(x heapEntry) {
	e.heap = append(e.heap, x)
	h := e.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !entryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// heapPop removes and returns the minimum entry, sifting the displaced
// tail element down the 4-ary heap.
func (e *Engine) heapPop() heapEntry {
	h := e.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	e.heap = h[:n]
	h = e.heap
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if entryLess(h[j], h[m]) {
				m = j
			}
		}
		if !entryLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}
