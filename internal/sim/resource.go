package sim

import (
	"fmt"
	"time"
)

// Resource is a capacity-limited server with a FIFO wait queue, driven by
// an Engine.  It models hardware units that serve one job at a time per
// unit — teleporters in a T' node set, generators in a G node, queue
// purifiers in a P node.
//
// Acquire enqueues a job; when a unit is free the job's continuation
// runs (at the engine's current time).  The continuation must eventually
// call Release exactly once (typically after scheduling the service
// latency).  Continuations take the call form fn(arg) of
// Engine.ScheduleCall, so queueing one captures no closure, and the
// FIFO wait queue grants its oldest job in O(1).
type Resource struct {
	name     string
	nameFn   func() string
	engine   *Engine
	capacity int
	inUse    int
	waiting  waitQueue

	// freeJobs recycles the per-Serve bookkeeping records, so the
	// acquire-serve-release pattern allocates nothing in steady state.
	freeJobs *serveJob

	// Statistics.
	acquired   uint64
	maxQueue   int
	busyTime   time.Duration
	lastChange time.Duration
}

// serveJob is the reusable record of one Serve call: the service
// latency to hold the unit for and the completion continuation.
// Records cycle through the owning resource's free list, and both the
// queued grant and the scheduled completion event carry the record as
// their argument, so a Serve performs no per-call allocation.
type serveJob struct {
	r       *Resource
	latency time.Duration
	done    func(any)
	arg     any
	next    *serveJob // free-list link
}

// NewResource creates a resource with the given unit count.
func NewResource(engine *Engine, name string, capacity int) (*Resource, error) {
	if engine == nil {
		return nil, fmt.Errorf("sim: resource %q needs an engine", name)
	}
	if capacity < 1 {
		return nil, fmt.Errorf("sim: resource %q capacity must be >= 1, got %d", name, capacity)
	}
	return &Resource{name: name, engine: engine, capacity: capacity}, nil
}

// NewLazyResource is NewResource with deferred naming: name is called at
// most once, the first time the resource's name is actually needed (an
// error message, a statistics report).  Simulators that build thousands
// of resources per run use it to keep name formatting off the build
// path.
func NewLazyResource(engine *Engine, name func() string, capacity int) (*Resource, error) {
	if name == nil {
		return nil, fmt.Errorf("sim: lazy resource needs a name function")
	}
	if engine == nil {
		return nil, fmt.Errorf("sim: resource needs an engine")
	}
	if capacity < 1 {
		return nil, fmt.Errorf("sim: resource capacity must be >= 1, got %d", capacity)
	}
	return &Resource{nameFn: name, engine: engine, capacity: capacity}, nil
}

// Name returns the resource's name, resolving a lazy name on first use.
func (r *Resource) Name() string {
	if r.name == "" && r.nameFn != nil {
		r.name = r.nameFn()
		r.nameFn = nil
	}
	return r.name
}

// Capacity returns the number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently serving jobs.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of jobs waiting for a unit.
func (r *Resource) QueueLen() int { return r.waiting.len() }

// Acquire requests a unit and runs fn(arg) once one is available.  If a
// unit is free now, fn runs synchronously.
func (r *Resource) Acquire(fn func(any), arg any) {
	if fn == nil {
		panic(fmt.Sprintf("sim: resource %q: nil job", r.Name()))
	}
	if r.inUse < r.capacity {
		r.grab()
		fn(arg)
		return
	}
	r.enqueue(call{fn, arg})
}

// Release frees a unit, immediately handing it to the oldest waiting job
// if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: resource %q released more than acquired", r.Name()))
	}
	r.accountBusy()
	r.inUse--
	if r.waiting.len() == 0 {
		return
	}
	c := r.waiting.pop()
	r.grab()
	c.fn(c.arg)
}

// Serve is the common acquire-serve-release pattern: wait for a unit,
// hold it for latency of simulated time, then run done(arg) (done may
// be nil).  Unlike hand-rolling Acquire+Schedule+Release, Serve
// allocates nothing in steady state: its bookkeeping record is recycled
// through a free list, and with done a package-level function neither
// the queued grant nor the completion event captures a closure.
func (r *Resource) Serve(latency time.Duration, done func(any), arg any) {
	j := r.newJob(latency, done, arg)
	if r.inUse < r.capacity {
		r.grab()
		j.start()
		return
	}
	r.enqueue(call{serveGranted, j})
}

// enqueue appends a waiter and tracks the queue high-water mark.
func (r *Resource) enqueue(c call) {
	r.waiting.push(c)
	if n := r.waiting.len(); n > r.maxQueue {
		r.maxQueue = n
	}
}

// newJob takes a serve record off the free list (or mints one) and
// fills it for this call.
func (r *Resource) newJob(latency time.Duration, done func(any), arg any) *serveJob {
	j := r.freeJobs
	if j != nil {
		r.freeJobs = j.next
		j.next = nil
	} else {
		j = &serveJob{r: r}
	}
	j.latency, j.done, j.arg = latency, done, arg
	return j
}

// start schedules the job's completion after its service latency; the
// unit has just been granted.
func (j *serveJob) start() {
	j.r.engine.ScheduleCall(j.latency, serveComplete, j)
}

// serveGranted is the queued continuation of a Serve that had to wait:
// Release has granted it a unit, so its service starts now.
func serveGranted(a any) { a.(*serveJob).start() }

// serveComplete is the completion event of a Serve: release the unit,
// then run the caller's continuation.  It is a package-level function so
// scheduling it captures no closure.
func serveComplete(a any) {
	j := a.(*serveJob)
	r, done, arg := j.r, j.done, j.arg
	j.done, j.arg = nil, nil
	j.next = r.freeJobs
	r.freeJobs = j
	r.Release()
	if done != nil {
		done(arg)
	}
}

func (r *Resource) grab() {
	r.accountBusy()
	r.inUse++
	r.acquired++
}

func (r *Resource) accountBusy() {
	now := r.engine.Now()
	r.busyTime += time.Duration(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// Stats returns cumulative counters: total acquisitions, the maximum
// observed queue length, and the aggregate unit-busy time (unit-seconds
// of service).
func (r *Resource) Stats() (acquired uint64, maxQueue int, busy time.Duration) {
	r.accountBusy()
	return r.acquired, r.maxQueue, r.busyTime
}

// Utilization returns the fraction of unit-time spent busy since the
// start of the simulation (0 if no time has passed).
func (r *Resource) Utilization() float64 {
	r.accountBusy()
	total := time.Duration(r.capacity) * r.engine.Now()
	if total <= 0 {
		return 0
	}
	return float64(r.busyTime) / float64(total)
}

// Tally accumulates scalar observations: count, sum, min, max and mean.
type Tally struct {
	n        uint64
	sum      float64
	min, max float64
}

// Add records one observation.
func (t *Tally) Add(x float64) {
	if t.n == 0 || x < t.min {
		t.min = x
	}
	if t.n == 0 || x > t.max {
		t.max = x
	}
	t.n++
	t.sum += x
}

// Count returns the number of observations.
func (t *Tally) Count() uint64 { return t.n }

// Sum returns the sum of observations.
func (t *Tally) Sum() float64 { return t.sum }

// Mean returns the average observation (0 when empty).
func (t *Tally) Mean() float64 {
	if t.n == 0 {
		return 0
	}
	return t.sum / float64(t.n)
}

// Min returns the smallest observation (0 when empty).
func (t *Tally) Min() float64 { return t.min }

// Max returns the largest observation (0 when empty).
func (t *Tally) Max() float64 { return t.max }
