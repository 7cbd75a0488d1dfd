package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := New()
	var order []int
	e.Schedule(30*time.Microsecond, func() { order = append(order, 3) })
	e.Schedule(10*time.Microsecond, func() { order = append(order, 1) })
	e.Schedule(20*time.Microsecond, func() { order = append(order, 2) })
	if n := e.Run(0); n != 3 {
		t.Fatalf("ran %d events, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("execution order %v, want [1 2 3]", order)
		}
	}
	if e.Now() != 30*time.Microsecond {
		t.Errorf("clock = %v, want 30µs", e.Now())
	}
}

func TestEngineFIFOForSimultaneousEvents(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Microsecond, func() { order = append(order, i) })
	}
	e.Run(0)
	if !sort.IntsAreSorted(order) {
		t.Errorf("simultaneous events ran out of scheduling order: %v", order)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := New()
	var hits []time.Duration
	e.Schedule(time.Microsecond, func() {
		hits = append(hits, e.Now())
		e.Schedule(2*time.Microsecond, func() {
			hits = append(hits, e.Now())
		})
	})
	e.Run(0)
	if len(hits) != 2 || hits[0] != time.Microsecond || hits[1] != 3*time.Microsecond {
		t.Errorf("nested event times %v, want [1µs 3µs]", hits)
	}
}

func TestEngineNegativeDelayClampsToNow(t *testing.T) {
	e := New()
	ran := false
	e.Schedule(time.Millisecond, func() {
		e.Schedule(-time.Second, func() { ran = true })
	})
	e.Run(0)
	if !ran {
		t.Error("negative-delay event never ran")
	}
	if e.Now() != time.Millisecond {
		t.Errorf("clock = %v, want 1ms", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := New()
	e.Schedule(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At() in the past should panic")
			}
		}()
		e.At(0, func() {})
	})
	e.Run(0)
}

func TestEnginePanicsOnNilFunc(t *testing.T) {
	e := New()
	defer func() {
		if recover() == nil {
			t.Error("nil event function should panic")
		}
	}()
	e.Schedule(0, nil)
}

func TestEngineCancel(t *testing.T) {
	e := New()
	ran := false
	id := e.Schedule(time.Microsecond, func() { ran = true })
	if !e.Cancel(id) {
		t.Error("cancel of pending event should succeed")
	}
	if e.Cancel(id) {
		t.Error("double cancel should fail")
	}
	e.Run(0)
	if ran {
		t.Error("cancelled event ran")
	}
}

func TestEngineRunBudget(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() { count++ })
	}
	if n := e.Run(4); n != 4 || count != 4 {
		t.Errorf("budgeted run executed n=%d count=%d, want 4", n, count)
	}
	if e.Pending() != 6 {
		t.Errorf("pending = %d, want 6", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := New()
	var hits int
	e.Schedule(time.Microsecond, func() { hits++ })
	e.Schedule(2*time.Microsecond, func() { hits++ })
	e.Schedule(5*time.Microsecond, func() { hits++ })
	e.RunUntil(3 * time.Microsecond)
	if hits != 2 {
		t.Errorf("hits = %d, want 2", hits)
	}
	if e.Now() != 3*time.Microsecond {
		t.Errorf("clock = %v, want 3µs", e.Now())
	}
	e.Run(0)
	if hits != 3 {
		t.Errorf("final hits = %d, want 3", hits)
	}
}

func TestEngineProcessedCount(t *testing.T) {
	e := New()
	for i := 0; i < 7; i++ {
		e.Schedule(0, func() {})
	}
	e.Run(0)
	if e.Processed() != 7 {
		t.Errorf("processed = %d, want 7", e.Processed())
	}
}

// Property: regardless of insertion order, events run sorted by time.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		var ran []time.Duration
		for _, d := range delays {
			e.Schedule(time.Duration(d)*time.Nanosecond, func() {
				ran = append(ran, e.Now())
			})
		}
		e.Run(0)
		if len(ran) != len(delays) {
			return false
		}
		for i := 1; i < len(ran); i++ {
			if ran[i] < ran[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestResourceValidation(t *testing.T) {
	e := New()
	if _, err := NewResource(nil, "x", 1); err == nil {
		t.Error("nil engine should be rejected")
	}
	if _, err := NewResource(e, "x", 0); err == nil {
		t.Error("zero capacity should be rejected")
	}
}

func TestResourceServesUpToCapacity(t *testing.T) {
	e := New()
	r, err := NewResource(e, "teleporters", 2)
	if err != nil {
		t.Fatal(err)
	}
	var done []time.Duration
	for i := 0; i < 4; i++ {
		r.Serve(10*time.Microsecond, func(any) { done = append(done, e.Now()) }, nil)
	}
	e.Run(0)
	want := []time.Duration{10 * time.Microsecond, 10 * time.Microsecond, 20 * time.Microsecond, 20 * time.Microsecond}
	if len(done) != len(want) {
		t.Fatalf("completed %d jobs, want %d", len(done), len(want))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Errorf("job %d finished at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceFIFO(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "gen", 1)
	var order []int
	for i := 0; i < 5; i++ {
		r.Serve(time.Microsecond, func(a any) { order = append(order, a.(int)) }, i)
	}
	e.Run(0)
	if !sort.IntsAreSorted(order) {
		t.Errorf("jobs completed out of FIFO order: %v", order)
	}
}

// TestResourceAcquireCallForm checks the call-form Acquire: a free unit
// runs the continuation synchronously with its argument, a busy
// resource queues continuations and grants them in FIFO order on
// Release, and the queue high-water mark is recorded.
func TestResourceAcquireCallForm(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "purifier", 1)
	var order []int
	record := func(a any) { order = append(order, a.(int)) }
	for i := 0; i < 4; i++ {
		r.Acquire(record, i)
	}
	if len(order) != 1 || r.QueueLen() != 3 {
		t.Fatalf("order=%v queue=%d, want one grant and 3 queued", order, r.QueueLen())
	}
	for i := 0; i < 3; i++ {
		r.Release()
	}
	if !sort.IntsAreSorted(order) || len(order) != 4 {
		t.Errorf("grants %v, want 0..3 in order", order)
	}
	if _, maxQ, _ := r.Stats(); maxQ != 3 {
		t.Errorf("max queue = %d, want 3", maxQ)
	}
	r.Release()
	if r.InUse() != 0 || r.QueueLen() != 0 {
		t.Errorf("in use %d, queued %d after releasing every grant", r.InUse(), r.QueueLen())
	}
}

func TestResourceReleasePanicsWhenIdle(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "x", 1)
	defer func() {
		if recover() == nil {
			t.Error("Release without Acquire should panic")
		}
	}()
	r.Release()
}

func TestResourceStatsAndUtilization(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "x", 2)
	for i := 0; i < 4; i++ {
		r.Serve(10*time.Microsecond, nil, nil)
	}
	e.Run(0)
	acquired, maxQ, busy := r.Stats()
	if acquired != 4 {
		t.Errorf("acquired = %d, want 4", acquired)
	}
	if maxQ != 2 {
		t.Errorf("max queue = %d, want 2", maxQ)
	}
	if want := 40 * time.Microsecond; busy != want {
		t.Errorf("busy time = %v, want %v", busy, want)
	}
	// 2 units × 20µs elapsed = 40µs of unit-time, all busy.
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Errorf("utilization = %g, want ~1", u)
	}
}

func TestResourceUtilizationZeroTime(t *testing.T) {
	e := New()
	r, _ := NewResource(e, "x", 1)
	if u := r.Utilization(); u != 0 {
		t.Errorf("utilization with no elapsed time = %g, want 0", u)
	}
}

// Property: with capacity c and n identical jobs of duration d, the last
// completion happens at ceil(n/c)*d.
func TestResourceThroughputProperty(t *testing.T) {
	f := func(cRaw, nRaw uint8) bool {
		c := int(cRaw)%8 + 1
		n := int(nRaw)%50 + 1
		e := New()
		r, err := NewResource(e, "x", c)
		if err != nil {
			return false
		}
		var last time.Duration
		for i := 0; i < n; i++ {
			r.Serve(time.Microsecond, func(any) { last = e.Now() }, nil)
		}
		e.Run(0)
		batches := (n + c - 1) / c
		return last == time.Duration(batches)*time.Microsecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTally(t *testing.T) {
	var ta Tally
	if ta.Mean() != 0 || ta.Count() != 0 {
		t.Error("empty tally should be zero")
	}
	for _, x := range []float64{3, 1, 4, 1, 5} {
		ta.Add(x)
	}
	if ta.Count() != 5 || ta.Sum() != 14 {
		t.Errorf("count=%d sum=%g", ta.Count(), ta.Sum())
	}
	if ta.Min() != 1 || ta.Max() != 5 {
		t.Errorf("min=%g max=%g", ta.Min(), ta.Max())
	}
	if m := ta.Mean(); m != 2.8 {
		t.Errorf("mean=%g, want 2.8", m)
	}
}

func TestTallyRandomizedAgainstDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ta Tally
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := rng.NormFloat64()
		xs = append(xs, x)
		ta.Add(x)
	}
	sum, min, max := 0.0, xs[0], xs[0]
	for _, x := range xs {
		sum += x
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if ta.Sum() != sum || ta.Min() != min || ta.Max() != max {
		t.Error("tally disagrees with direct computation")
	}
}
