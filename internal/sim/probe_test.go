package sim

import (
	"reflect"
	"testing"
	"time"
)

// recProbe records every Sample call for inspection.
type recProbe struct {
	times  []time.Duration
	events []uint64
}

func (p *recProbe) Sample(now time.Duration, processed uint64) {
	p.times = append(p.times, now)
	p.events = append(p.events, processed)
}

// TestSetProbeRejectsBadInterval pins the interval contract: a probe
// needs a positive period, and a nil probe removes the hook.
func TestSetProbeRejectsBadInterval(t *testing.T) {
	for _, iv := range []time.Duration{0, -time.Microsecond} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetProbe(probe, %v) did not panic", iv)
				}
			}()
			New().SetProbe(&recProbe{}, iv)
		}()
	}
	// Removal never needs an interval.
	e := New()
	e.SetProbe(&recProbe{}, time.Microsecond)
	e.SetProbe(nil, 0)
	e.Schedule(5*time.Microsecond, func() {})
	for e.Step() {
	}
}

// TestProbeSamplesExactBoundaries pins the sampling instants: every
// multiple of the interval the clock crosses is sampled exactly once,
// in order, before the event that crosses it executes — including
// catch-up across quiet gaps spanning several boundaries.
func TestProbeSamplesExactBoundaries(t *testing.T) {
	e := New()
	p := &recProbe{}
	e.SetProbe(p, 10*time.Microsecond)
	for _, at := range []time.Duration{3, 12, 25, 47} {
		e.Schedule(at*time.Microsecond, func() {})
	}
	for e.Step() {
	}

	wantTimes := []time.Duration{10, 20, 30, 40}
	for i := range wantTimes {
		wantTimes[i] *= time.Microsecond
	}
	if !reflect.DeepEqual(p.times, wantTimes) {
		t.Errorf("sample times = %v, want %v", p.times, wantTimes)
	}
	// Each sample sees the events processed strictly before its
	// boundary: 1 event (t=3µs) before 10µs, 2 before 20µs, 3 before
	// both 30µs and 40µs (the catch-up pair of the 25→47µs gap).
	if want := []uint64{1, 2, 3, 3}; !reflect.DeepEqual(p.events, want) {
		t.Errorf("sample event counts = %v, want %v", p.events, want)
	}
	if e.Processed() != 4 {
		t.Errorf("processed %d events, want 4 (the probe must not add any)", e.Processed())
	}
	if e.Now() != 47*time.Microsecond {
		t.Errorf("final clock %v, want 47µs", e.Now())
	}
}

// TestProbeAttachMidRun pins the first-boundary rule: the first sample
// fires at the first interval multiple strictly after the clock at
// SetProbe time, so attaching at an off-boundary instant never samples
// the past.
func TestProbeAttachMidRun(t *testing.T) {
	e := New()
	e.Schedule(25*time.Microsecond, func() {})
	for e.Step() {
	}
	p := &recProbe{}
	e.SetProbe(p, 10*time.Microsecond)
	e.Schedule(10*time.Microsecond, func() {}) // at t=35µs
	for e.Step() {
	}
	if want := []time.Duration{30 * time.Microsecond}; !reflect.DeepEqual(p.times, want) {
		t.Errorf("sample times = %v, want %v", p.times, want)
	}
}

// TestRunUntilSamplesTrailingBoundaries pins the window-advance path:
// RunUntil fires every boundary between the last event and the horizon,
// so a run advanced in quiet windows samples the same instants an
// event-by-event run would.
func TestRunUntilSamplesTrailingBoundaries(t *testing.T) {
	e := New()
	p := &recProbe{}
	e.SetProbe(p, 10*time.Microsecond)
	e.Schedule(5*time.Microsecond, func() {})
	e.RunUntil(35 * time.Microsecond)

	wantTimes := []time.Duration{10 * time.Microsecond, 20 * time.Microsecond, 30 * time.Microsecond}
	if !reflect.DeepEqual(p.times, wantTimes) {
		t.Errorf("sample times = %v, want %v", p.times, wantTimes)
	}
	if e.Now() != 35*time.Microsecond {
		t.Errorf("clock after RunUntil = %v, want 35µs", e.Now())
	}
	// The horizon itself is a boundary on the next window: advancing to
	// 40µs fires it exactly once.
	e.RunUntil(40 * time.Microsecond)
	if got := p.times[len(p.times)-1]; got != 40*time.Microsecond {
		t.Errorf("boundary-at-horizon sample = %v, want 40µs", got)
	}
	if n := len(p.times); n != 4 {
		t.Errorf("%d samples after second window, want 4", n)
	}
}

// TestProbeDoesNotAlterExecution pins the observer property at the
// engine level: an identical model runs the identical event sequence —
// same order, same clock readings, same processed count — with and
// without a probe attached.
func TestProbeDoesNotAlterExecution(t *testing.T) {
	run := func(probe bool) (order []int, clocks []time.Duration, processed uint64) {
		e := New()
		if probe {
			e.SetProbe(&recProbe{}, 7*time.Microsecond)
		}
		delays := []time.Duration{11, 3, 29, 17, 3, 23}
		for i, d := range delays {
			i, d := i, d
			e.Schedule(d*time.Microsecond, func() {
				order = append(order, i)
				clocks = append(clocks, e.Now())
				if i == 1 {
					// Nested scheduling from inside an event, as models do.
					e.Schedule(10*time.Microsecond, func() {
						order = append(order, 100)
						clocks = append(clocks, e.Now())
					})
				}
			})
		}
		for e.Step() {
		}
		return order, clocks, e.Processed()
	}

	plainOrder, plainClocks, plainN := run(false)
	tracedOrder, tracedClocks, tracedN := run(true)
	if !reflect.DeepEqual(plainOrder, tracedOrder) {
		t.Errorf("event order diverged: %v vs %v", plainOrder, tracedOrder)
	}
	if !reflect.DeepEqual(plainClocks, tracedClocks) {
		t.Errorf("event clocks diverged: %v vs %v", plainClocks, tracedClocks)
	}
	if plainN != tracedN {
		t.Errorf("processed %d vs %d events", plainN, tracedN)
	}
}
