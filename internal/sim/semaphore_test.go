package sim

import (
	"testing"
	"testing/quick"
)

func TestSemaphoreValidation(t *testing.T) {
	if _, err := NewSemaphore("x", 0); err == nil {
		t.Error("zero limit should be rejected")
	}
}

func TestSemaphoreImmediateAcquire(t *testing.T) {
	s, err := NewSemaphore("storage", 2)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	inc := func(any) { ran++ }
	s.Acquire(inc, nil)
	s.Acquire(inc, nil)
	if ran != 2 || s.Available() != 0 {
		t.Errorf("ran=%d available=%d, want 2/0", ran, s.Available())
	}
}

func TestSemaphoreQueuesWhenEmpty(t *testing.T) {
	s, _ := NewSemaphore("storage", 1)
	order := []int{}
	record := func(a any) { order = append(order, a.(int)) }
	s.Acquire(record, 0)
	s.Acquire(record, 1)
	s.Acquire(record, 2)
	if len(order) != 1 || s.Waiting() != 2 {
		t.Fatalf("order=%v waiting=%d", order, s.Waiting())
	}
	s.Release() // hands the credit to waiter 1
	s.Release() // hands the credit to waiter 2
	if len(order) != 3 {
		t.Fatalf("order=%v, want 3 entries", order)
	}
	for i, v := range order {
		if v != i {
			t.Errorf("FIFO violated: %v", order)
		}
	}
	if s.MaxWaiting() != 2 {
		t.Errorf("max waiting = %d, want 2", s.MaxWaiting())
	}
}

func TestSemaphoreTryAcquire(t *testing.T) {
	s, _ := NewSemaphore("x", 1)
	if !s.TryAcquire() {
		t.Error("first TryAcquire should succeed")
	}
	if s.TryAcquire() {
		t.Error("second TryAcquire should fail")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Error("TryAcquire after Release should succeed")
	}
}

func TestSemaphoreReleaseAboveLimitPanics(t *testing.T) {
	s, _ := NewSemaphore("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("over-release should panic")
		}
	}()
	s.Release()
}

func TestSemaphoreNilAcquirePanics(t *testing.T) {
	s, _ := NewSemaphore("x", 1)
	defer func() {
		if recover() == nil {
			t.Error("nil acquire fn should panic")
		}
	}()
	s.Acquire(nil, nil)
}

// Property: after any valid sequence of acquire/release pairs, credits
// plus held equals the limit, and no waiter is lost.
func TestSemaphoreConservationProperty(t *testing.T) {
	f := func(limitRaw uint8, actions []bool) bool {
		limit := int(limitRaw)%5 + 1
		s, err := NewSemaphore("x", limit)
		if err != nil {
			return false
		}
		held, ran, queued := 0, 0, 0
		for _, acquire := range actions {
			if acquire {
				queued++
				s.Acquire(func(any) { ran++ }, nil)
			} else if held < ran {
				// Release something previously granted.
				s.Release()
				held++ // counts releases
			}
		}
		// All grants = releases so far + currently held credits.
		inUse := ran - held
		return s.Available() == limit-inUse && s.Waiting() == queued-ran
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSemaphoreQueueStaysFIFOWithoutDraining drives a queue that never
// drains — every release grants one waiter while two more arrive — so
// the head index advances past the compaction threshold many times.
// Grants must still come in arrival order, MaxWaiting must track the
// true high-water mark, and the backing array must stay bounded by a
// small multiple of the live queue instead of growing with the total
// number of waiters ever queued.
func TestSemaphoreQueueStaysFIFOWithoutDraining(t *testing.T) {
	s, _ := NewSemaphore("storage", 1)
	var granted []int
	record := func(a any) { granted = append(granted, a.(int)) }
	next := 0
	s.Acquire(record, next) // takes the only credit
	next++
	const rounds = 1000
	peak := 0
	for r := 0; r < rounds; r++ {
		s.Acquire(record, next)
		s.Acquire(record, next+1)
		next += 2
		if s.Waiting() > peak {
			peak = s.Waiting()
		}
		s.Release()
		if r%3 == 2 {
			s.Release() // shrink the backlog now and then
		}
	}
	for i, v := range granted {
		if v != i {
			t.Fatalf("grant %d went to waiter %d: FIFO violated", i, v)
		}
	}
	if got, want := s.Waiting(), next-len(granted); got != want {
		t.Errorf("waiting = %d, want %d", got, want)
	}
	if s.MaxWaiting() != peak {
		t.Errorf("max waiting = %d, want the observed peak %d", s.MaxWaiting(), peak)
	}
	if c := cap(s.waiting.items); c > 4*s.Waiting() {
		t.Errorf("backing array cap %d for %d live waiters: the queue is not compacting", c, s.Waiting())
	}
	for s.Waiting() > 0 {
		s.Release()
	}
	if s.waiting.head != 0 || len(s.waiting.items) != 0 {
		t.Errorf("drained queue not rewound: head=%d len=%d", s.waiting.head, len(s.waiting.items))
	}
	for i, v := range granted {
		if v != i {
			t.Fatalf("grant %d went to waiter %d after draining: FIFO violated", i, v)
		}
	}
}
