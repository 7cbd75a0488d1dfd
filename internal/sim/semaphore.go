package sim

import "fmt"

// Semaphore is a counting semaphore with a FIFO waiter queue, used for
// credit-based flow control (e.g. the per-link incoming storage cells of
// a T' node).  Unlike Resource it has no notion of service time: callers
// take and return credits explicitly.
//
// Waiters are continuations in call form, fn(arg), queued without a
// closure; granting the oldest one is O(1) however long the queue is.
type Semaphore struct {
	name    string
	nameFn  func() string
	credits int
	limit   int
	waiting waitQueue
	maxWait int
}

// NewSemaphore creates a semaphore holding limit credits.
func NewSemaphore(name string, limit int) (*Semaphore, error) {
	if limit < 1 {
		return nil, fmt.Errorf("sim: semaphore %q limit must be >= 1, got %d", name, limit)
	}
	return &Semaphore{name: name, credits: limit, limit: limit}, nil
}

// NewLazySemaphore is NewSemaphore with deferred naming: name is called
// at most once, the first time the semaphore's name is actually needed.
// Builders that create one semaphore per mesh link use it to keep name
// formatting off the build path.
func NewLazySemaphore(name func() string, limit int) (*Semaphore, error) {
	if name == nil {
		return nil, fmt.Errorf("sim: lazy semaphore needs a name function")
	}
	if limit < 1 {
		return nil, fmt.Errorf("sim: semaphore limit must be >= 1, got %d", limit)
	}
	return &Semaphore{nameFn: name, credits: limit, limit: limit}, nil
}

// Name returns the semaphore's name, resolving a lazy name on first use.
func (s *Semaphore) Name() string {
	if s.name == "" && s.nameFn != nil {
		s.name = s.nameFn()
		s.nameFn = nil
	}
	return s.name
}

// Limit returns the total credit count.
func (s *Semaphore) Limit() int { return s.limit }

// Available returns the number of free credits.
func (s *Semaphore) Available() int { return s.credits }

// Waiting returns the number of queued acquirers.
func (s *Semaphore) Waiting() int { return s.waiting.len() }

// MaxWaiting returns the largest observed waiter queue.
func (s *Semaphore) MaxWaiting() int { return s.maxWait }

// Acquire takes one credit, running fn(arg) immediately if a credit is
// free, otherwise queueing it until Release provides one.  With fn a
// package-level function, acquiring allocates nothing.
func (s *Semaphore) Acquire(fn func(any), arg any) {
	if fn == nil {
		panic(fmt.Sprintf("sim: semaphore %q: nil acquire function", s.Name()))
	}
	if s.credits > 0 {
		s.credits--
		fn(arg)
		return
	}
	s.waiting.push(call{fn, arg})
	if n := s.waiting.len(); n > s.maxWait {
		s.maxWait = n
	}
}

// TryAcquire takes a credit without queueing; it reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.credits > 0 {
		s.credits--
		return true
	}
	return false
}

// Release returns one credit, handing it to the oldest waiter if any.
func (s *Semaphore) Release() {
	if s.waiting.len() > 0 {
		c := s.waiting.pop()
		c.fn(c.arg)
		return
	}
	if s.credits >= s.limit {
		panic(fmt.Sprintf("sim: semaphore %q released above its limit %d", s.Name(), s.limit))
	}
	s.credits++
}
