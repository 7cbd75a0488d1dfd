package perfbench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

func BenchmarkEngineSchedule(b *testing.B) { EngineSchedule(b) }

func BenchmarkEngineCancel(b *testing.B) {
	for _, n := range CancelPendingSizes {
		b.Run(fmt.Sprintf("pending=%d", n), EngineCancel(n))
	}
}

func BenchmarkSemaphoreQueue(b *testing.B) {
	b.Run(fmt.Sprintf("waiters=%d", SemaphoreQueueWaiters), SemaphoreQueue(SemaphoreQueueWaiters))
}

func BenchmarkQFT(b *testing.B) {
	for _, cfg := range FullRunConfigs() {
		b.Run(cfg.Name, QFTRun(cfg.Layout, cfg.Policy))
	}
}

func BenchmarkSweep(b *testing.B) {
	b.Run("workers=8", SweepWorkers(8))
}

func BenchmarkDistribSweep(b *testing.B) {
	b.Run("workers=2", DistributedSweep(2))
}

func BenchmarkTraceQFT(b *testing.B) {
	for _, mode := range TraceModes {
		b.Run("trace="+mode, TraceQFT(mode))
	}
}

// TestEngineStepZeroAllocWithoutProbe pins the telemetry hook's
// disabled cost: with no probe attached, the engine's schedule+step
// churn must not allocate at all.  The probe hook is one nil check on
// the hot path; if it ever grows an allocation, tracer-off runs pay
// for telemetry nobody asked for.
func TestEngineStepZeroAllocWithoutProbe(t *testing.T) {
	const pending = 256
	e := sim.New()
	e.Reserve(pending + 2)
	fn := func() {}
	for i := 0; i < pending; i++ {
		e.Schedule(time.Duration(i+1)*time.Microsecond, fn)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(pending*time.Microsecond, fn)
		e.Step()
	})
	if allocs != 0 {
		t.Errorf("schedule+step with no probe: %.1f allocs/op, want 0", allocs)
	}
}

// TestSemaphoreQueueZeroAlloc pins the wait queue's steady state: with
// a constant backlog, a grant plus a re-queue allocates nothing — the
// continuation is queued in call form and the queue reuses its backing
// array instead of growing it.
func TestSemaphoreQueueZeroAlloc(t *testing.T) {
	s, err := sim.NewSemaphore("storage", 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2+SemaphoreQueueWaiters; i++ {
		s.Acquire(holdCredit, nil)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Release()
		s.Acquire(holdCredit, nil)
	})
	if allocs != 0 {
		t.Errorf("semaphore grant+requeue at %d waiters: %.1f allocs/op, want 0", SemaphoreQueueWaiters, allocs)
	}
}
