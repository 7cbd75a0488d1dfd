// Package perfbench is the repository's performance measurement layer:
// reusable benchmark bodies covering the discrete-event engine's hot
// operations (scheduling, cancellation, a semaphore wait-queue grant),
// a full 5x5 QFT simulation per layout and routing policy, and the
// concurrent sweep engine.
//
// The bodies are exported plain functions taking *testing.B so that two
// harnesses can share them: the conventional `go test -bench .` wrappers
// in this package's _test file, and cmd/bench, which runs them through
// testing.Benchmark and emits the machine-readable BENCH_qft.json the
// perf trajectory is tracked with.  Keeping one set of bodies guarantees
// the JSON numbers and the go-test numbers measure the same code.
package perfbench

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/qnet"
	"repro/qnet/distrib"
	"repro/qnet/route"
	"repro/qnet/simulate"
)

// benchGrid is the mesh edge of the full-run benchmarks: the 5x5 QFT
// workload of the parity goldens, big enough to exercise routing,
// contention and purification without making `go test -bench` minutes
// long.
const benchGrid = 5

// schedulePending is the steady-state backlog EngineSchedule maintains
// while churning events, approximating the pending-queue depth of a
// mid-size netsim run.
const schedulePending = 1024

// EngineSchedule measures the engine's core churn: one Schedule plus
// one Step per iteration against a steady backlog of schedulePending
// events, so both the heap push and the pop path are on the clock.
func EngineSchedule(b *testing.B) {
	e := sim.New()
	// The backlog plus the one in-flight event fits without growing, so
	// the timed loop measures steady-state churn even at -benchtime 1x.
	e.Reserve(schedulePending + 1)
	fn := func() {}
	for i := 0; i < schedulePending; i++ {
		e.Schedule(time.Duration(i+1)*time.Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(schedulePending*time.Microsecond, fn)
		e.Step()
	}
}

// EngineCancel returns a benchmark measuring one Schedule+Cancel pair
// with `pending` unrelated events outstanding.  Running it at several
// pending sizes is the regression pin for cancellation cost: since the
// tombstone design landed, ns/op must stay flat as pending grows (the
// pre-refactor engine scanned the heap linearly, so its cost grew with
// the backlog).
func EngineCancel(pending int) func(*testing.B) {
	return func(b *testing.B) {
		fn := func() {}
		// Scheduled after the whole backlog so the victim sits at the
		// bottom of the heap: the worst case for a scanning Cancel.
		horizon := time.Duration(pending+2) * time.Microsecond
		// Cancelled events leave lazy tombstones that only pops reclaim,
		// so an unbounded schedule+cancel loop would grow the heap with
		// b.N and bill the growth copies (and their memory) to Cancel.
		// Rebuilding the engine off the clock every epoch keeps the
		// measurement honest and the peak heap bounded; Reserve covers
		// the backlog plus one epoch of tombstones, so the timed section
		// never allocates.
		const epoch = 1 << 15
		var e *sim.Engine
		reset := func() {
			e = sim.New()
			e.Reserve(pending + epoch + 1)
			for i := 0; i < pending; i++ {
				e.Schedule(time.Duration(i+1)*time.Microsecond, fn)
			}
		}
		reset()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%epoch == epoch-1 {
				b.StopTimer()
				reset()
				b.StartTimer()
			}
			id := e.Schedule(horizon, fn)
			if !e.Cancel(id) {
				b.Fatal("cancel of pending event failed")
			}
		}
	}
}

// SemaphoreQueueWaiters is the backlog SemaphoreQueue holds: one
// level-2 logical qubit's 49 batches, which a channel sends at once.
// With the paper's resources a link's storage admits two of them, so up
// to 47 queue on that one semaphore, more when channels share the link.
const SemaphoreQueueWaiters = 49

// SemaphoreQueue returns a benchmark measuring one grant from a
// semaphore wait queue holding `waiters` continuations: each iteration
// releases a credit (granting the oldest waiter) and queues a new
// waiter, so the backlog stays constant.  With an O(1) queue the cost
// is flat in the backlog and nothing is allocated; a queue that shifts
// its slice on every grant pays O(waiters).
func SemaphoreQueue(waiters int) func(*testing.B) {
	return func(b *testing.B) {
		const credits = 2
		s, err := sim.NewSemaphore("storage", credits)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < credits+waiters; i++ {
			s.Acquire(holdCredit, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Release()
			s.Acquire(holdCredit, nil)
		}
		b.StopTimer()
		if s.Waiting() != waiters {
			b.Fatalf("backlog %d, want %d", s.Waiting(), waiters)
		}
	}
}

// holdCredit is the continuation of a SemaphoreQueue waiter: it keeps
// the credit it was granted.
func holdCredit(any) {}

// QFTRun returns a benchmark running the full event-driven simulator —
// a QFT over every tile of a benchGrid x benchGrid mesh with the
// paper's resource mix — under the given layout and routing policy.
// One iteration is one complete run; the reported events/sec metric is
// the end-to-end simulated-event throughput, the number the ROADMAP's
// "as fast as the hardware allows" north star is tracked by.
func QFTRun(layout simulate.Layout, policy route.Policy) func(*testing.B) {
	return func(b *testing.B) {
		grid, err := qnet.NewGrid(benchGrid, benchGrid)
		if err != nil {
			b.Fatal(err)
		}
		m, err := simulate.New(grid, layout,
			simulate.WithResources(16, 16, 8),
			simulate.WithRouting(policy))
		if err != nil {
			b.Fatal(err)
		}
		prog := qnet.QFT(grid.Tiles())
		ctx := context.Background()
		res, err := m.Run(ctx, prog) // warm run: learn the event count
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.Run(ctx, prog); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportEventRate(b, res.Events)
	}
}

// SweepWorkers returns a benchmark driving the concurrent sweep engine
// with the given worker count over a 16-point space (two layouts, two
// purifier depths, all four routing policies on a 4x4 QFT), one full
// sweep per iteration.  It measures the parallel orchestration path the
// figure generators and cmd/sweep use.
func SweepWorkers(workers int) func(*testing.B) {
	return func(b *testing.B) {
		grid, err := qnet.NewGrid(4, 4)
		if err != nil {
			b.Fatal(err)
		}
		space := simulate.Space{
			Grids:     []qnet.Grid{grid},
			Layouts:   []simulate.Layout{simulate.HomeBase, simulate.MobileQubit},
			Resources: []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
			Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
			Depths:    []int{2, 3},
			Routings:  route.Policies(),
		}
		ctx := context.Background()
		var events uint64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			points, err := simulate.Sweep(ctx, space, simulate.WithWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				for _, pt := range points {
					if pt.Err != nil {
						b.Fatal(pt.Err)
					}
					events += pt.Result.Events
				}
			}
		}
		b.StopTimer()
		reportEventRate(b, events)
	}
}

// DistributedSweep returns a benchmark driving the full distributed
// sweep service in process: a coordinator sharding the same 16-point
// space as SweepWorkers across `workers` loopback workers that share
// one result store.  One iteration is one complete distributed sweep
// with a cold store, so the dispatch, streaming and merge overhead is
// all on the clock; the reported points/sec metric is the
// coordinator-side merge throughput cmd/bench tracks.
func DistributedSweep(workers int) func(*testing.B) {
	return func(b *testing.B) {
		grid, err := qnet.NewGrid(4, 4)
		if err != nil {
			b.Fatal(err)
		}
		spec := distrib.SpaceSpec{
			Grids:     []qnet.Grid{grid},
			Layouts:   distrib.LayoutNames([]simulate.Layout{simulate.HomeBase, simulate.MobileQubit}),
			Resources: []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
			Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
			Depths:    []int{2, 3},
			Routings:  distrib.RoutingNames(route.Policies()),
		}
		size, err := spec.Size()
		if err != nil {
			b.Fatal(err)
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store := simulate.NewCache(0)
			lb := distrib.NewLoopback()
			names := make([]string, workers)
			for w := 0; w < workers; w++ {
				names[w] = fmt.Sprintf("w%d", w)
				lb.Add(names[w], distrib.NewWorker(distrib.WithWorkerStore(store)))
			}
			coord, err := distrib.NewCoordinator(lb, names, distrib.WithSharedStore(store, ""))
			if err != nil {
				b.Fatal(err)
			}
			points, _, err := coord.Sweep(ctx, spec)
			if err != nil {
				b.Fatal(err)
			}
			if len(points) != size {
				b.Fatalf("merged %d of %d points", len(points), size)
			}
			if i == 0 {
				for _, pt := range points {
					if pt.Err != nil {
						b.Fatal(pt.Err)
					}
				}
			}
		}
		b.StopTimer()
		secs := b.Elapsed().Seconds()
		if secs > 0 {
			b.ReportMetric(float64(size)*float64(b.N)/secs, "points/sec")
		}
	}
}

// reportEventRate attaches the simulated-event throughput metric to the
// benchmark: eventsPerOp simulated events per iteration over the
// measured wall time.  cmd/bench reads it back from
// testing.BenchmarkResult.Extra to fill the JSON trajectory.
func reportEventRate(b *testing.B, eventsPerOp uint64) {
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(eventsPerOp)*float64(b.N)/secs, "events/sec")
	}
}

// CancelPendingSizes are the backlog sizes the cancellation regression
// benchmark runs at; flat ns/op across them proves Cancel no longer
// scales with the pending-event count.
var CancelPendingSizes = []int{1 << 10, 1 << 14}

// FullRunConfigs enumerates the layout x policy matrix of the full-run
// benchmark, in deterministic order.
func FullRunConfigs() []FullRunConfig {
	var out []FullRunConfig
	for _, layout := range []simulate.Layout{simulate.HomeBase, simulate.MobileQubit} {
		for _, p := range route.Policies() {
			out = append(out, FullRunConfig{
				Name:   fmt.Sprintf("layout=%s/route=%s", layout, p.Name()),
				Layout: layout,
				Policy: p,
			})
		}
	}
	return out
}

// FullRunConfig is one cell of the full-run benchmark matrix.
type FullRunConfig struct {
	// Name is the benchmark sub-name, "layout=<layout>/route=<policy>".
	Name string
	// Layout is the placement policy under test.
	Layout simulate.Layout
	// Policy is the routing policy under test.
	Policy route.Policy
}
