// The worker half of the distributed sweep service: executes one
// shard of run points through the in-process sweep engine, consulting
// the fleet's shared result store, and streams finished points back.

package distrib

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/qnet/simulate"
	"repro/qnet/trace"
)

// Worker executes job shards via the in-process simulation engine.  A
// Worker carries no job state between shards and is safe for concurrent
// use; the HTTP Server and the Loopback transport both drive one
// through Execute.  Status exposes its live progress counters and — with
// WithWorkerTelemetry — the event-rate and occupancy telemetry of the
// runs in flight.
type Worker struct {
	store     simulate.Store
	parallel  int
	newRemote func(ctx context.Context, url string) simulate.Store
	telemetry bool
	traceIv   time.Duration

	mu     sync.Mutex
	active map[*trace.Tracer]struct{} // tracers of in-flight points (telemetry on)
	inRun  int                        // points simulating right now
	done   uint64                     // points finished since the worker started
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithWorkerStore installs the worker's default result store,
// consulted (and written back) for every point of jobs that do not
// name a shared StoreURL of their own.
func WithWorkerStore(st simulate.Store) WorkerOption {
	return func(w *Worker) { w.store = st }
}

// WithWorkerParallelism sets how many points of one job the worker
// simulates concurrently.  Values below 1 (and the default) mean
// GOMAXPROCS.
func WithWorkerParallelism(n int) WorkerOption {
	return func(w *Worker) { w.parallel = n }
}

// WithWorkerTelemetry attaches a telemetry tracer (qnet/trace) to every
// point the worker simulates, sampled at the given simulated-time
// interval (non-positive selects the trace package default).  The live
// snapshots feed Worker.Status — and through it the /v1/status endpoint
// and the coordinator's WithProgress callback — with the in-flight
// runs' event rates and router occupancy.  Tracers are observers:
// results and cache keys are unchanged, so telemetry-on and
// telemetry-off workers may share one fleet store.
func WithWorkerTelemetry(interval time.Duration) WorkerOption {
	return func(w *Worker) { w.telemetry, w.traceIv = true, interval }
}

// NewWorker builds a worker with the given options over the defaults
// (no store, GOMAXPROCS-way parallelism, HTTP remote stores, no
// telemetry).
func NewWorker(opts ...WorkerOption) *Worker {
	w := &Worker{
		newRemote: func(ctx context.Context, url string) simulate.Store {
			return NewRemoteStore(url).WithContext(ctx)
		},
		active: make(map[*trace.Tracer]struct{}),
	}
	for _, opt := range opts {
		opt(w)
	}
	return w
}

// Status returns the worker's live telemetry snapshot.  It is cheap
// (one mutex and a read of each active run's latest sample) and safe to
// call at heartbeat frequency while shards execute.
func (w *Worker) Status() Status {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Status{ActivePoints: w.inRun, DonePoints: w.done}
	for tr := range w.active {
		lv := tr.Live()
		st.Events += lv.Events
		if lv.At > 0 {
			st.EventRate += float64(lv.Events) / lv.At.Seconds()
		}
		st.Occupancy += lv.MeanOccupancy
	}
	if n := len(w.active); n > 0 {
		st.Occupancy /= float64(n)
	}
	return st
}

// storeFor resolves the store one job runs against: the job's shared
// StoreURL when set (bound to the job's context, so cancelling the
// job aborts its in-flight store traffic), else the worker's own.
func (w *Worker) storeFor(ctx context.Context, job Job) simulate.Store {
	if job.StoreURL != "" {
		return w.newRemote(ctx, job.StoreURL)
	}
	return w.store
}

// Execute runs every point of the job's shard and calls emit once per
// finished point, in completion order, serialized (emit is never
// called concurrently).  Points whose simulation fails are emitted
// with Err set and do not abort the shard; Execute itself returns an
// error only for a malformed job, a cancelled context, or an emit
// failure (a broken result stream).  When a store is available —
// per-job via Job.StoreURL or worker-wide via WithWorkerStore — every
// point is looked up before simulating and stored back after, so a
// reassigned shard re-hits the fleet's store for points its previous
// owner already finished.
func (w *Worker) Execute(ctx context.Context, job Job, emit func(PointResult) error) error {
	if err := job.Validate(); err != nil {
		return err
	}
	space, err := job.Space.Space()
	if err != nil {
		return err
	}
	pts, err := space.Points()
	if err != nil {
		return err
	}
	store := w.storeFor(ctx, job)

	parallel := w.parallel
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(job.Indices) {
		parallel = len(job.Indices)
	}

	// The pool mirrors the sweep engine's shape: a feeder, N point
	// runners, one collector serializing emits.  Execute returns the
	// first emit error (the stream consumer hung up) or ctx.Err().
	jobs := make(chan int)
	results := make(chan PointResult, parallel)
	var wg sync.WaitGroup
	wg.Add(parallel)
	for i := 0; i < parallel; i++ {
		go func() {
			defer wg.Done()
			for idx := range jobs {
				if ctx.Err() != nil {
					return
				}
				pr := w.runPoint(ctx, space, pts[idx], store)
				select {
				case results <- pr:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		defer close(jobs)
		for _, idx := range job.Indices {
			select {
			case jobs <- idx:
			case <-ctx.Done():
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(results)
	}()

	var emitErr error
	emitted := 0
	for pr := range results {
		if emitErr == nil {
			if err := emit(pr); err != nil {
				emitErr = err
			} else {
				emitted++
			}
		}
	}
	if emitErr != nil {
		return emitErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if emitted != len(job.Indices) {
		// Runners bailed without a context error: impossible today, but
		// a truncated shard must never read as a complete one.
		return context.Canceled
	}
	return nil
}

// runPoint executes one expanded point against the store (when
// present), mapping simulation failure into the wire error form.  The
// point is registered in the worker's live Status for its duration;
// with telemetry on, a per-point tracer makes its event rate and
// occupancy observable while it simulates.
func (w *Worker) runPoint(ctx context.Context, space simulate.Space, pt simulate.Point, store simulate.Store) PointResult {
	w.mu.Lock()
	w.inRun++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inRun--
		w.done++
		w.mu.Unlock()
	}()

	m, err := space.Machine(pt)
	if err != nil {
		return PointResult{Index: pt.Index, Err: err.Error()}
	}
	var key simulate.Key
	if store != nil {
		key = m.CacheKey(pt.Program)
		if res, ok := store.Get(key); ok {
			return PointResult{Index: pt.Index, Result: res, Cached: true}
		}
	}
	if w.telemetry {
		tr := trace.New(trace.Config{Interval: w.traceIv})
		m = m.WithTrace(tr)
		w.mu.Lock()
		w.active[tr] = struct{}{}
		w.mu.Unlock()
		defer func() {
			w.mu.Lock()
			delete(w.active, tr)
			w.mu.Unlock()
		}()
	}
	res, err := m.Run(ctx, pt.Program)
	if err != nil {
		return PointResult{Index: pt.Index, Err: err.Error()}
	}
	if store != nil {
		store.Put(key, res)
	}
	return PointResult{Index: pt.Index, Result: res}
}
