package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/qnet/distrib"
	"repro/qnet/simulate"
)

// maxSpans bounds the spans one run keeps in memory; later spans are
// counted but dropped.
const maxSpans = 200_000

// span is one timed call into a layer, recorded from the harness.
// Times are microseconds since the process started.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// tracer keeps the harness's spans in memory until the run ends.  A nil
// tracer records nothing, which is how untraced runs call it.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

func sinceStartUS() float64 { return float64(time.Since(processStart).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id (0 when nothing is recorded).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := sinceStartUS()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := sinceStartUS()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns, per span name, the total self time in
// microseconds of the spans under root spans with the given name: each
// span's duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes(root string) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	under := make([]bool, len(t.spans)+1) // by id: the span's root is named root
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
			under[s.ID] = under[s.Parent] // parents start, so are recorded, first
		} else {
			under[s.ID] = s.Name == root
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		if s.End == 0 || !under[s.ID] {
			continue
		}
		covered, reach := 0.0, s.Start
		for _, c := range children[s.ID] { // children are in start order
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += s.End - s.Start - covered
	}
	return self
}

// write stores the spans, and the self times under the op spans, as
// JSON.
func (t *tracer) write(path string) error {
	self := t.selfTimes("op")
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": t.spans, "dropped": t.dropped, "self_us": self})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStore records a span around every call into a result store.
// Calls made while a shard is in flight are children of that shard's
// span: with one worker at parallelism 1 at most one shard is.
type spanStore struct {
	inner  simulate.Store
	t      *tracer
	parent int
	shard  *atomic.Int64 // span of the shard in flight, 0 when none
}

func (s *spanStore) parentID() int {
	if id := s.shard.Load(); id != 0 {
		return int(id)
	}
	return s.parent
}

func (s *spanStore) Get(k simulate.Key) (simulate.Result, bool) {
	id := s.t.begin("store.Get", s.parentID())
	defer s.t.end(id)
	return s.inner.Get(k)
}

func (s *spanStore) Put(k simulate.Key, res simulate.Result) {
	id := s.t.begin("store.Put", s.parentID())
	defer s.t.end(id)
	s.inner.Put(k, res)
}

func (s *spanStore) Stats() simulate.CacheStats { return s.inner.Stats() }

// spanTransport records a span around every shard dispatched.
type spanTransport struct {
	inner  distrib.Transport
	t      *tracer
	parent int
	shard  *atomic.Int64 // set to the span of the shard in flight
}

func (s *spanTransport) Run(ctx context.Context, worker string, job distrib.Job, emit func(distrib.PointResult) error) error {
	id := s.t.begin("transport.Run", s.parent)
	s.shard.Store(int64(id))
	defer func() {
		s.shard.Store(0)
		s.t.end(id)
	}()
	return s.inner.Run(ctx, worker, job, emit)
}

func (s *spanTransport) Healthy(ctx context.Context, worker string) error {
	return s.inner.Healthy(ctx, worker)
}

func (s *spanTransport) Status(ctx context.Context, worker string) (distrib.Status, error) {
	return s.inner.Status(ctx, worker)
}

// layerInfo is what a workload instance tells about its last op.
type layerInfo struct {
	results []simulate.Result    // one result per point of spec
	unique  []simulate.Result    // the simulations one op runs
	cache   *simulate.CacheStats // the op's result store, if any
	report  *distrib.Report      // the op's distributed-sweep report, if any
	workers int                  // goroutines the op simulates on
	spec    distrib.SpaceSpec    // the op's points, as a sweep space
}

// runtimeCounters are the runtime/metrics samples the per-layer
// metrics difference over the traced phase.
var runtimeCounters = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() map[string]float64 {
	samples := make([]metrics.Sample, len(runtimeCounters))
	for i, name := range runtimeCounters {
		samples[i].Name = name
	}
	metrics.Read(samples)
	out := make(map[string]float64, len(samples))
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[s.Name] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[s.Name] = s.Value.Float64()
		}
	}
	return out
}

// tracedRun sets the workload up once, times ops untraced for half the
// configured seconds and traced (CPU profile and spans on) for the
// other half, runs the isolated per-layer probes, and reports the
// per-layer metrics.
func tracedRun(cfg runConfig) (result, error) {
	t := &tracer{}
	inst, _, err := setUp(cfg, t, processStart)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	half := time.Duration(cfg.seconds) * time.Second / 2

	settle()
	plain := timedPhase(inst, half, nil)

	settle()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	rt0 := readRuntime()
	traced := timedPhase(inst, half, t)
	rt1 := readRuntime()
	settle() // brings the runtime's CPU-class estimates up to date
	rtCPU := readRuntime()
	pprof.StopCPUProfile()

	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	if len(plain.walls) == 0 || len(traced.walls) == 0 {
		return result{}, fmt.Errorf("every op of a phase failed")
	}
	info, err := inst.layers()
	if err != nil {
		return result{}, err
	}
	pr, err := runProbes(cfg, info, t)
	if err != nil {
		return result{}, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return result{}, fmt.Errorf("CPU profile: %w", err)
	}

	ops := float64(len(traced.walls))
	delta := func(name string) float64 { return rt1[name] - rt0[name] }
	m := map[string]metric{
		"trace.overhead":       {median(traced.walls) / median(plain.walls), "ratio"},
		"alloc.objects_per_op": {delta("/gc/heap/allocs:objects") / ops, "count"},
		"alloc.bytes_per_op":   {delta("/gc/heap/allocs:bytes") / ops, "B"},
		"gc.cycles_per_op":     {delta("/gc/cycles/total:gc-cycles") / ops, "count"},
		"gc.cpu_share": {ratio(rtCPU["/cpu/classes/gc/total:cpu-seconds"]-rt0["/cpu/classes/gc/total:cpu-seconds"],
			rtCPU["/cpu/classes/total:cpu-seconds"]-rt0["/cpu/classes/total:cpu-seconds"]), "ratio"},
		"simulate.worker_busy_share": {ratio(traced.cpu, traced.wall*float64(info.workers)), "ratio"},
		"distrib.cpu_us_per_point":   {1e6 * traced.cpu / float64(traced.points), "us"},
		"netsim.events_per_s":        {eventsPerOp(info) * float64(len(plain.walls)) / plain.wall, "1/s"},
	}
	for name, v := range shares {
		m[name] = metric{v, "ratio"}
	}
	for name, v := range pr {
		m[name] = v
	}
	addModelPins(m, info)
	addStoreCounters(m, info)

	self := t.selfTimes("op")
	selfPerOp := make(map[string]float64, len(self))
	for name, us := range self {
		selfPerOp[name] = us / ops
	}
	cfg.rec.Extra["ops_untraced"] = len(plain.walls)
	cfg.rec.Extra["ops_traced"] = len(traced.walls)
	cfg.rec.Extra["host_steal_share"] = traced.steal
	cfg.rec.Extra["self_us_per_traced_op"] = selfPerOp
	cfg.rec.Extra["profile"] = outPath(cfg, "cpu", "pprof")
	cfg.rec.Extra["spans"] = outPath(cfg, "spans", "json")
	if err := os.WriteFile(outPath(cfg, "cpu", "pprof"), prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if err := t.write(outPath(cfg, "spans", "json")); err != nil {
		return result{}, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// eventsPerOp is the number of simulated events one op runs.
func eventsPerOp(info layerInfo) float64 {
	var n float64
	for _, r := range info.unique {
		n += float64(r.Events)
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// addModelPins adds the simulated values of the op's results: sums of
// the netsim counters and means of the resource utilisations.  They
// move only when the model's results move.
func addModelPins(m map[string]metric, info layerInfo) {
	var exec, events, channels, pairs, hops, turns, msgs, ut, ug, up float64
	for _, r := range info.results {
		exec += r.Exec.Seconds()
		events += float64(r.Events)
		channels += float64(r.Channels)
		pairs += float64(r.PairsDelivered)
		hops += float64(r.PairHops)
		turns += float64(r.Turns)
		msgs += float64(r.ClassicalMessages)
		ut += r.TeleporterUtil
		ug += r.GeneratorUtil
		up += r.PurifierUtil
	}
	n := float64(max(len(info.results), 1))
	m["netsim.exec_s"] = metric{exec, "s"}
	m["netsim.events"] = metric{events, "count"}
	m["netsim.channels"] = metric{channels, "count"}
	m["netsim.pairs_delivered"] = metric{pairs, "count"}
	m["netsim.pair_hops"] = metric{hops, "count"}
	m["netsim.turns"] = metric{turns, "count"}
	m["netsim.classical_msgs"] = metric{msgs, "count"}
	m["sim.util_teleporter"] = metric{ut / n, "ratio"}
	m["sim.util_generator"] = metric{ug / n, "ratio"}
	m["sim.util_purifier"] = metric{up / n, "ratio"}
}

// addStoreCounters adds the op's result-store counters and the
// distributed sweep's report, zero where the workload has none.
func addStoreCounters(m map[string]metric, info layerInfo) {
	var cs simulate.CacheStats
	if info.cache != nil {
		cs = *info.cache
	}
	m["simulate.hits"] = metric{float64(cs.Hits), "count"}
	m["simulate.disk_hits"] = metric{float64(cs.DiskHits), "count"}
	m["simulate.misses"] = metric{float64(cs.Misses), "count"}
	m["simulate.hit_ratio"] = metric{cs.HitRate(), "ratio"}
	var rep distrib.Report
	if info.report != nil {
		rep = *info.report
	}
	m["distrib.reassignments"] = metric{float64(rep.Reassignments), "count"}
	m["distrib.duplicates"] = metric{float64(rep.DuplicatePoints), "count"}
	m["distrib.mismatches"] = metric{float64(rep.Mismatches), "count"}
	m["distrib.store_hits"] = metric{float64(rep.CacheHits), "count"}
}
