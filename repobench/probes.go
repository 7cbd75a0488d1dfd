package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"repro/internal/perfbench"
	"repro/qnet"
	"repro/qnet/distrib"
	"repro/qnet/simulate"
)

// probeBudget is how long each isolated probe keeps calling its
// function (it always makes at least probeMinCalls calls).
const (
	probeBudget   = 300 * time.Millisecond
	probeMinCalls = 3
)

// probeEntries is the most key/result pairs a store probe cycles over.
const probeEntries = 64

type storeEntry struct {
	key simulate.Key
	res simulate.Result
}

// probe calls fn until the budget is spent and returns the mean time
// per call in unit (1 for ns, 1e3 for µs, 1e6 for ms) and the count.
func probe(t *tracer, name string, unit float64, fn func(i int) error) (float64, int, error) {
	id := t.begin("probe."+name, 0)
	defer t.end(id)
	start := time.Now()
	n := 0
	for ; n < probeMinCalls || time.Since(start) < probeBudget; n++ {
		if err := fn(n); err != nil {
			return 0, n, fmt.Errorf("probe %s: %w", name, err)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n) / unit, n, nil
}

// runProbes calls each layer's public functions directly, on inputs
// taken from the workload's last op, and reports the time per call.
// The call counts go into the run record.
func runProbes(cfg runConfig, info layerInfo, t *tracer) (map[string]metric, error) {
	out := map[string]metric{}
	calls := map[string]int{}
	add := func(name, unit string, scale float64, fn func(i int) error) error {
		v, n, err := probe(t, name, scale, fn)
		if err != nil {
			return err
		}
		out[name] = metric{v, unit}
		calls[name] = n
		return nil
	}

	// sim: the engine's Schedule+Step churn at a backlog of 1,024,
	// through the perfbench body the go-test benchmarks use.
	id := t.begin("probe.sim.step_ns", 0)
	br := testing.Benchmark(perfbench.EngineSchedule)
	t.end(id)
	out["sim.step_ns"] = metric{float64(br.T.Nanoseconds()) / float64(br.N), "ns"}
	calls["sim.step_ns"] = br.N

	space, err := info.spec.Space()
	if err != nil {
		return nil, err
	}
	pts, err := space.Points()
	if err != nil {
		return nil, err
	}
	if len(pts) != len(info.results) {
		return nil, fmt.Errorf("probe inputs: %d points but %d results", len(pts), len(info.results))
	}
	machines := make([]*simulate.Machine, 0, probeEntries)
	var progs []qnet.Program
	var entries []storeEntry
	seen := map[simulate.Key]bool{}
	for i, pt := range pts {
		m, err := space.Machine(pt)
		if err != nil {
			return nil, err
		}
		k := m.CacheKey(pt.Program)
		if len(machines) < probeEntries {
			machines, progs = append(machines, m), append(progs, pt.Program)
		}
		if !seen[k] && len(entries) < probeEntries {
			seen[k] = true
			entries = append(entries, storeEntry{k, info.results[i]})
		}
	}
	// The disk probe needs at least two keys to force reads from disk;
	// a workload with one result gets copies under derived keys.
	for i := 1; len(entries) < 8; i++ {
		e := entries[0]
		e.key[0] ^= byte(i)
		entries = append(entries, e)
	}

	// simulate: content keys and the result cache, memory and disk.
	if err := add("simulate.cachekey_us", "us", 1e3, func(i int) error {
		machines[i%len(machines)].CacheKey(progs[i%len(progs)])
		return nil
	}); err != nil {
		return nil, err
	}
	mem := simulate.NewCache(0)
	for _, e := range entries {
		mem.Put(e.key, e.res)
	}
	if err := add("simulate.mem_get_us", "us", 1e3, func(i int) error {
		if _, ok := mem.Get(entries[i%len(entries)].key); !ok {
			return fmt.Errorf("memory cache miss")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if err := add("simulate.mem_put_us", "us", 1e3, func(i int) error {
		e := entries[i%len(entries)]
		mem.Put(e.key, e.res)
		return nil
	}); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	disk, err := simulate.NewDiskCache(dir, 0)
	if err != nil {
		return nil, err
	}
	if err := add("simulate.disk_put_us", "us", 1e3, func(i int) error {
		e := entries[i%len(entries)]
		disk.Put(e.key, e.res)
		return nil
	}); err != nil {
		return nil, err
	}
	// A one-entry memory tier over the files: cycling over two or more
	// keys makes every Get read and decode its file.
	reader, err := simulate.NewDiskCache(dir, 1)
	if err != nil {
		return nil, err
	}
	if err := add("simulate.disk_get_us", "us", 1e3, func(i int) error {
		if _, ok := reader.Get(entries[i%len(entries)].key); !ok {
			return fmt.Errorf("disk cache miss")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if s := reader.Stats(); s.DiskHits != s.Hits {
		return nil, fmt.Errorf("disk probe: %v, want every hit from disk", s)
	}

	// distrib: the wire encoding of a Result.
	if err := add("distrib.result_encode_us", "us", 1e3, func(i int) error {
		_, err := json.Marshal(entries[i%len(entries)].res)
		return err
	}); err != nil {
		return nil, err
	}
	encoded := make([][]byte, len(entries))
	for i, e := range entries {
		encoded[i], _ = json.Marshal(e.res)
	}
	if err := add("distrib.result_decode_us", "us", 1e3, func(i int) error {
		var r simulate.Result
		return json.Unmarshal(encoded[i%len(encoded)], &r)
	}); err != nil {
		return nil, err
	}

	// distrib: RemoteStore over loopback to a StoreServer on a memory
	// cache, so the probe times HTTP and JSON, not the disk.
	storeURL, stop, err := serve(distrib.NewStoreServer(mem).Handler())
	if err != nil {
		return nil, err
	}
	defer stop()
	remote := distrib.NewRemoteStore(storeURL)
	if err := add("distrib.remote_put_us", "us", 1e3, func(i int) error {
		e := entries[i%len(entries)]
		remote.Put(e.key, e.res)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := add("distrib.remote_get_us", "us", 1e3, func(i int) error {
		if _, ok := remote.Get(entries[i%len(entries)].key); !ok {
			return fmt.Errorf("remote store miss")
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if s := remote.Stats(); s.WriteErrors != 0 {
		return nil, fmt.Errorf("remote store: %v", s)
	}

	// distrib: one shard of the workload's space through HTTPTransport
	// to a worker whose shared store already holds every point, so the
	// shard is store hits, NDJSON and decoding.
	shard, err := shardProbe(info, pts)
	if err != nil {
		return nil, err
	}
	defer shard.stop()
	if err := add("distrib.shard_ms", "ms", 1e6, shard.run); err != nil {
		return nil, err
	}

	cfg.rec.Extra["probe_calls"] = calls
	return out, nil
}

// serve starts an HTTP server on a loopback port.  stop closes it and
// waits for its serve loop to return.
func serve(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-done }, nil
}

type shardRunner struct {
	transport *distrib.HTTPTransport
	workerURL string
	job       distrib.Job
	stop      func()
}

func shardProbe(info layerInfo, pts []simulate.Point) (*shardRunner, error) {
	space, err := info.spec.Space()
	if err != nil {
		return nil, err
	}
	shards := distrib.PlanShards(len(pts), 4)
	store := simulate.NewCache(0)
	for _, idx := range shards[0].Indices {
		m, err := space.Machine(pts[idx])
		if err != nil {
			return nil, err
		}
		store.Put(m.CacheKey(pts[idx].Program), info.results[idx])
	}
	storeURL, stopStore, err := serve(distrib.NewStoreServer(store).Handler())
	if err != nil {
		return nil, err
	}
	server := distrib.NewServer(distrib.NewWorker(distrib.WithWorkerParallelism(1)))
	workerURL, stopWorker, err := serve(server.Handler())
	if err != nil {
		stopStore()
		return nil, err
	}
	return &shardRunner{
		transport: distrib.NewHTTPTransport(),
		workerURL: workerURL,
		job:       distrib.Job{Space: info.spec, Indices: shards[0].Indices, StoreURL: storeURL},
		stop:      func() { stopWorker(); server.Close(); stopStore() },
	}, nil
}

// run dispatches the shard once and checks every point came back
// from the store.
func (s *shardRunner) run(int) error {
	got := 0
	err := s.transport.Run(context.Background(), s.workerURL, s.job, func(pr distrib.PointResult) error {
		if pr.Err != "" || !pr.Cached {
			return fmt.Errorf("shard point %d: cached=%v err=%q", pr.Index, pr.Cached, pr.Err)
		}
		got++
		return nil
	})
	if err == nil && got != len(s.job.Indices) {
		err = fmt.Errorf("shard returned %d of %d points", got, len(s.job.Indices))
	}
	return err
}
