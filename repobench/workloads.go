package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/figures"
	"repro/qnet"
	"repro/qnet/distrib"
	"repro/qnet/simulate"
)

func init() {
	register(&workload{name: "paper-qft", open: openPaperQFT})
	register(&workload{name: "fig16-sweep", open: openFig16})
	register(&workload{name: "distrib-resweep", open: openResweep})
}

// derivedSeeds returns n distinct positive seeds drawn from the
// workload seed.
func derivedSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63n(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// ---------------------------------------------------------------------
// paper-qft: QFT-256 on the paper's 16×16 Mobile Qubit machine.

// paperQFTPin is the Result of the paper-qft op.  The machine has no
// failure injection and no faults, so the seed does not change it.
const paperQFTPin = `{"Exec":4693313200,"Ops":32640,"Channels":32895,"LocalOps":0,"PairsDelivered":12894840,"PairHops":14300160,"Turns":11025,"Events":6864285,"ClassicalMessages":25583145,"FailedBatches":0,"MeanChannelLatency":11127903,"MaxChannelLatency":1115247200,"TeleporterUtil":0.011402216423903376,"GeneratorUtil":0.006050203510816198,"PurifierUtil":0.12140887985858263}`

type paperQFT struct {
	machine *simulate.Machine
	prog    qnet.Program
	spec    distrib.SpaceSpec
	last    simulate.Result
}

func openPaperQFT(cfg runConfig, _ *tracer, _ int) (instance, error) {
	grid, err := qnet.NewGrid(16, 16)
	if err != nil {
		return nil, err
	}
	m, err := simulate.New(grid, simulate.MobileQubit, simulate.WithSeed(cfg.seed))
	if err != nil {
		return nil, err
	}
	prog := qnet.QFT(grid.Tiles())
	return &paperQFT{
		machine: m,
		prog:    prog,
		spec: distrib.SpaceSpec{
			Grids:     []qnet.Grid{grid},
			Layouts:   distrib.LayoutNames([]simulate.Layout{simulate.MobileQubit}),
			Resources: []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 16}},
			Programs:  []qnet.Program{prog},
			Seeds:     []int64{cfg.seed},
		},
	}, nil
}

func (q *paperQFT) op(t *tracer, parent int) (int, error) {
	id := t.begin("simulate.Machine.Run", parent)
	res, err := q.machine.Run(context.Background(), q.prog)
	t.end(id)
	if err != nil {
		return 0, err
	}
	if got := mustJSON(res); got != paperQFTPin {
		return 0, fmt.Errorf("paper-qft result %s differs from the pin %s", got, paperQFTPin)
	}
	q.last = res
	return 1, nil
}

func (q *paperQFT) layers() (layerInfo, error) {
	return layerInfo{
		unique:  []simulate.Result{q.last},
		workers: 1,
		spec:    q.spec,
		results: []simulate.Result{q.last},
	}, nil
}

func (q *paperQFT) close() {}

// ---------------------------------------------------------------------
// fig16-sweep: the Figure 16 regeneration users run with figures -fig 16.

// fig16Pin is the SHA-256 of the rendered Figure 16 table.  Without
// failure injection every seed gives the same runs, so the seed does
// not change it.
const fig16Pin = "e8e09183e1ab1969608fa383d319c840702f28396f74b1a8dd60acb9277a9d3e"

type fig16 struct {
	seeds []int64
	cache *simulate.Cache
	stats simulate.CacheStats
	spec  distrib.SpaceSpec
}

func openFig16(cfg runConfig, _ *tracer, _ int) (instance, error) {
	def := figures.DefaultFig16Config()
	grid, err := qnet.NewGrid(def.GridSize, def.GridSize)
	if err != nil {
		return nil, err
	}
	allocs, err := simulate.Allocations(def.Area, def.Ratios)
	if err != nil {
		return nil, err
	}
	// The same space figures.Fig16 sweeps: the unlimited-resource
	// baseline first, then the allocations.  The probes use it to find
	// the op's results in its cache.
	resources := []simulate.Resources{{Teleporters: 1024, Generators: 1024, Purifiers: 1024}}
	for _, a := range allocs {
		resources = append(resources, simulate.AllocationResources(a))
	}
	seeds := derivedSeeds(cfg.seed, len(def.Seeds))
	return &fig16{
		seeds: seeds,
		spec: distrib.SpaceSpec{
			Grids:     []qnet.Grid{grid},
			Layouts:   distrib.LayoutNames([]simulate.Layout{simulate.HomeBase, simulate.MobileQubit}),
			Resources: resources,
			Programs:  []qnet.Program{qnet.QFT(grid.Tiles())},
			Seeds:     seeds,
		},
	}, nil
}

func (f *fig16) op(t *tracer, parent int) (int, error) {
	cache := simulate.NewCache(0)
	cfg := figures.DefaultFig16Config()
	cfg.Seeds = f.seeds
	cfg.Cache = cache
	id := t.begin("figures.Fig16", parent)
	data, err := figures.Fig16(cfg)
	t.end(id)
	if err != nil {
		return 0, err
	}
	var table bytes.Buffer
	if err := data.Table().WriteText(&table); err != nil {
		return 0, err
	}
	sum := sha256.Sum256(table.Bytes())
	if got := hex.EncodeToString(sum[:]); got != fig16Pin {
		return 0, fmt.Errorf("fig16 table digest %s differs from the pin %s:\n%s", got, fig16Pin, table.String())
	}
	if s := data.Sweep; s.Points != 50 || s.CacheHits != 40 || s.Failed != 0 {
		return 0, fmt.Errorf("fig16 sweep %v, want 50 points, 40 cached, 0 failed", s)
	}
	f.cache, f.stats = cache, cache.Stats()
	return data.Sweep.Points, nil
}

func (f *fig16) layers() (layerInfo, error) {
	results, err := specResults(f.spec, f.cache)
	if err != nil {
		return layerInfo{}, err
	}
	return layerInfo{
		unique:  uniqueResults(f.spec, results),
		cache:   &f.stats,
		workers: runtime.GOMAXPROCS(0), // simulate.Sweep's default
		spec:    f.spec,
		results: results,
	}, nil
}

func (f *fig16) close() {}

// ---------------------------------------------------------------------
// distrib-resweep: the sweep -workers ... -store-listen ... -cache-dir
// path, in process, re-run against a warm disk store.

// resweepPoints is the size of the resweep space.
const resweepPoints = 768

type resweep struct {
	dir        string // the disk store's directory
	spec       distrib.SpaceSpec
	worker     *distrib.Server
	workerURL  string
	stopWorker func()
	cold       []byte            // canonical bytes of the cold fill
	results    []simulate.Result // cold-fill results by point index
	rep        *distrib.Report
	stats      simulate.CacheStats
}

func resweepSpec(seed int64) distrib.SpaceSpec {
	var grids []qnet.Grid
	for _, n := range []int{3, 4} {
		g, _ := qnet.NewGrid(n, n)
		grids = append(grids, g)
	}
	return distrib.SpaceSpec{
		Grids:       grids,
		Layouts:     distrib.LayoutNames([]simulate.Layout{simulate.HomeBase, simulate.MobileQubit}),
		Resources:   []simulate.Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
		Programs:    []qnet.Program{qnet.QFT(9)},
		Depths:      []int{2, 3},
		Routings:    []string{"xy", "yx", "zigzag", "least-congested"},
		Seeds:       derivedSeeds(seed, 24),
		FailureRate: 0.05,
	}
}

func openResweep(cfg runConfig, t *tracer, parent int) (_ instance, err error) {
	r := &resweep{spec: resweepSpec(cfg.seed)}
	if n, err := r.spec.Size(); err != nil || n != resweepPoints {
		return nil, fmt.Errorf("resweep space has %d points (%v), want %d", n, err, resweepPoints)
	}
	if r.dir, err = os.MkdirTemp(cfg.scratch, "store-"); err != nil {
		return nil, err
	}
	// A sweepd-shaped worker: in-memory local store, one point at a
	// time, reached over loopback HTTP.
	r.worker = distrib.NewServer(distrib.NewWorker(
		distrib.WithWorkerStore(simulate.NewCache(0)),
		distrib.WithWorkerParallelism(1)))
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.workerURL, r.stopWorker, err = serve(r.worker.Handler()); err != nil {
		return nil, err
	}

	// The cold fill simulates every point into the empty store.
	id := t.begin("coldfill", parent)
	points, rep, _, err := r.sweep(t, id)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("cold fill: %w", err)
	}
	if rep.Points != resweepPoints || rep.CacheHits != 0 || rep.Mismatches != 0 {
		return nil, fmt.Errorf("cold fill report: %v", rep)
	}
	r.results = make([]simulate.Result, len(points))
	for i, p := range points {
		if p.Err != nil {
			return nil, fmt.Errorf("cold fill point %d: %w", i, p.Err)
		}
		r.results[i] = p.Result
	}
	// Cross-check a sample of the fill against single-process runs.
	if err := spotCheck(r.spec, r.results, 8); err != nil {
		return nil, err
	}
	if r.cold, err = canonical(points); err != nil {
		return nil, err
	}
	return r, nil
}

// sweep runs the whole space once, as one run of the sweep command
// does: a fresh disk cache on the store directory, served over
// loopback HTTP as the fleet's shared store, and a coordinator
// dispatching over HTTPTransport to the worker.
func (r *resweep) sweep(t *tracer, parent int) ([]simulate.SweepPoint, *distrib.Report, simulate.CacheStats, error) {
	disk, err := simulate.NewDiskCache(r.dir, 0)
	if err != nil {
		return nil, nil, simulate.CacheStats{}, err
	}
	var store simulate.Store = disk
	var transport distrib.Transport = distrib.NewHTTPTransport()
	if t != nil {
		shard := new(atomic.Int64)
		store = &spanStore{inner: disk, t: t, parent: parent, shard: shard}
		transport = &spanTransport{inner: transport, t: t, parent: parent, shard: shard}
	}
	storeURL, stop, err := serve(distrib.NewStoreServer(store).Handler())
	if err != nil {
		return nil, nil, simulate.CacheStats{}, err
	}
	defer stop()

	coord, err := distrib.NewCoordinator(transport, []string{r.workerURL},
		distrib.WithSharedStore(store, storeURL),
		distrib.WithHeartbeat(2*time.Second))
	if err != nil {
		return nil, nil, simulate.CacheStats{}, err
	}
	points, rep, err := coord.Sweep(context.Background(), r.spec)
	return points, rep, disk.Stats(), err
}

func (r *resweep) op(t *tracer, parent int) (int, error) {
	points, rep, stats, err := r.sweep(t, parent)
	if err != nil {
		return 0, err
	}
	got, err := canonical(points)
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(got, r.cold) {
		return 0, fmt.Errorf("resweep points differ from the cold fill")
	}
	if rep.Points != resweepPoints || rep.CacheHits != rep.Points || rep.Mismatches != 0 || rep.Reassignments != 0 {
		return 0, fmt.Errorf("resweep report: %v", rep)
	}
	if stats.DiskHits != resweepPoints || stats.Misses != 0 {
		return 0, fmt.Errorf("resweep store: %v, want %d disk hits", stats, resweepPoints)
	}
	r.rep, r.stats = rep, stats
	return rep.Points, nil
}

func (r *resweep) layers() (layerInfo, error) {
	return layerInfo{
		cache:   &r.stats,
		report:  r.rep,
		workers: 1,
		spec:    r.spec,
		results: r.results,
	}, nil
}

func (r *resweep) close() {
	if r.stopWorker != nil {
		r.stopWorker()
	}
	r.worker.Close()
	os.RemoveAll(r.dir)
}

// canonical encodes the merged points for byte comparison: index,
// result and error of each, in index order.
func canonical(points []simulate.SweepPoint) ([]byte, error) {
	type wire struct {
		Index  int
		Result simulate.Result
		Err    string `json:",omitempty"`
	}
	out := make([]wire, len(points))
	for i, p := range points {
		out[i] = wire{Index: p.Point.Index, Result: p.Result}
		if p.Err != nil {
			out[i].Err = p.Err.Error()
		}
	}
	return json.Marshal(out)
}

// spotCheck re-runs every len/n-th point of the space in process,
// without any store, and compares it with the given results.
func spotCheck(spec distrib.SpaceSpec, results []simulate.Result, n int) error {
	space, err := spec.Space()
	if err != nil {
		return err
	}
	pts, err := space.Points()
	if err != nil {
		return err
	}
	for i := 0; i < len(pts); i += len(pts) / n {
		m, err := space.Machine(pts[i])
		if err != nil {
			return err
		}
		res, err := m.Run(context.Background(), pts[i].Program)
		if err != nil {
			return fmt.Errorf("spot check point %d: %w", i, err)
		}
		if d := simulate.Diff(res, results[i]); !d.IsZero() {
			return fmt.Errorf("spot check point %d: distributed result differs: %s", i, d)
		}
	}
	return nil
}

// specResults looks every point of the space up in the store.
func specResults(spec distrib.SpaceSpec, st simulate.Store) ([]simulate.Result, error) {
	keys, err := specKeys(spec)
	if err != nil {
		return nil, err
	}
	out := make([]simulate.Result, len(keys))
	for i, k := range keys {
		res, ok := st.Get(k)
		if !ok {
			return nil, fmt.Errorf("point %d of the space is not in the op's store", i)
		}
		out[i] = res
	}
	return out, nil
}

// specKeys returns the content key of every point of the space.
func specKeys(spec distrib.SpaceSpec) ([]simulate.Key, error) {
	space, err := spec.Space()
	if err != nil {
		return nil, err
	}
	pts, err := space.Points()
	if err != nil {
		return nil, err
	}
	keys := make([]simulate.Key, len(pts))
	for i, pt := range pts {
		m, err := space.Machine(pt)
		if err != nil {
			return nil, err
		}
		keys[i] = m.CacheKey(pt.Program)
	}
	return keys, nil
}

// uniqueResults keeps one result per distinct content key.
func uniqueResults(spec distrib.SpaceSpec, results []simulate.Result) []simulate.Result {
	keys, err := specKeys(spec)
	if err != nil {
		return results
	}
	seen := make(map[simulate.Key]bool, len(keys))
	var out []simulate.Result
	for i, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, results[i])
		}
	}
	return out
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
