package distrib

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/qnet"
	"repro/qnet/simulate"
)

// testSpec is the e2e sweep space: 2 layouts x 2 depths x 2 seeds on a
// 3x3 QFT with failure injection (so the seed dimension matters and
// keys do not collapse), 8 points total.
func testSpec(t testing.TB) SpaceSpec {
	t.Helper()
	grid, err := qnet.NewGrid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	return SpaceSpec{
		Grids:       []qnet.Grid{grid},
		Layouts:     []string{"HomeBase", "MobileQubit"},
		Resources:   []simulate.Resources{{Teleporters: 8, Generators: 8, Purifiers: 4}},
		Programs:    []qnet.Program{qnet.QFT(grid.Tiles())},
		Depths:      []int{2, 3},
		Seeds:       []int64{1, 2},
		FailureRate: 0.05,
	}
}

// canonicalPoints renders a point set into comparable bytes: every
// field that identifies the point and its result, with the Cached
// flag deliberately excluded (whether a point came from the store is
// an execution detail, not part of the result contract).
func canonicalPoints(t testing.TB, points []simulate.SweepPoint) []byte {
	t.Helper()
	type row struct {
		Index     int
		Grid      qnet.Grid
		Layout    string
		Resources simulate.Resources
		Program   string
		Depth     int
		Routing   string
		Seed      int64
		Result    simulate.Result
		Err       string
	}
	rows := make([]row, len(points))
	for i, sp := range points {
		rows[i] = row{
			Index:     sp.Point.Index,
			Grid:      sp.Point.Grid,
			Layout:    sp.Point.Layout.String(),
			Resources: sp.Point.Resources,
			Program:   sp.Point.Program.Name,
			Depth:     sp.Point.Depth,
			Routing:   sp.Point.RoutingName(),
			Seed:      sp.Point.Seed,
			Result:    sp.Result,
		}
		if sp.Err != nil {
			rows[i].Err = sp.Err.Error()
		}
	}
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// singleProcess runs the reference single-process sweep of a spec.
func singleProcess(t testing.TB, spec SpaceSpec) []simulate.SweepPoint {
	t.Helper()
	space, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	points, err := simulate.Sweep(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	return points
}

func TestPlanShards(t *testing.T) {
	for _, tc := range []struct {
		total, shards int
		wantShards    int
	}{
		{total: 8, shards: 3, wantShards: 3},
		{total: 8, shards: 8, wantShards: 8},
		{total: 3, shards: 8, wantShards: 3},
		{total: 5, shards: 0, wantShards: 5},
		{total: 0, shards: 4, wantShards: 0},
	} {
		got := PlanShards(tc.total, tc.shards)
		if len(got) != tc.wantShards {
			t.Fatalf("PlanShards(%d, %d): %d shards, want %d", tc.total, tc.shards, len(got), tc.wantShards)
		}
		next := 0
		for i, sh := range got {
			if sh.ID != i {
				t.Fatalf("shard %d has ID %d", i, sh.ID)
			}
			for _, idx := range sh.Indices {
				if idx != next {
					t.Fatalf("PlanShards(%d, %d): want contiguous coverage, got index %d at position %d", tc.total, tc.shards, idx, next)
				}
				next++
			}
		}
		if next != tc.total {
			t.Fatalf("PlanShards(%d, %d) covered %d points", tc.total, tc.shards, next)
		}
	}
}

func TestSpaceSpecRoundTrip(t *testing.T) {
	spec := testSpec(t)
	space, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := space.Size(), 8; got != want {
		t.Fatalf("space size %d, want %d", got, want)
	}
	if n, err := spec.Size(); err != nil || n != 8 {
		t.Fatalf("spec.Size() = %d, %v", n, err)
	}
	if names := LayoutNames(space.Layouts); names[0] != "HomeBase" || names[1] != "MobileQubit" {
		t.Fatalf("LayoutNames = %v", names)
	}
	if names := RoutingNames(space.Routings); len(names) != 0 {
		t.Fatalf("RoutingNames of empty dimension = %v", names)
	}
	if _, err := ParseLayout("nonsense"); err == nil {
		t.Fatal("ParseLayout accepted nonsense")
	}
	bad := spec
	bad.Layouts = []string{"nonsense"}
	if _, err := bad.Space(); err == nil {
		t.Fatal("Space() accepted a bad layout name")
	}
}

func TestJobValidate(t *testing.T) {
	spec := testSpec(t)
	if err := (Job{Space: spec, Indices: []int{0, 7}}).Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	if err := (Job{Space: spec}).Validate(); err == nil {
		t.Fatal("empty shard accepted")
	}
	if err := (Job{Space: spec, Indices: []int{8}}).Validate(); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestWorkerExecute(t *testing.T) {
	spec := testSpec(t)
	w := NewWorker(WithWorkerParallelism(2))
	var mu sync.Mutex
	got := make(map[int]PointResult)
	err := w.Execute(context.Background(), Job{Space: spec, Indices: []int{1, 3, 5}}, func(pr PointResult) error {
		mu.Lock()
		defer mu.Unlock()
		got[pr.Index] = pr
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("emitted %d points, want 3", len(got))
	}
	for _, idx := range []int{1, 3, 5} {
		pr, ok := got[idx]
		if !ok {
			t.Fatalf("index %d missing", idx)
		}
		if pr.Err != "" || pr.Cached || pr.Result.Events == 0 {
			t.Fatalf("index %d: unexpected result %+v", idx, pr)
		}
	}
}

// TestLoopbackParity is the core acceptance test: a sweep sharded
// across two loopback workers returns a point set byte-identical to
// the single-process Sweep over the same Space.
func TestLoopbackParity(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))

	store := simulate.NewCache(0)
	lb := NewLoopback()
	lb.Add("w0", NewWorker(WithWorkerStore(store)))
	lb.Add("w1", NewWorker(WithWorkerStore(store)))
	coord, err := NewCoordinator(lb, []string{"w0", "w1"}, WithSharedStore(store, ""))
	if err != nil {
		t.Fatal(err)
	}
	points, rep, err := coord.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalPoints(t, points)
	if string(got) != string(want) {
		t.Fatalf("distributed point set differs from single-process sweep:\n got %s\nwant %s", got, want)
	}
	if rep.Points != 8 || rep.Shards != 8 {
		t.Fatalf("report %+v", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("sanity check reported mismatches: %v", rep.MismatchDetails)
	}
	if len(rep.ShardsByWorker) == 0 {
		t.Fatal("no shard attribution recorded")
	}
	t.Logf("report: %s", rep)
}

// TestLoopbackWorkerDeath kills one worker mid-shard and asserts the
// reassigned shard completes on the survivor, re-hitting the shared
// store for the points the dead worker already finished, with the
// final point set still byte-identical to the single-process sweep.
func TestLoopbackWorkerDeath(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))

	store := simulate.NewCache(0)
	lb := NewLoopback()
	lb.Add("w0", NewWorker(WithWorkerStore(store), WithWorkerParallelism(1)))
	lb.Add("w1", NewWorker(WithWorkerStore(store), WithWorkerParallelism(1)))
	// w0 dies after delivering one point: by then it has simulated and
	// stored at least one more, so the reassigned shard must re-hit
	// the shared store.
	lb.KillAfterPoints("w0", 1)
	coord, err := NewCoordinator(lb, []string{"w0", "w1"},
		WithSharedStore(store, ""),
		WithShards(4),
		WithMaxAttempts(4),
		WithRetryBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	points, rep, err := coord.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalPoints(t, points)
	if string(got) != string(want) {
		t.Fatalf("point set after worker death differs from single-process sweep:\n got %s\nwant %s", got, want)
	}
	if len(rep.DeadWorkers) != 1 || rep.DeadWorkers[0] != "w0" {
		t.Fatalf("dead workers %v, want [w0]", rep.DeadWorkers)
	}
	if rep.Reassignments < 1 {
		t.Fatalf("no reassignments recorded: %s", rep)
	}
	if rep.CacheHits < 1 {
		t.Fatalf("reassigned shard did not re-hit the shared store: %s", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("sanity check reported mismatches: %v", rep.MismatchDetails)
	}
	if rep.ShardsByWorker["w1"] != 4 {
		t.Fatalf("survivor should own all 4 shards: %v", rep.ShardsByWorker)
	}
	t.Logf("report: %s", rep)
}

// TestAllWorkersDead asserts the sweep fails (rather than hangs) when
// the whole fleet dies.
func TestAllWorkersDead(t *testing.T) {
	spec := testSpec(t)
	store := simulate.NewCache(0)
	lb := NewLoopback()
	lb.Add("w0", NewWorker(WithWorkerStore(store)))
	lb.KillAfterPoints("w0", 0)
	coord, err := NewCoordinator(lb, []string{"w0"},
		WithRetryBackoff(time.Millisecond), WithMaxAttempts(2))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var sweepErr error
	go func() {
		defer close(done)
		_, _, sweepErr = coord.Sweep(context.Background(), spec)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("sweep hung with a dead fleet")
	}
	if sweepErr == nil {
		t.Fatal("sweep succeeded with a dead fleet")
	}
}

// TestHTTPEndToEnd runs the full wire path: two worker job servers and
// a shared store server over real HTTP, merged by the coordinator,
// byte-identical to the single-process sweep.
func TestHTTPEndToEnd(t *testing.T) {
	spec := testSpec(t)
	want := canonicalPoints(t, singleProcess(t, spec))

	store := simulate.NewCache(0)
	storeSrv := httptest.NewServer(NewStoreServer(store).Handler())
	defer storeSrv.Close()

	var workerURLs []string
	for i := 0; i < 2; i++ {
		srv := NewServer(NewWorker())
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		workerURLs = append(workerURLs, ts.URL)
	}

	coord, err := NewCoordinator(NewHTTPTransport(), workerURLs,
		WithSharedStore(store, storeSrv.URL),
		WithHeartbeat(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	points, rep, err := coord.Sweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	got := canonicalPoints(t, points)
	if string(got) != string(want) {
		t.Fatalf("HTTP point set differs from single-process sweep:\n got %s\nwant %s", got, want)
	}
	if rep.Store.Entries == 0 {
		t.Fatalf("shared store never populated: %s", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("sanity check reported mismatches: %v", rep.MismatchDetails)
	}
	t.Logf("report: %s", rep)
}

func TestRemoteStore(t *testing.T) {
	backing := simulate.NewCache(0)
	srv := httptest.NewServer(NewStoreServer(backing).Handler())
	defer srv.Close()

	rs := NewRemoteStore(srv.URL + "/")
	var key simulate.Key
	key[0] = 0xab
	if _, ok := rs.Get(key); ok {
		t.Fatal("hit on empty store")
	}
	want := simulate.Result{Events: 42, Ops: 7}
	rs.Put(key, want)
	got, ok := rs.Get(key)
	if !ok || got.Events != 42 || got.Ops != 7 {
		t.Fatalf("round trip: got %+v ok=%v", got, ok)
	}
	if s := rs.Stats(); s.Hits != 1 || s.Misses != 1 || s.WriteErrors != 0 {
		t.Fatalf("client stats %+v", s)
	}
	server, err := rs.ServerStats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if server.Entries != 1 {
		t.Fatalf("server stats %+v", server)
	}

	// An unreachable server degrades to misses and counted write
	// errors, never failures.
	srv.Close()
	if _, ok := rs.Get(key); ok {
		t.Fatal("hit from closed server")
	}
	rs.Put(key, want)
	if s := rs.Stats(); s.Misses != 2 || s.WriteErrors != 1 {
		t.Fatalf("stats after server loss: %+v", s)
	}
}

func TestStoreServerRejectsBadKey(t *testing.T) {
	srv := httptest.NewServer(NewStoreServer(simulate.NewCache(0)).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/store/nothex")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key: status %d", resp.StatusCode)
	}
}

// TestRemoteStoreBoundsBodies serves oversized bodies to RemoteStore:
// a Result past maxResultBody is a corrupt miss, a stats body past
// maxStatsBody is an error, and a server that keeps streaming cannot
// hold the client — it stops reading at the bound and hangs up.
func TestRemoteStoreBoundsBodies(t *testing.T) {
	const stream = 64 << 20
	written := make(chan int, 1)
	mux := http.NewServeMux()
	mux.HandleFunc(storeStatsPath, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"Hits":1,"Pad":"%s"}`, strings.Repeat("x", maxStatsBody))
	})
	mux.HandleFunc(storePath, func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.WriteString(w, `{"Events":1,"Pad":"`)
		chunk := strings.Repeat("x", 32<<10)
		for n < stream {
			m, err := io.WriteString(w, chunk)
			n += m
			if err != nil {
				break
			}
		}
		written <- n
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	rs := NewRemoteStore(srv.URL)
	if _, ok := rs.Get(simulate.Key{1}); ok {
		t.Fatal("oversized Result body was a hit")
	}
	if s := rs.Stats(); s.CorruptEntries != 1 || s.Misses != 1 {
		t.Errorf("client stats %+v, want one corrupt miss", s)
	}
	select {
	case n := <-written:
		if n >= stream {
			t.Errorf("client read the whole %d-byte stream; want it to stop near the %d-byte bound", n, maxResultBody)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server still streaming: the client never hung up")
	}
	if _, err := rs.ServerStats(context.Background()); err == nil {
		t.Error("oversized stats body decoded without error")
	}
}

func TestHTTPTransportTruncatedStream(t *testing.T) {
	// A server that accepts the job but drops the stream mid-way must
	// surface an error, not a silent partial shard.
	mux := http.NewServeMux()
	mux.HandleFunc(jobsPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintln(w, `{"id":"job-1"}`)
	})
	mux.HandleFunc(jobsPath+"/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, `{"point":{"index":0,"result":{}}}`)
		// ...and then nothing: no done marker, no error line.
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	tr := NewHTTPTransport()
	emitted := 0
	err := tr.Run(context.Background(), ts.URL, Job{Space: testSpec(t), Indices: []int{0}},
		func(PointResult) error { emitted++; return nil })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("want truncation error, got %v (emitted %d)", err, emitted)
	}
}
