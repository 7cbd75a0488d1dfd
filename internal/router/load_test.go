package router

import (
	"testing"

	"repro/internal/mesh"
	"repro/internal/phys"
	"repro/internal/sim"
)

// noop is a continuation that only holds the unit or credit it was
// granted.
func noop(any) {}

// loadNode builds a 4-teleporter node with 2 storage units per incoming
// link for the load-accounting tests.
func loadNode(t *testing.T) *Node {
	t.Helper()
	engine := sim.New()
	n, err := New(engine, mesh.Coord{X: 1, Y: 1},
		[]mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South},
		Config{Teleporters: 4, StorageUnits: 2, TurnCells: 20, Params: phys.IonTrap2006()})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestTurnPenaltyChargesPerCall asserts the ballistic turn penalty is
// a fixed per-turn latency and that every charge is counted exactly
// once: n calls mean n turns, each costing BallisticTime(TurnCells),
// and zero calls mean a zero count (a straight-line path never pays).
func TestTurnPenaltyChargesPerCall(t *testing.T) {
	n := loadNode(t)
	if n.Turns() != 0 {
		t.Fatalf("fresh node reports %d turns", n.Turns())
	}
	want := phys.IonTrap2006().BallisticTime(20)
	for i := 1; i <= 3; i++ {
		if got := n.TurnPenalty(); got != want {
			t.Errorf("turn %d: penalty %v, want %v", i, got, want)
		}
		if n.Turns() != uint64(i) {
			t.Errorf("after %d charges: count %d", i, n.Turns())
		}
	}
}

// TestAxisLoadAccountsServiceAndQueue asserts AxisLoad reflects both
// in-service and waiting jobs, normalized by the set capacity, and
// stays per-axis.
func TestAxisLoadAccountsServiceAndQueue(t *testing.T) {
	n := loadNode(t)
	if n.AxisLoad(0) != 0 || n.AxisLoad(1) != 0 {
		t.Fatalf("idle node reports load %v/%v", n.AxisLoad(0), n.AxisLoad(1))
	}
	// The X set has 2 units (4 teleporters split across two axes).
	// Occupy both, then queue a third job.
	x := n.TeleporterSet(0)
	for i := 0; i < 3; i++ {
		x.Acquire(noop, nil)
	}
	if got := n.AxisLoad(0); got != 1.5 {
		t.Errorf("AxisLoad(0) = %v, want 1.5 (2 busy + 1 queued over capacity 2)", got)
	}
	if got := n.AxisLoad(1); got != 0 {
		t.Errorf("AxisLoad(1) = %v, want 0 (loads must not leak across axes)", got)
	}
}

// TestStorageLoadAccountsCreditsAndWaiters asserts StorageLoad tracks
// taken credits plus queued acquirers, and returns zero for absent
// links.
func TestStorageLoadAccountsCreditsAndWaiters(t *testing.T) {
	n := loadNode(t)
	s := n.Storage(mesh.East)
	if got := n.StorageLoad(mesh.East); got != 0 {
		t.Fatalf("empty storage load %v", got)
	}
	s.Acquire(noop, nil)
	if got := n.StorageLoad(mesh.East); got != 0.5 {
		t.Errorf("half-full storage load %v, want 0.5", got)
	}
	s.Acquire(noop, nil)
	s.Acquire(noop, nil) // queued: no credits left
	if got := n.StorageLoad(mesh.East); got != 1.5 {
		t.Errorf("overloaded storage load %v, want 1.5", got)
	}
	// A border node without a link in some direction reports zero.
	engine := sim.New()
	border, err := New(engine, mesh.Coord{X: 0, Y: 0}, []mesh.Direction{mesh.East},
		Config{Teleporters: 4, StorageUnits: 2, Params: phys.IonTrap2006()})
	if err != nil {
		t.Fatal(err)
	}
	if got := border.StorageLoad(mesh.West); got != 0 {
		t.Errorf("absent link storage load %v, want 0", got)
	}
}

// TestLoadsExceedOneUnderBacklog pins the route.Loads contract in the
// deep-backlog regime: AxisLoad and StorageLoad are counter-over-
// capacity ratios, NOT bounded fractions, and grow past 1.0 with every
// queued job.  Consumers that need [0, 1] — the congestion heatmap's
// color scale — must clamp at their own normalization layer
// (trace.Clamp01); the contract here is that the raw signal keeps
// ranking congested nodes even when every candidate is saturated.
func TestLoadsExceedOneUnderBacklog(t *testing.T) {
	// The X teleporter set has capacity 2 and East storage has limit 2,
	// so `acquires` jobs mean max(acquires-2, 0) backlogged ones.
	cases := []struct {
		acquires int
		want     float64
	}{
		{0, 0},
		{1, 0.5},
		{2, 1}, // saturated, nothing queued
		{3, 1.5},
		{4, 2}, // one full extra wave queued
		{6, 3}, // deep backlog keeps scaling linearly
	}
	for _, c := range cases {
		n := loadNode(t)
		x := n.TeleporterSet(0)
		s := n.Storage(mesh.East)
		for i := 0; i < c.acquires; i++ {
			x.Acquire(noop, nil)
			s.Acquire(noop, nil)
		}
		if got := n.AxisLoad(0); got != c.want {
			t.Errorf("%d acquires: AxisLoad(0) = %v, want %v", c.acquires, got, c.want)
		}
		if got := n.StorageLoad(mesh.East); got != c.want {
			t.Errorf("%d acquires: StorageLoad(East) = %v, want %v", c.acquires, got, c.want)
		}
	}
}

// TestOccupancyAggregatesLoadCounters asserts Occupancy sums, in
// batches, exactly the counters AxisLoad and StorageLoad normalize —
// the invariant that makes the telemetry tracer's occupancy series and
// adaptive routing's load view two readings of one signal.
func TestOccupancyAggregatesLoadCounters(t *testing.T) {
	n := loadNode(t)
	if got := n.Occupancy(); got != 0 {
		t.Fatalf("idle node occupancy %d, want 0", got)
	}
	// 3 jobs on the X set (2 busy + 1 queued), 1 on the Y set, and 5
	// storage acquires on East (2 credits + 3 waiters): 9 batches total.
	for i := 0; i < 3; i++ {
		n.TeleporterSet(0).Acquire(noop, nil)
	}
	n.TeleporterSet(1).Acquire(noop, nil)
	for i := 0; i < 5; i++ {
		n.Storage(mesh.East).Acquire(noop, nil)
	}
	if got := n.Occupancy(); got != 9 {
		t.Errorf("occupancy %d, want 9", got)
	}
	// Cross-check against the normalized views: occupancy must equal
	// the denormalized sum of every axis and storage load.
	sum := 0.0
	for axis := 0; axis < 2; axis++ {
		sum += n.AxisLoad(axis) * float64(n.TeleporterSet(axis).Capacity())
	}
	for _, d := range []mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South} {
		if s := n.Storage(d); s != nil {
			sum += n.StorageLoad(d) * float64(s.Limit())
		}
	}
	if int(sum) != n.Occupancy() {
		t.Errorf("denormalized load sum %v != occupancy %d", sum, n.Occupancy())
	}
}
