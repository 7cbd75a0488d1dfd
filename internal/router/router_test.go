package router

import (
	"testing"
	"time"

	"repro/internal/mesh"
	"repro/internal/phys"
	"repro/internal/sim"
)

func cfg() Config {
	return Config{Teleporters: 4, StorageUnits: 2, TurnCells: 20, Params: phys.IonTrap2006()}
}

func allDirs() []mesh.Direction {
	return []mesh.Direction{mesh.East, mesh.West, mesh.North, mesh.South}
}

func TestNewValidation(t *testing.T) {
	e := sim.New()
	c := cfg()
	c.Teleporters = 0
	if _, err := New(e, mesh.Coord{}, allDirs(), c); err == nil {
		t.Error("zero teleporters should fail")
	}
	c = cfg()
	c.StorageUnits = 0
	if _, err := New(e, mesh.Coord{}, allDirs(), c); err == nil {
		t.Error("zero storage should fail")
	}
	c = cfg()
	c.TurnCells = -1
	if _, err := New(e, mesh.Coord{}, allDirs(), c); err == nil {
		t.Error("negative turn distance should fail")
	}
}

func TestTeleporterSetsSplitEvenly(t *testing.T) {
	e := sim.New()
	n, err := New(e, mesh.Coord{X: 1, Y: 1}, allDirs(), cfg())
	if err != nil {
		t.Fatal(err)
	}
	if n.TeleporterSet(0).Capacity() != 2 || n.TeleporterSet(1).Capacity() != 2 {
		t.Errorf("sets have capacities %d/%d, want 2/2",
			n.TeleporterSet(0).Capacity(), n.TeleporterSet(1).Capacity())
	}
}

func TestSingleTeleporterStillGivesOnePerSet(t *testing.T) {
	e := sim.New()
	c := cfg()
	c.Teleporters = 1
	n, err := New(e, mesh.Coord{}, allDirs(), c)
	if err != nil {
		t.Fatal(err)
	}
	if n.TeleporterSet(0).Capacity() != 1 || n.TeleporterSet(1).Capacity() != 1 {
		t.Error("degenerate node should still have one teleporter per set")
	}
}

func TestStoragePerIncomingLink(t *testing.T) {
	e := sim.New()
	n, err := New(e, mesh.Coord{}, []mesh.Direction{mesh.East, mesh.South}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if n.Storage(mesh.East) == nil || n.Storage(mesh.South) == nil {
		t.Error("storage missing on declared incoming links")
	}
	if n.Storage(mesh.West) != nil {
		t.Error("storage present on undeclared link")
	}
	if n.Storage(mesh.East).Limit() != 2 {
		t.Errorf("storage limit = %d, want 2", n.Storage(mesh.East).Limit())
	}
}

func TestTurnPenalty(t *testing.T) {
	e := sim.New()
	n, _ := New(e, mesh.Coord{}, allDirs(), cfg())
	// 20 cells × 0.2µs = 4µs.
	if got, want := n.TurnPenalty(), 4*time.Microsecond; got != want {
		t.Errorf("turn penalty = %v, want %v", got, want)
	}
	n.TurnPenalty()
	if n.Turns() != 2 {
		t.Errorf("turns = %d, want 2", n.Turns())
	}
}

func TestAxisPanicsOutOfRange(t *testing.T) {
	e := sim.New()
	n, _ := New(e, mesh.Coord{}, allDirs(), cfg())
	defer func() {
		if recover() == nil {
			t.Error("axis 2 should panic")
		}
	}()
	n.TeleporterSet(2)
}

func TestUtilizationAveragesSets(t *testing.T) {
	e := sim.New()
	n, _ := New(e, mesh.Coord{}, allDirs(), cfg())
	// Occupy one X teleporter for the whole sim: X util 0.5 (1 of 2), Y 0.
	n.TeleporterSet(0).Serve(10*time.Microsecond, nil, nil)
	e.Run(0)
	got := n.Utilization()
	if got < 0.24 || got > 0.26 {
		t.Errorf("mean utilization = %g, want 0.25", got)
	}
}
