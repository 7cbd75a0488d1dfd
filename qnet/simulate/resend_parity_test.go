package simulate

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
)

// resendRow is one golden row of the resend-path pin: the point's
// coordinates, the purification failure rate it ran under, and either
// the full Result or the structured error the run ended with.
type resendRow struct {
	Grid        string
	Layout      string
	Routing     string
	FailureRate float64
	Faults      string
	Seed        int64
	Result      *Result `json:",omitempty"`
	Err         string  `json:",omitempty"`
}

// resendFailureRates are the purification failure rates of the resend
// golden; each runs the whole resendSpace.
var resendFailureRates = []float64{0.05, 0.2}

// resendSpace is the space the resend golden covers: 5x5 and 6x6
// meshes, both layouts, the fixed xy policy plus the two policies that
// re-route replacement batches (least-congested on live loads,
// fault-adaptive around dead links), a healthy mesh, a lossy one and a
// lossy one with 10% dead links, three seeds each.
func resendSpace(t *testing.T, rate float64) Space {
	t.Helper()
	var grids []qnet.Grid
	for _, edge := range []int{5, 6} {
		g, err := qnet.NewGrid(edge, edge)
		if err != nil {
			t.Fatal(err)
		}
		grids = append(grids, g)
	}
	return Space{
		Grids:     grids,
		Layouts:   []Layout{HomeBase, MobileQubit},
		Resources: []Resources{{Teleporters: 16, Generators: 16, Purifiers: 8}},
		Programs:  []qnet.Program{qnet.QFT(25)},
		Routings:  []route.Policy{route.XYOrder(), route.LeastCongested(), route.FaultAdaptive()},
		Faults: []fault.Spec{
			{},
			{Drop: 0.02},
			{DeadLinks: 0.1, Drop: 0.05},
		},
		Seeds:   []int64{1, 2, 3},
		Options: []Option{WithFailureRate(rate)},
	}
}

// resendRows runs the resend space at every failure rate and flattens
// the finished points into golden rows.
func resendRows(t *testing.T) []resendRow {
	t.Helper()
	var rows []resendRow
	for _, rate := range resendFailureRates {
		points, err := Sweep(context.Background(), resendSpace(t, rate))
		if err != nil {
			t.Fatal(err)
		}
		for _, pt := range points {
			row := resendRow{
				Grid:        fmt.Sprintf("%dx%d", pt.Point.Grid.Width, pt.Point.Grid.Height),
				Layout:      pt.Point.Layout.String(),
				Routing:     pt.Point.RoutingName(),
				FailureRate: rate,
				Faults:      pt.Point.FaultsName(),
				Seed:        pt.Point.Seed,
			}
			if pt.Err != nil {
				row.Err = pt.Err.Error()
			} else {
				res := pt.Result
				row.Result = &res
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestResendPathsGolden pins the two paths where a batch is lost and a
// replacement is sent — purification failure and a fault-model link
// drop — byte for byte: every Result (or structured error) of
// resendSpace must reproduce testdata/resend_paths.json.  The healthy
// parity goldens never exercise these paths, so without this pin a
// refactor of the batch pipeline could change resend timing, draw
// order or re-routing unnoticed.
//
// Regenerate (only for an intentional simulator change) with:
//
//	QNET_UPDATE_GOLDEN=1 go test -run TestResendPathsGolden ./qnet/simulate/
func TestResendPathsGolden(t *testing.T) {
	path := filepath.Join("testdata", "resend_paths.json")
	rows := resendRows(t)
	var failed, dropped uint64
	for _, r := range rows {
		if r.Result != nil {
			failed += r.Result.FailedBatches
			dropped += r.Result.DroppedBatches
		}
	}
	if failed == 0 || dropped == 0 {
		t.Fatalf("resend space exercised %d purification failures and %d drops; both paths must be covered", failed, dropped)
	}
	got, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	if os.Getenv("QNET_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes, %d rows)", path, len(got), len(rows))
		return
	}

	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("resend-path sweep diverged from testdata/resend_paths.json\n got %d bytes\nwant %d bytes\n"+
			"(failure and drop resends must keep their timing and draw order; "+
			"regenerate only for an intentional simulator change)", len(got), len(want))
	}
}
