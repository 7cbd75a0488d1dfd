package netsim

import (
	"testing"

	"repro/internal/workload"
)

// TestQFTAllocationCeiling pins the simulator's allocation floor: a
// full QFT over a 5x5 mesh with the paper's resource mix (t = g = 16,
// p = 8) must not allocate more than its ceiling per run.  Batches move
// through the pipeline as recycled records and every stage is a
// closure-free continuation, so what remains is per-run setup (nodes,
// resources, queues, the event arena) and per-channel bookkeeping; a
// per-batch or per-hop allocation sneaking back in multiplies the count
// by the 49 batches of every channel and trips the ceiling at once.
//
// Measured with Go 1.24 on linux/amd64: HomeBase 5,065 and MobileQubit
// 3,258 allocs/run (down from 416,898 and 125,243 when each pipeline
// stage allocated a closure).  The ceilings add a margin of under 5%
// for toolchain and map-layout jitter.
func TestQFTAllocationCeiling(t *testing.T) {
	g := grid(t, 5, 5)
	prog := workload.QFT(g.Tiles())
	for _, tc := range []struct {
		layout  Layout
		ceiling float64
	}{
		{HomeBase, 5300},    // measured 5,065 (+4.6%)
		{MobileQubit, 3400}, // measured 3,258 (+4.4%)
	} {
		t.Run(tc.layout.String(), func(t *testing.T) {
			cfg := DefaultConfig(g, tc.layout, 16, 16, 8)
			allocs := testing.AllocsPerRun(3, func() {
				if _, err := Run(cfg, prog); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.ceiling {
				t.Errorf("5x5 QFT %s: %.0f allocs/run, ceiling %.0f", tc.layout, allocs, tc.ceiling)
			}
		})
	}
}
