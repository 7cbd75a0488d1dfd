package netsim

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/mesh"
	"repro/internal/route"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestEndOfRunConservation checks the simulator's conservation laws on
// the state a finished run leaves behind, in the spirit of
// contract-based verification: whatever path a batch took — delivered,
// failed purification and resent, dropped on a link and resent, or
// abandoned when the run aborted — every storage credit it held was
// returned, every resource unit it occupied was released with no job
// left queued, and no resource was busy for longer than its units
// existed.  The runs cover a healthy mesh, purification failure, link
// drops under adaptive routing, and drops plus dead links under the
// fault-adaptive escape router, on both layouts and three seeds.
func TestEndOfRunConservation(t *testing.T) {
	g := grid(t, 5, 5)
	prog := workload.QFT(g.Tiles())
	for _, tc := range []struct {
		name   string
		tweak  func(*Config)
		policy route.Policy
	}{
		{name: "healthy"},
		{name: "purify-failure", tweak: func(c *Config) { c.PurifyFailureRate = 0.2 }},
		{name: "drop", tweak: func(c *Config) { c.Faults = fault.Spec{Drop: 0.05} }, policy: route.LeastCongested()},
		{name: "drop+dead+failure", tweak: func(c *Config) {
			c.Faults = fault.Spec{Drop: 0.05, DeadLinks: 0.1}
			c.PurifyFailureRate = 0.05
		}, policy: route.FaultAdaptive()},
	} {
		for _, layout := range []Layout{HomeBase, MobileQubit} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", tc.name, layout, seed), func(t *testing.T) {
					cfg := DefaultConfig(g, layout, 16, 16, 8)
					cfg.Route = tc.policy
					cfg.Seed = seed
					if tc.tweak != nil {
						tc.tweak(&cfg)
					}
					s := &simulator{cfg: cfg, engine: sim.New()}
					if err := s.build(prog); err != nil {
						t.Fatal(err)
					}
					s.tryIssue()
					if _, err := s.engine.RunContext(context.Background(), 0); err != nil {
						t.Fatal(err)
					}
					if s.err == nil && !s.sch.Done() {
						t.Fatalf("run stalled with %d/%d ops done", s.sch.Completed(), s.sch.Len())
					}
					checkConservation(t, s)
				})
			}
		}
	}
}

// checkConservation asserts the end-of-run laws over every router
// storage semaphore and every purifier, generator and teleporter-set
// resource of a drained simulator.
func checkConservation(t *testing.T, s *simulator) {
	t.Helper()
	now := s.engine.Now()
	checkResource := func(r *sim.Resource) {
		if r.InUse() != 0 || r.QueueLen() != 0 {
			t.Errorf("%s: %d units in use and %d jobs queued after the run", r.Name(), r.InUse(), r.QueueLen())
		}
		if _, _, busy := r.Stats(); busy > now*time.Duration(r.Capacity()) {
			t.Errorf("%s: busy %v exceeds %d units x %v", r.Name(), busy, r.Capacity(), now)
		}
	}
	for _, n := range s.nodes {
		for axis := 0; axis < 2; axis++ {
			checkResource(n.TeleporterSet(axis))
		}
		for d := mesh.Direction(0); d < 4; d++ {
			if sem := n.Storage(d); sem != nil && (sem.Available() != sem.Limit() || sem.Waiting() != 0) {
				t.Errorf("%s: %d/%d credits returned, %d waiters after the run",
					sem.Name(), sem.Available(), sem.Limit(), sem.Waiting())
			}
		}
	}
	for _, r := range s.purify {
		checkResource(r)
	}
	for _, r := range s.gnodes {
		checkResource(r)
	}
}
