// Command qnetsim runs the event-driven quantum-network simulator on one
// configuration and prints the full result: execution time, channel
// statistics, resource utilizations and classical-network traffic.
//
// Usage:
//
//	qnetsim -workload qft -grid 8 -layout mobile -t 16 -g 16 -p 8
//	qnetsim -workload mm -grid 16 -layout home -t 24 -g 24 -p 6
//	qnetsim -program kernel.q -grid 8 -heatmap      # custom program file
//	qnetsim -grid 12 -timeout 30s                   # bounded run
//	qnetsim -route zigzag                           # routing policy (xy, yx, zigzag, least-congested)
//	qnetsim -cache-dir .qnet                        # warm re-runs hit the result cache
//	qnetsim -grid 8 -trace trace.json               # time-series congestion trace (qnet/trace JSON)
//	qnetsim -grid 16 -cpuprofile cpu.pprof          # profile the hot loop (go tool pprof cpu.pprof)
//	qnetsim -grid 16 -memprofile mem.pprof          # heap profile after the run
//
// Program files use the instruction-stream format of qnet.ParseProgram:
//
//	qubits 16
//	op 0 1
//	qft 8 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/qnet"
	"repro/qnet/fault"
	"repro/qnet/route"
	"repro/qnet/simulate"
	"repro/qnet/trace"
)

func main() {
	// All work happens in realMain so that deferred cleanups — the pprof
	// profile writers in particular — run before the process exits.
	os.Exit(realMain())
}

func realMain() int {
	var (
		wl       = flag.String("workload", "qft", "workload: qft, mm or me (ignored with -program)")
		program  = flag.String("program", "", "path to an instruction-stream file (see qnet.ParseProgram)")
		gridN    = flag.Int("grid", 8, "mesh edge length")
		layout   = flag.String("layout", "home", "layout: home or mobile")
		t        = flag.Int("t", 16, "teleporters per T' node")
		g        = flag.Int("g", 16, "generators per G node")
		p        = flag.Int("p", 16, "queue purifiers per P node")
		depth    = flag.Int("depth", 3, "queue purifier depth")
		level    = flag.Int("level", 2, "Steane code concatenation level")
		hopCell  = flag.Int("hopcells", 600, "cells per mesh hop")
		routeFl  = flag.String("route", "xy", "routing policy: "+strings.Join(route.Names(), ", ")+", fault-adaptive")
		failure  = flag.Float64("failure", 0, "injected purification failure probability per batch")
		fDead    = flag.Float64("fault-dead", 0, "fraction of mesh links killed before the run (use -route fault-adaptive to route around them)")
		fDrop    = flag.Float64("fault-drop", 0, "per-hop batch drop probability on live links")
		seed     = flag.Int64("seed", 0, "fault-pattern and failure-injection RNG seed")
		timeout  = flag.Duration("timeout", 0, "abort the simulation after this wall-clock time (0 = none)")
		traceOut = flag.String("trace", "", "write a time-series congestion trace (versioned JSON) to this file")
		traceIv  = flag.Duration("trace-interval", 0, "simulated-time sampling interval for -trace (0 = the trace package default)")
		heatmap  = flag.Bool("heatmap", false, "print per-tile utilization heatmaps")
		cache    = flag.String("cache-dir", "", "directory for the on-disk result cache (warm runs are served from it)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile after the simulation to this file (go tool pprof)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "qnetsim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "qnetsim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		// The heap profile is written after the run (deferred), so it
		// captures the simulator's full allocation profile rather than
		// startup noise.
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "qnetsim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile reflects retained memory
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "qnetsim:", err)
			}
		}()
	}

	if err := run(opts{
		workload: *wl, program: *program, gridN: *gridN, layout: *layout,
		t: *t, g: *g, p: *p, depth: *depth, level: *level, hopCells: *hopCell,
		route: *routeFl, failure: *failure, faultDead: *fDead, faultDrop: *fDrop,
		seed: *seed, timeout: *timeout,
		traceOut: *traceOut, traceInterval: *traceIv,
		heatmap: *heatmap, cacheDir: *cache,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "qnetsim:", err)
		return 1
	}
	return 0
}

type opts struct {
	workload, program, layout    string
	gridN, t, g, p, depth, level int
	hopCells                     int
	route                        string
	failure                      float64
	faultDead, faultDrop         float64
	seed                         int64
	timeout                      time.Duration
	traceOut                     string
	traceInterval                time.Duration
	heatmap                      bool
	cacheDir                     string
}

func run(o opts) error {
	grid, err := qnet.NewGrid(o.gridN, o.gridN)
	if err != nil {
		return err
	}

	var layout simulate.Layout
	switch o.layout {
	case "home":
		layout = simulate.HomeBase
	case "mobile":
		layout = simulate.MobileQubit
	default:
		return fmt.Errorf("unknown layout %q (want home or mobile)", o.layout)
	}

	var prog qnet.Program
	if o.program != "" {
		f, err := os.Open(o.program)
		if err != nil {
			return err
		}
		defer f.Close()
		prog, err = qnet.ParseProgram(f)
		if err != nil {
			return err
		}
	} else {
		switch o.workload {
		case "qft":
			prog = qnet.QFT(grid.Tiles())
		case "mm":
			prog = qnet.ModMult(grid.Tiles() / 2)
		case "me":
			prog = qnet.ModExp(grid.Tiles()/4, 1)
		default:
			return fmt.Errorf("unknown workload %q (want qft, mm or me)", o.workload)
		}
	}

	policy, err := route.Parse(o.route)
	if err != nil {
		return err
	}

	mopts := []simulate.Option{
		simulate.WithResources(o.t, o.g, o.p),
		simulate.WithPurifyDepth(o.depth),
		simulate.WithCodeLevel(o.level),
		simulate.WithHopCells(o.hopCells),
		simulate.WithRouting(policy),
		simulate.WithFailureRate(o.failure),
		simulate.WithFaults(fault.Spec{DeadLinks: o.faultDead, Drop: o.faultDrop}),
		simulate.WithSeed(o.seed),
	}
	if o.cacheDir != "" {
		mopts = append(mopts, simulate.WithCacheDir(o.cacheDir))
	}
	m, err := simulate.New(grid, layout, mopts...)
	if err != nil {
		return err
	}

	// -trace attaches a telemetry tracer; the traced run always
	// simulates (never answers from the cache) so the time series
	// reflects a real execution.
	var tracer *trace.Tracer
	if o.traceOut != "" {
		tracer = trace.New(trace.Config{Interval: o.traceInterval})
		m = m.WithTrace(tracer)
	}

	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}

	// The heatmap needs per-component Details, which are not cached;
	// plain runs go through Machine.Run so an attached cache can serve
	// warm re-runs without simulating.
	var res simulate.Result
	var detail *simulate.Detail
	if o.heatmap {
		res, detail, err = m.RunDetailed(ctx, prog)
	} else {
		res, err = m.Run(ctx, prog)
	}
	if err != nil {
		return err
	}

	fmt.Printf("workload            %s (%d logical qubits, %d ops)\n", prog.Name, prog.Qubits, res.Ops)
	fmt.Printf("machine             %dx%d mesh, %v layout, t=%d g=%d p=%d, depth-%d purifiers, level-%d code, %s routing\n",
		o.gridN, o.gridN, layout, o.t, o.g, o.p, o.depth, o.level, m.RoutingName())
	fmt.Printf("execution time      %v\n", res.Exec)
	fmt.Printf("channels            %d (%d ops were local)\n", res.Channels, res.LocalOps)
	fmt.Printf("EPR pairs delivered %d\n", res.PairsDelivered)
	fmt.Printf("EPR pair-hops       %d (%d router turns)\n", res.PairHops, res.Turns)
	if res.FailedBatches > 0 {
		fmt.Printf("failed batches      %d (failure rate %.2f)\n", res.FailedBatches, o.failure)
	}
	if res.DeadLinks > 0 || res.DroppedBatches > 0 {
		fmt.Printf("faults              %d dead links, %d dropped batches\n", res.DeadLinks, res.DroppedBatches)
	}
	fmt.Printf("channel latency     mean %v, max %v\n", res.MeanChannelLatency, res.MaxChannelLatency)
	fmt.Printf("utilization         teleporters %.1f%%, generators %.1f%%, purifiers %.1f%%\n",
		100*res.TeleporterUtil, 100*res.GeneratorUtil, 100*res.PurifierUtil)
	fmt.Printf("classical messages  %d\n", res.ClassicalMessages)
	fmt.Printf("simulation events   %d\n", res.Events)

	if tracer != nil {
		ex := tracer.Export()
		f, err := os.Create(o.traceOut)
		if err != nil {
			return err
		}
		if err := ex.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("trace               %s (%d samples every %v, %d drops, %d resends)\n",
			o.traceOut, len(ex.Times), time.Duration(ex.IntervalNS), ex.TotalDrops, ex.TotalResends)
	}

	if o.heatmap {
		for _, metric := range []string{"teleporter", "purifier"} {
			fmt.Println()
			m, err := detail.Heatmap(metric)
			if err != nil {
				return err
			}
			fmt.Print(m)
		}
		hot, v := detail.HottestTile()
		fmt.Printf("\nhottest T' node: %v at %.1f%%\n", hot, 100*v)
	}
	if c := m.Cache(); c != nil {
		fmt.Fprintln(os.Stderr, "qnetsim: result cache:", c.Stats())
	}
	return nil
}
