// Command bench runs the repository's performance benchmarks
// (internal/perfbench) outside `go test` and emits a machine-readable
// JSON report — by default BENCH_qft.json — so the simulator's perf
// trajectory (ns/op, allocs/op, simulated events/sec) is recorded per
// change and comparable across changes.
//
// The benchmark bodies are exactly the ones `go test -bench .
// ./internal/perfbench/` runs; this command drives them through
// testing.Benchmark, so both harnesses measure the same code.
//
// Usage:
//
//	bench                  # 1s per benchmark, writes BENCH_qft.json
//	bench -benchtime 3x    # exactly 3 iterations per benchmark
//	bench -out report.json # alternate output path
//	bench -check           # 1 iteration each, validate, gate allocs against -out, write nothing
//	bench -stamp 2026-08-07T00:00:00Z  # pin the generated timestamp (diff-stable reruns)
//
// The -check form is the CI smoke mode: it exercises every benchmark
// body and the whole JSON emission path in seconds, failing loudly if
// either rots, without recording numbers from an unloaded shared
// runner as if they were a trustworthy baseline.  It also gates
// allocations: allocation counts, unlike timings, are a deterministic
// function of the code, so -check fails when a single-goroutine entry
// (see allocGated) allocates more than 2% above the allocs_per_op
// committed in the report at -out.  Timings stay advisory.
//
// A report records the git revision it was measured at when the binary
// carries one, which `go build` stamps inside a git checkout (`go run`
// does not):
//
//	go build -o bench ./cmd/bench && ./bench
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/perfbench"
)

// report is the schema of BENCH_qft.json.
type report struct {
	// Schema versions the file format; consumers should check it.
	Schema string `json:"schema"`
	// Go, OS and Arch identify the toolchain and platform the numbers
	// were measured on (benchmark numbers are only comparable within a
	// platform).
	Go   string `json:"go"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// Revision is the git revision of the measured code, with a
	// "+modified" suffix for a dirty tree, or empty when the binary
	// carries no VCS stamp.
	Revision string `json:"revision,omitempty"`
	// CPUs is the logical CPU count of the measuring machine — required
	// context for the Sweep and DistribSweep numbers, whose worker
	// goroutines only gain throughput where there are cores to run on.
	CPUs int `json:"cpus"`
	// Generated is the RFC 3339 wall-clock time of the run.
	Generated string `json:"generated"`
	// Benchtime is the per-benchmark measuring budget that produced
	// these numbers ("1s", "3x", ...).
	Benchtime string `json:"benchtime"`
	// Benchmarks holds one entry per benchmark, in a fixed order.
	Benchmarks []entry `json:"benchmarks"`
}

// entry is one benchmark's measurement.
type entry struct {
	// Name is the benchmark's go-test-style name, e.g.
	// "EngineCancel/pending=1024" or "QFT/layout=HomeBase/route=xy".
	Name string `json:"name"`
	// Iterations is the measured b.N.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocation counts and bytes
	// per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes allocated per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// EventsPerSec is the simulated-event throughput for full-run and
	// sweep benchmarks (0 for micro-benchmarks that don't report it).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// PointsPerSec is the merged run-point throughput of the
	// distributed-sweep benchmark (0 for benchmarks that don't report
	// it).
	PointsPerSec float64 `json:"points_per_sec,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH_qft.json", "output path for the JSON report")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring budget (go test -benchtime syntax: a duration or Nx)")
	check := flag.Bool("check", false, "smoke mode: one iteration per benchmark, validate the JSON, write nothing")
	stamp := flag.String("stamp", "", "override the generated timestamp (RFC 3339), so reruns produce diff-stable reports")
	// testing.Init registers the test.* flags testing.Benchmark reads
	// its benchtime from; it must run before flag.Parse.
	testing.Init()
	flag.Parse()

	if *check {
		*benchtime = "1x"
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintf(os.Stderr, "bench: bad -benchtime %q: %v\n", *benchtime, err)
		os.Exit(2)
	}

	generated := time.Now().UTC().Format(time.RFC3339)
	if *stamp != "" {
		ts, err := time.Parse(time.RFC3339, *stamp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: bad -stamp %q: %v\n", *stamp, err)
			os.Exit(2)
		}
		generated = ts.UTC().Format(time.RFC3339)
	}
	rep := report{
		Schema:    "qnet-bench-v1",
		Go:        runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		Revision:  revision(),
		CPUs:      runtime.NumCPU(),
		Generated: generated,
		Benchtime: *benchtime,
	}
	for _, b := range benchmarks() {
		fmt.Fprintf(os.Stderr, "bench: %s...\n", b.name)
		rep.Benchmarks = append(rep.Benchmarks, measure(b.name, b.fn))
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := validate(data); err != nil {
		fmt.Fprintln(os.Stderr, "bench: invalid report:", err)
		os.Exit(1)
	}
	if *check {
		gated, err := checkAllocs(rep.Benchmarks, *out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: allocation gate failed:", err)
			os.Exit(1)
		}
		fmt.Printf("bench: ok (%d benchmarks, JSON emitter valid, %d allocation counts within %.0f%% of %s, nothing written)\n",
			len(rep.Benchmarks), gated, 100*allocTolerance, *out)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	for _, e := range rep.Benchmarks {
		fmt.Printf("%-48s %12.0f ns/op %10d allocs/op", e.Name, e.NsPerOp, e.AllocsPerOp)
		if e.EventsPerSec > 0 {
			fmt.Printf(" %12.0f events/sec", e.EventsPerSec)
		}
		if e.PointsPerSec > 0 {
			fmt.Printf(" %12.1f points/sec", e.PointsPerSec)
		}
		fmt.Println()
	}
	fmt.Printf("bench: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))
}

// namedBench pairs a benchmark body with its report name.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// benchmarks enumerates the report's benchmark suite in fixed order:
// the engine micro-benchmarks, the cancellation regression sizes, the
// semaphore wait queue, the full-run layout x policy matrix, the
// tracer modes, the 8-worker sweep and the 2-worker distributed sweep.
func benchmarks() []namedBench {
	list := []namedBench{{name: "EngineSchedule", fn: perfbench.EngineSchedule}}
	for _, n := range perfbench.CancelPendingSizes {
		list = append(list, namedBench{
			name: fmt.Sprintf("EngineCancel/pending=%d", n),
			fn:   perfbench.EngineCancel(n),
		})
	}
	list = append(list, namedBench{
		name: fmt.Sprintf("SemaphoreQueue/waiters=%d", perfbench.SemaphoreQueueWaiters),
		fn:   perfbench.SemaphoreQueue(perfbench.SemaphoreQueueWaiters),
	})
	for _, cfg := range perfbench.FullRunConfigs() {
		list = append(list, namedBench{
			name: "QFT/" + cfg.Name,
			fn:   perfbench.QFTRun(cfg.Layout, cfg.Policy),
		})
	}
	for _, mode := range perfbench.TraceModes {
		list = append(list, namedBench{
			name: traceName(mode),
			fn:   perfbench.TraceQFT(mode),
		})
	}
	list = append(list, namedBench{name: "Sweep/workers=8", fn: perfbench.SweepWorkers(8)})
	list = append(list, namedBench{name: "DistribSweep/workers=2", fn: perfbench.DistributedSweep(2)})
	return list
}

// allocTolerance is the relative allocs/op headroom -check grants a
// gated entry over its committed count.
const allocTolerance = 0.02

// allocGated reports whether -check gates an entry's allocs/op: the
// benchmarks that run on one goroutine, whose allocation counts are a
// deterministic function of the code.  Sweep and DistribSweep run
// worker goroutines whose allocations depend on scheduling, so they
// are not gated.
func allocGated(name string) bool {
	for _, prefix := range []string{"Engine", "SemaphoreQueue/", "QFT/", "TraceQFT/"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// checkAllocs compares every gated measurement against the committed
// report at path, returning how many entries it checked.  A gated
// entry fails when it allocates more than allocTolerance above its
// committed allocs_per_op, or when the committed report lacks it.
func checkAllocs(measured []entry, path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("reading the committed report: %w", err)
	}
	var committed report
	if err := json.Unmarshal(data, &committed); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	base := make(map[string]int64, len(committed.Benchmarks))
	for _, e := range committed.Benchmarks {
		base[e.Name] = e.AllocsPerOp
	}
	var gated int
	var fails []string
	for _, e := range measured {
		if !allocGated(e.Name) {
			continue
		}
		gated++
		want, ok := base[e.Name]
		switch {
		case !ok:
			fails = append(fails, fmt.Sprintf("%s: no committed allocs_per_op in %s", e.Name, path))
		case float64(e.AllocsPerOp) > float64(want)*(1+allocTolerance):
			fails = append(fails, fmt.Sprintf("%s: %d allocs/op, committed %d", e.Name, e.AllocsPerOp, want))
		}
	}
	if len(fails) > 0 {
		return gated, errors.New(strings.Join(fails, "; "))
	}
	return gated, nil
}

// revision returns the git revision the binary was built from, or ""
// when the build carries no VCS stamp.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "+modified"
	}
	return rev
}

// traceName is the report name of one TraceQFT mode.
func traceName(mode string) string {
	return "TraceQFT/trace=" + mode
}

// measure runs one benchmark body through testing.Benchmark and
// flattens the result into a report entry.
func measure(name string, fn func(*testing.B)) entry {
	r := testing.Benchmark(fn)
	e := entry{
		Name:        name,
		Iterations:  r.N,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
	if r.N > 0 {
		e.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	e.EventsPerSec = r.Extra["events/sec"]
	e.PointsPerSec = r.Extra["points/sec"]
	return e
}

// validate round-trips the marshaled report and rejects entries a
// perf-trajectory consumer could not use, so a silent breakage of the
// emitter (or of a benchmark body) fails this command instead of
// producing a plausible-looking but useless BENCH file.
func validate(data []byte) error {
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return err
	}
	if rep.Schema != "qnet-bench-v1" {
		return fmt.Errorf("schema %q, want qnet-bench-v1", rep.Schema)
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmarks in report")
	}
	byName := make(map[string]entry, len(rep.Benchmarks))
	for _, e := range rep.Benchmarks {
		_, dup := byName[e.Name]
		switch {
		case e.Name == "":
			return fmt.Errorf("entry with empty name")
		case dup:
			return fmt.Errorf("duplicate benchmark %q", e.Name)
		case e.Iterations <= 0:
			return fmt.Errorf("%s: %d iterations", e.Name, e.Iterations)
		case e.NsPerOp <= 0:
			return fmt.Errorf("%s: ns/op = %g", e.Name, e.NsPerOp)
		case e.AllocsPerOp < 0:
			return fmt.Errorf("%s: allocs/op = %d", e.Name, e.AllocsPerOp)
		}
		byName[e.Name] = e
	}
	// The tracer-overhead trio must be complete with positive
	// throughput, or the report cannot answer "what does telemetry
	// cost" — the question those entries exist for.
	for _, mode := range perfbench.TraceModes {
		name := traceName(mode)
		e, ok := byName[name]
		if !ok {
			return fmt.Errorf("missing benchmark %q", name)
		}
		if e.EventsPerSec <= 0 {
			return fmt.Errorf("%s: events/sec = %g", name, e.EventsPerSec)
		}
	}
	return nil
}
