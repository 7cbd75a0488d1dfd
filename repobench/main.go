// Command repobench is the repository's end-to-end benchmark.  It
// drives one workload through the public entry points as a closed loop
// with one client (the next op starts when the previous one finishes),
// checks every op's output, and prints one JSON result as the last line
// of standard output.
//
// Usage (from the root of a checkout, through run.sh, which builds it):
//
//	repobench --workload paper-qft --seed 1 --seconds 30 --trace 0
//	repobench steady --workload distrib-resweep --seeds 1-10
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it reports the per-layer metrics of a separate traced run.  See
// README.md for the workloads, the metrics and what each one should
// move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// processStart approximates the process's start: package variables
// are initialised before main runs, after only the runtime's own start.
var processStart = time.Now()

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steadyMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record identifies the machine, toolchain, code and inputs a result
// was measured with.  It is printed on the line before the result.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	CPUs       int            `json:"cpus"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Revision   string         `json:"revision"`
	Extra      map[string]any `json:"extra,omitempty"`
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("repobench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 30, "length of the timed phase in seconds")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", ".bench_build", "directory for scratch stores, profiles and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "repobench: need --workload (%s), --seconds >= 1 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	// GOMAXPROCS follows the CPUs this process may run on; it is set
	// explicitly so the record states what the numbers were taken with.
	runtime.GOMAXPROCS(runtime.NumCPU())

	os.MkdirAll(*out, 0o755)
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)

	rec := record{
		Workload:   wl.name,
		Seed:       *seed,
		Seconds:    *seconds,
		Trace:      *traced,
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   revision(),
		Extra:      map[string]any{},
	}
	cfg := runConfig{wl: wl, seed: *seed, seconds: *seconds, scratch: scratch, out: *out, rec: &rec}
	var res result
	if *traced == 1 {
		res, err = tracedRun(cfg)
	} else {
		res, err = untracedRun(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench:", err)
		return 1
	}
	line, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", line)
	line, _ = json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// revision returns the git revision the binary was built from, when
// the build could see one.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
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
	switch {
	case rev == "":
		return "unknown (not built in a git checkout)"
	case dirty:
		return rev + "+modified"
	}
	return rev
}

// outPath names a file in the output directory for this run.
func outPath(cfg runConfig, kind, ext string) string {
	return filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d.%s.%s", cfg.wl.name, cfg.seed, kind, ext))
}
