package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// steadyMain runs the benchmark once per seed, each in its own
// process, and prints every end-to-end metric's median and quartiles
// against its bound from BENCHMARK.json.  The spread is the distance
// between the quartiles as a share of the median; a metric is steady
// when its spread is below a third of its bound.  setup_s is reported
// but its spread is not judged.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("repobench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to repeat")
	seedList := fs.String("seeds", "1-10", "seeds, one run each: a range (1-10) or a list (3,5,8)")
	seconds := fs.Int("seconds", 0, "timed seconds per run (0: run_seconds from BENCHMARK.json)")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	out := fs.String("out", ".bench_build", "output directory passed to each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	seeds, err := parseSeeds(*seedList)
	if err != nil || workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "repobench steady: need --workload (%s) and --seeds: %v\n",
			strings.Join(workloadNames(), ", "), err)
		return 2
	}
	type bounded struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	}
	var def struct {
		RunSeconds int       `json:"run_seconds"`
		EndToEnd   []bounded `json:"end_to_end"`
	}
	if data, err := os.ReadFile(*bench); err == nil {
		json.Unmarshal(data, &def)
	}
	if *seconds == 0 {
		*seconds = max(def.RunSeconds, 1)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "repobench steady:", err)
		return 1
	}

	values := map[string][]float64{}
	units := map[string]string{}
	failed := 0
	for _, seed := range seeds {
		cmd := exec.Command(self, "--out", *out, "--workload", *name,
			"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		res, extra, perr := lastResult(stdout)
		if err != nil || perr != nil || !res.Correct || res.Failed > 0 {
			failed++
			fmt.Fprintf(os.Stderr, "seed %d: run failed (%v, %v)\n", seed, err, perr)
			continue
		}
		line := []string{fmt.Sprintf("seed %d: host_steal=%.1f%%", seed, 100*extra.Steal)}
		for _, k := range sortedKeys(res.Metrics) {
			m := res.Metrics[k]
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
			line = append(line, fmt.Sprintf("%s=%.6g", k, m.Value))
		}
		for k, v := range map[string]float64{"setup_wall_s": extra.SetupWall, "wall_s": extra.Wall, "points_per_s": extra.Points} {
			values[k] = append(values[k], v)
		}
		line = append(line, fmt.Sprintf("(record: setup_wall_s=%.6g wall_s=%.6g points_per_s=%.6g)",
			extra.SetupWall, extra.Wall, extra.Points))
		fmt.Println(strings.Join(line, " "))
	}

	w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
	fmt.Fprintf(w, "\n%s, %d runs of %d s (%d failed)\n", *name, len(seeds), *seconds, failed)
	fmt.Fprintln(w, "metric\tunit\tmedian\tq1\tq3\tspread\tbound\tverdict")
	// The record's wall-clock figures are shown without a bound.
	rows := append(def.EndToEnd, bounded{"setup_wall_s", 0}, bounded{"wall_s", 0}, bounded{"points_per_s", 0})
	units["setup_wall_s"], units["wall_s"], units["points_per_s"] = "s", "s", "1/s"
	for _, e := range rows {
		v := values[e.Name]
		if len(v) < 2 {
			fmt.Fprintf(w, "%s\t\t-\t-\t-\t-\t%.0f%%\tmissing\n", e.Name, 100*e.Bound)
			continue
		}
		med := median(v)
		q1, q3 := quartiles(v)
		spread := (q3 - q1) / med
		verdict := "steady"
		switch {
		case e.Bound == 0:
			verdict = "record only"
		case e.Name == "setup_s":
			verdict = "not judged"
		case spread >= e.Bound:
			verdict = "TOO NOISY"
		case spread >= e.Bound/3:
			verdict = "within bound, above a third"
		}
		fmt.Fprintf(w, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%s\n",
			e.Name, units[e.Name], med, q1, q3, 100*spread, 100*e.Bound, verdict)
	}
	w.Flush()
	if failed > 0 {
		return 1
	}
	return 0
}

// recordExtra is the part of a run's record line the report prints.
type recordExtra struct {
	Steal     float64 `json:"host_steal_share"`
	SetupWall float64 `json:"setup_wall_s"`
	Wall      float64 `json:"wall_s"`
	Points    float64 `json:"points_per_s"`
}

// lastResult parses the last line of a run's standard output, and the
// figures the report prints from its record line.
func lastResult(stdout []byte) (result, recordExtra, error) {
	var last string
	var rec struct {
		Extra recordExtra `json:"extra"`
	}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		s := strings.TrimSpace(sc.Text())
		if r, ok := strings.CutPrefix(s, "record "); ok {
			json.Unmarshal([]byte(r), &rec)
		}
		if s != "" {
			last = s
		}
	}
	var res result
	err := json.Unmarshal([]byte(last), &res)
	return res, rec.Extra, err
}

// parseSeeds reads "1-10" or "3,5,8".
func parseSeeds(s string) ([]int64, error) {
	if lo, hi, ok := strings.Cut(s, "-"); ok {
		a, err1 := strconv.ParseInt(lo, 10, 64)
		b, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || b < a {
			return nil, fmt.Errorf("bad seed range %q", s)
		}
		var out []int64
		for x := a; x <= b; x++ {
			out = append(out, x)
		}
		return out, nil
	}
	var out []int64
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad seed %q", f)
		}
		out = append(out, x)
	}
	return out, nil
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
