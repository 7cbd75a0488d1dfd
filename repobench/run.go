package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	wl      *workload
	seed    int64
	seconds int
	scratch string // per-run scratch directory, removed at exit
	out     string // output directory for profiles and span files
	rec     *record
}

// setups is how many set-ups an untraced run times; setup_s is their
// median.
const setups = 3

// workload is one set of inputs the benchmark drives.
type workload struct {
	name string
	// open builds a fresh instance of the workload from the seed.
	open func(cfg runConfig, t *tracer, parent int) (instance, error)
}

// instance is a workload that is set up and ready for ops.
type instance interface {
	// op runs one op, checks its output and returns the number of
	// simulation points it delivered; an error is a failed op.
	op(t *tracer, parent int) (points int, err error)
	// layers describes the last op for the per-layer metrics.
	layers() (layerInfo, error)
	// close releases the instance's servers and stores.
	close()
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// setUp builds a fresh instance and runs its untimed warm-up op.  It
// returns the wall time from since to the end of the warm-up.
func setUp(cfg runConfig, t *tracer, since time.Time) (instance, time.Duration, error) {
	id := t.begin("setup", 0)
	defer t.end(id)
	inst, err := cfg.wl.open(cfg, t, id)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	wid := t.begin("warmup", id)
	_, err = inst.op(t, wid)
	t.end(wid)
	if err != nil {
		inst.close()
		return nil, 0, fmt.Errorf("warm-up op: %w", err)
	}
	return inst, time.Since(since), nil
}

// settle collects garbage and returns freed memory to the OS, so a
// timed phase starts from the same heap state every run.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// phase is one timed closed-loop phase.
type phase struct {
	walls     []float64 // per-op wall seconds
	wall      float64   // sum of op walls, seconds
	cpu       float64   // process user+sys seconds over the phase
	points    int
	attempted int
	failed    int
	maxRSS    int64   // bytes
	steal     float64 // share of the machine's CPU time stolen by the hypervisor
}

// timedPhase runs ops back to back until the phase has lasted d.
func timedPhase(inst instance, d time.Duration, t *tracer) phase {
	var ph phase
	rss := startRSSSampler()
	cpu0 := cpuTime()
	steal0, total0 := hostTicks()
	start := time.Now()
	for ph.attempted == 0 || time.Since(start) < d {
		id := t.begin("op", 0)
		t0 := time.Now()
		points, err := inst.op(t, id)
		dt := time.Since(t0).Seconds()
		t.end(id)
		ph.attempted++
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "repobench: op %d failed: %v\n", ph.attempted, err)
			continue
		}
		ph.walls = append(ph.walls, dt)
		ph.wall += dt
		ph.points += points
	}
	ph.cpu = cpuTime() - cpu0
	ph.maxRSS = rss()
	if steal1, total1 := hostTicks(); total1 > total0 {
		ph.steal = float64(steal1-steal0) / float64(total1-total0)
	}
	return ph
}

// hostTicks returns the machine's steal and total CPU ticks from the
// first line of /proc/stat (zeros where it is unreadable).  Steal is
// time the hypervisor ran something else on this machine's CPUs; the
// run record carries its share so a slow run on a busy host shows as
// one.
func hostTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// untracedRun sets the workload up several times, then times ops for
// the configured seconds with no tracing, and reports the end-to-end
// metrics.
func untracedRun(cfg runConfig) (result, error) {
	var (
		inst       instance
		cpuSamples []float64 // process CPU seconds per set-up
		wallSample []float64
	)
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
			settle()
		}
		since, cpu0 := time.Now(), cpuTime()
		if i == 0 {
			since, cpu0 = processStart, 0
		}
		var (
			d   time.Duration
			err error
		)
		if inst, d, err = setUp(cfg, nil, since); err != nil {
			return result{}, err
		}
		cpuSamples = append(cpuSamples, cpuTime()-cpu0)
		wallSample = append(wallSample, d.Seconds())
	}
	defer inst.close()
	settle()

	ph := timedPhase(inst, time.Duration(cfg.seconds)*time.Second, nil)
	if len(ph.walls) == 0 {
		return result{}, fmt.Errorf("every op failed")
	}
	cfg.rec.Extra["setup_cpu_samples_s"] = cpuSamples
	cfg.rec.Extra["setup_wall_samples_s"] = wallSample
	cfg.rec.Extra["setup_wall_s"] = median(wallSample)
	cfg.rec.Extra["ops"] = len(ph.walls)
	cfg.rec.Extra["op_latency"] = latencySummary(ph.walls)
	cfg.rec.Extra["host_steal_share"] = ph.steal
	// Wall-clock times go on the record, not into the gated metrics: on
	// a shared host they follow the hypervisor's steal (see README.md).
	cfg.rec.Extra["wall_s"] = median(ph.walls)
	cfg.rec.Extra["points_per_s"] = float64(ph.points) / ph.wall

	return result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":    {median(cpuSamples), "s"},
			"cpu_s":      {ph.cpu / float64(len(ph.walls)), "s"},
			"max_rss_mb": {float64(ph.maxRSS) / (1 << 20), "MB"},
		},
	}, nil
}

// latencySummary reports an op-latency median, and the 90th
// percentile when at least ten samples lie beyond it.
func latencySummary(walls []float64) map[string]any {
	s := map[string]any{"n": len(walls), "p50_ms": 1000 * median(walls)}
	if len(walls) >= 100 {
		s["p90_ms"] = 1000 * percentile(walls, 0.9)
	}
	return s
}

// cpuTime returns the process's user+sys CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

func tv(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }

// startRSSSampler samples the process's resident set every 10 ms until
// the returned function is called, which returns the largest sample.
// Where /proc is not readable it falls back to the process's peak
// resident set from getrusage.
func startRSSSampler() func() int64 {
	var (
		mu   sync.Mutex
		peak int64
		done = make(chan struct{})
		wg   sync.WaitGroup
	)
	sample := func() {
		if v := residentBytes(); v > 0 {
			mu.Lock()
			peak = max(peak, v)
			mu.Unlock()
		}
	}
	sample()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	return func() int64 {
		close(done)
		wg.Wait()
		sample()
		if peak == 0 {
			var ru syscall.Rusage
			syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
			peak = ru.Maxrss << 10
		}
		return peak
	}
}

// residentBytes reads the current resident set from /proc/self/statm.
func residentBytes() int64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// median returns the middle of the values (the mean of the middle two
// for an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile of the values by linear
// interpolation between closest ranks.
func percentile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so the steadiness report matches how the spread is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}
