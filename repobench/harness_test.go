package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"
)

// The steadiness report must judge spreads the way Python's
// statistics.quantiles(values, n=4) computes them.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.in)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Engine).Step":              "repro/internal/sim",
		"repro/internal/netsim.(*batchFlight).hop.func1": "repro/internal/netsim",
		"runtime.mallocgc":                               "runtime",
		"net/http.(*conn).serve":                         "net/http",
		"crypto/internal/fips140/sha256.blockAVX2":       "crypto/internal/fips140/sha256",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (n int) {
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

// A real CPU profile folds into shares that sum to at most one and
// include every reported group.
func TestCPUSharesFromProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	leaf, err := leafCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(leaf) == 0 {
		t.Fatal("no samples decoded")
	}
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, g := range cpuShareGroups {
		v, ok := shares[g.metric]
		if !ok {
			t.Errorf("%s missing", g.metric)
		}
		sum += v
	}
	if sum > 1+1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}
