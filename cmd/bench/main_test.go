package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAllocGatedCoversSingleGoroutineEntries(t *testing.T) {
	for name, want := range map[string]bool{
		"EngineSchedule":                       true,
		"EngineCancel/pending=1024":            true,
		"SemaphoreQueue/waiters=49":            true,
		"QFT/layout=HomeBase/route=xy":         true,
		"TraceQFT/trace=on":                    true,
		"Sweep/workers=8":                      false,
		"DistribSweep/workers=2":               false,
		"QFTSomethingWithoutTheSlash/whatever": false,
	} {
		if got := allocGated(name); got != want {
			t.Errorf("allocGated(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestCheckAllocsAgainstCommittedReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_qft.json")
	committed := report{Schema: "qnet-bench-v1", Benchmarks: []entry{
		{Name: "EngineSchedule", AllocsPerOp: 0},
		{Name: "QFT/layout=HomeBase/route=xy", AllocsPerOp: 5000},
		{Name: "Sweep/workers=8", AllocsPerOp: 100},
	}}
	data, err := json.Marshal(committed)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Within 2% passes; the ungated sweep may allocate anything.
	gated, err := checkAllocs([]entry{
		{Name: "EngineSchedule", AllocsPerOp: 0},
		{Name: "QFT/layout=HomeBase/route=xy", AllocsPerOp: 5100},
		{Name: "Sweep/workers=8", AllocsPerOp: 100000},
	}, path)
	if err != nil || gated != 2 {
		t.Errorf("within tolerance: gated=%d err=%v, want 2 gated and no error", gated, err)
	}

	for _, tc := range []struct {
		name  string
		entry entry
		want  string
	}{
		{"over 2%", entry{Name: "QFT/layout=HomeBase/route=xy", AllocsPerOp: 5101}, "5101 allocs/op, committed 5000"},
		{"zero baseline", entry{Name: "EngineSchedule", AllocsPerOp: 1}, "1 allocs/op, committed 0"},
		{"missing baseline", entry{Name: "EngineCancel/pending=1024"}, "no committed allocs_per_op"},
	} {
		if _, err := checkAllocs([]entry{tc.entry}, path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to mention %q", tc.name, err, tc.want)
		}
	}

	if _, err := checkAllocs(nil, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("a missing committed report must fail the gate")
	}
}
