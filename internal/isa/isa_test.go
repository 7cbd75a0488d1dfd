package isa

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestParseBasicProgram(t *testing.T) {
	src := `
# a tiny kernel
program demo
qubits 4
op 0 1
op 2 3   # trailing comment
op 0 3
`
	prog, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Name != "demo" || prog.Qubits != 4 {
		t.Errorf("header parsed wrong: %q %d", prog.Name, prog.Qubits)
	}
	want := []workload.Op{{A: 0, B: 1}, {A: 2, B: 3}, {A: 0, B: 3}}
	if len(prog.Ops) != len(want) {
		t.Fatalf("ops = %v, want %v", prog.Ops, want)
	}
	for i := range want {
		if prog.Ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", prog.Ops, want)
		}
	}
}

func TestParseMacros(t *testing.T) {
	src := `
qubits 16
qft 8
mm 4 8
`
	prog, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	wantOps := len(workload.QFT(8).Ops) + len(workload.ModMult(4).Ops)
	if len(prog.Ops) != wantOps {
		t.Errorf("ops = %d, want %d", len(prog.Ops), wantOps)
	}
	// The mm macro with offset 8 must land on qubits 8..15.
	for _, op := range prog.Ops[len(workload.QFT(8).Ops):] {
		if op.A < 8 || op.B < 8 {
			t.Errorf("offset mm op %v touches qubits below 8", op)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"missing qubits":    "op 0 1\n",
		"no declaration":    "# nothing\n",
		"bad directive":     "qubits 4\nfrobnicate 1\n",
		"op arity":          "qubits 4\nop 1\n",
		"non-integer":       "qubits 4\nop a b\n",
		"self op":           "qubits 4\nop 2 2\n",
		"out of range":      "qubits 4\nop 0 9\n",
		"zero qubits":       "qubits 0\n",
		"qft before qubits": "qft 4\n",
		"negative offset":   "qubits 8\nqft 4 -1\n",
		"macro size":        "qubits 8\nmm 0\n",
		"program arity":     "program a b\nqubits 2\nop 0 1\n",
		"qubits arity":      "qubits 4 5\n",
		"second qubits":     "qubits 4\nqubits 8\nop 0 7\n",
		"qft past qubits":   "qubits 4\nqft 4000\n",
		"mm past qubits":    "qubits 8\nmm 3 3\n",
		"offset past end":   "qubits 8\nqft 2 9\n",
		"op budget":         "qubits 2000\nqft 1500\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected parse error for %q", name, src)
		}
	}
}

// TestParseBoundsMacroBeforeExpanding pins that an oversized macro is
// rejected from its arguments alone, with its line number: neither a
// range past the declared qubits nor an expansion past MaxOps builds
// its ops first.  Expanded, each of these would allocate tens of
// megabytes.
func TestParseBoundsMacroBeforeExpanding(t *testing.T) {
	for _, src := range []string{"qubits 4\nqft 1000", "qubits 2000\nqft 1500"} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Parse(strings.NewReader(src))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("Parse(%q) = %v, want an error naming line 2", src, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("Parse(%q) allocated %d bytes, want the macro rejected before expanding", src, grew)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	orig := workload.QFT(6)
	parsed, err := Parse(strings.NewReader(Format(orig)))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Qubits != orig.Qubits || len(parsed.Ops) != len(orig.Ops) {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			parsed.Qubits, len(parsed.Ops), orig.Qubits, len(orig.Ops))
	}
	for i := range orig.Ops {
		if parsed.Ops[i] != orig.Ops[i] {
			t.Fatalf("round trip changed op %d: %v vs %v", i, parsed.Ops[i], orig.Ops[i])
		}
	}
}

func TestFormatSanitizesName(t *testing.T) {
	prog := workload.Program{Name: "has spaces/slashes", Qubits: 2, Ops: []workload.Op{{A: 0, B: 1}}}
	out := Format(prog)
	if !strings.Contains(out, "program has-spaces-slashes\n") {
		t.Errorf("name not sanitized: %q", out)
	}
	prog.Name = ""
	if !strings.Contains(Format(prog), "program program\n") {
		t.Error("empty name should default")
	}
}

// Property: Format/Parse round-trips every generated workload.
func TestRoundTripProperty(t *testing.T) {
	f := func(nRaw, kind uint8) bool {
		n := int(nRaw)%10 + 2
		var prog workload.Program
		switch kind % 3 {
		case 0:
			prog = workload.QFT(n)
		case 1:
			prog = workload.ModMult(n)
		default:
			prog = workload.ModExp(n, 1)
		}
		parsed, err := Parse(strings.NewReader(Format(prog)))
		if err != nil {
			return false
		}
		if parsed.Qubits != prog.Qubits || len(parsed.Ops) != len(prog.Ops) {
			return false
		}
		for i := range prog.Ops {
			if parsed.Ops[i] != prog.Ops[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
