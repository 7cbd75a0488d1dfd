package isa

import (
	"strings"
	"testing"
)

// FuzzParse asserts that Parse never panics on any input, and that
// every program it accepts is valid and survives a Format/Parse round
// trip unchanged.  The corpus is the package-doc example plus its
// boundary cases; `go test -fuzz=FuzzParse ./internal/isa` explores
// beyond it.
func FuzzParse(f *testing.F) {
	f.Add(`# comments run to end of line
program shor-kernel        # optional name
qubits 16                  # required before any op
op 0 1                     # one two-logical-qubit operation
op 0 2
qft 8                      # macro: all-to-all over qubits 0..7
qft 8 8                    # macro with offset: qubits 8..15
mm 4                       # macro: bipartite 0..3 x 4..7
mm 4 8                     # macro with offset: 8..11 x 12..15
`)
	f.Add("qubits 4\nqft 4000\n")
	f.Add("qubits 8\nmm 4 1\n")
	f.Add("qubits 2\nqubits 3\n")
	f.Add("program a/b\nqubits 1\n")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("accepted program fails Validate: %v", err)
		}
		text := Format(prog)
		back, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("Format output does not reparse: %v\n%s", err, text)
		}
		if back.Qubits != prog.Qubits || len(back.Ops) != len(prog.Ops) {
			t.Fatalf("round trip changed shape: %d qubits/%d ops -> %d/%d",
				prog.Qubits, len(prog.Ops), back.Qubits, len(back.Ops))
		}
		for i := range prog.Ops {
			if back.Ops[i] != prog.Ops[i] {
				t.Fatalf("round trip changed op %d: %v -> %v", i, prog.Ops[i], back.Ops[i])
			}
		}
		if Format(back) != text {
			t.Fatal("Format is not a fixed point of the round trip")
		}
	})
}
