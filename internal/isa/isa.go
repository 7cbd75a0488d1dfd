// Package isa defines the textual instruction-stream format the
// simulator's classical control unit consumes (the "stream of
// instructions" of Figure 1) and its parser.  The format is line
// oriented:
//
//	# comments run to end of line
//	program shor-kernel        # optional name
//	qubits 16                  # required before any op
//	op 0 1                     # one two-logical-qubit operation
//	op 0 2
//	qft 8                      # macro: all-to-all over qubits 0..7
//	qft 8 8                    # macro with offset: qubits 8..15
//	mm 4                       # macro: bipartite 0..3 x 4..7
//	mm 4 8                     # macro with offset: 8..11 x 12..15
//
// Macros expand to the corresponding workload generators, so a hand
// written kernel can mix explicit ops with standard patterns.  A macro
// must fit inside the declared qubits (offset+n for qft, offset+2n for
// mm), and a program may hold at most MaxOps ops; both are checked
// before a macro expands, so a short line cannot make Parse build an
// outsized program.
package isa

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// MaxOps is the most ops a parsed program may hold, explicit and
// macro-expanded together.  It is far above any workload the simulator
// runs in reasonable time (the paper's QFT-256 is 32,640 ops) and keeps
// a parsed program's op list at a few tens of megabytes.
const MaxOps = 1 << 20

// Parse reads an instruction stream.
func Parse(r io.Reader) (workload.Program, error) {
	var prog workload.Program
	prog.Name = "program"
	qubitsLine := 0 // line of the qubits declaration, 0 before it

	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "program":
			if len(fields) != 2 {
				return prog, fmt.Errorf("isa: line %d: program takes one name", lineNo)
			}
			prog.Name = fields[1]
		case "qubits":
			n, err := argInt(fields, 1, lineNo)
			if err != nil {
				return prog, err
			}
			if len(fields) != 2 {
				return prog, fmt.Errorf("isa: line %d: qubits takes one count", lineNo)
			}
			if n < 1 {
				return prog, fmt.Errorf("isa: line %d: qubit count must be >= 1, got %d", lineNo, n)
			}
			if qubitsLine > 0 {
				return prog, fmt.Errorf("isa: line %d: qubits already declared on line %d", lineNo, qubitsLine)
			}
			prog.Qubits = n
			qubitsLine = lineNo
		case "op":
			if qubitsLine == 0 {
				return prog, fmt.Errorf("isa: line %d: op before qubits declaration", lineNo)
			}
			if len(fields) != 3 {
				return prog, fmt.Errorf("isa: line %d: op takes two qubit labels", lineNo)
			}
			a, err := argInt(fields, 1, lineNo)
			if err != nil {
				return prog, err
			}
			b, err := argInt(fields, 2, lineNo)
			if err != nil {
				return prog, err
			}
			if len(prog.Ops) >= MaxOps {
				return prog, fmt.Errorf("isa: line %d: program exceeds %d ops", lineNo, MaxOps)
			}
			prog.Ops = append(prog.Ops, workload.Op{A: a, B: b})
		case "qft":
			if err := expandMacro(&prog, fields, lineNo, qubitsLine > 0, macroQFT); err != nil {
				return prog, err
			}
		case "mm":
			if err := expandMacro(&prog, fields, lineNo, qubitsLine > 0, macroMM); err != nil {
				return prog, err
			}
		default:
			return prog, fmt.Errorf("isa: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return prog, fmt.Errorf("isa: %w", err)
	}
	if qubitsLine == 0 {
		return prog, fmt.Errorf("isa: missing qubits declaration")
	}
	if err := prog.Validate(); err != nil {
		return prog, fmt.Errorf("isa: %w", err)
	}
	return prog, nil
}

// macro is a standard pattern a size argument n expands to.
type macro struct {
	span   int                 // qubits per unit of n: qft touches n, mm 2n
	ops    func(n int64) int64 // ops the expansion emits
	expand func(n int) workload.Program
}

var (
	macroQFT = macro{span: 1, ops: func(n int64) int64 { return n * (n - 1) / 2 }, expand: workload.QFT}
	macroMM  = macro{span: 2, ops: func(n int64) int64 { return n * n }, expand: workload.ModMult}
)

// maxMacroSize bounds n before the op count is computed: either macro
// of this size already exceeds MaxOps, and the product cannot overflow.
const maxMacroSize = 1 << 21

func expandMacro(prog *workload.Program, fields []string, lineNo int, sawQubits bool, m macro) error {
	if !sawQubits {
		return fmt.Errorf("isa: line %d: %s before qubits declaration", lineNo, fields[0])
	}
	if len(fields) != 2 && len(fields) != 3 {
		return fmt.Errorf("isa: line %d: %s takes a size and optional offset", lineNo, fields[0])
	}
	n, err := argInt(fields, 1, lineNo)
	if err != nil {
		return err
	}
	if n < 1 {
		return fmt.Errorf("isa: line %d: %s size must be >= 1, got %d", lineNo, fields[0], n)
	}
	offset := 0
	if len(fields) == 3 {
		offset, err = argInt(fields, 2, lineNo)
		if err != nil {
			return err
		}
		if offset < 0 {
			return fmt.Errorf("isa: line %d: offset must be >= 0, got %d", lineNo, offset)
		}
	}
	// offset+span*n <= Qubits, written so that neither side overflows.
	if n > (prog.Qubits-offset)/m.span {
		return fmt.Errorf("isa: line %d: %s %d at offset %d runs past the %d declared qubits",
			lineNo, fields[0], n, offset, prog.Qubits)
	}
	if n > maxMacroSize || m.ops(int64(n)) > int64(MaxOps-len(prog.Ops)) {
		return fmt.Errorf("isa: line %d: %s %d would grow the program past %d ops", lineNo, fields[0], n, MaxOps)
	}
	for _, op := range m.expand(n).Ops {
		prog.Ops = append(prog.Ops, workload.Op{A: op.A + offset, B: op.B + offset})
	}
	return nil
}

func argInt(fields []string, i, lineNo int) (int, error) {
	if i >= len(fields) {
		return 0, fmt.Errorf("isa: line %d: missing argument", lineNo)
	}
	v, err := strconv.Atoi(fields[i])
	if err != nil {
		return 0, fmt.Errorf("isa: line %d: %q is not an integer", lineNo, fields[i])
	}
	return v, nil
}

// Format renders a program back into the textual format (explicit ops;
// macros are not reconstructed).
func Format(prog workload.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", sanitizeName(prog.Name))
	fmt.Fprintf(&b, "qubits %d\n", prog.Qubits)
	for _, op := range prog.Ops {
		fmt.Fprintf(&b, "op %d %d\n", op.A, op.B)
	}
	return b.String()
}

func sanitizeName(name string) string {
	if name == "" {
		return "program"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, name)
}
