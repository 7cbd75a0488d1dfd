// Package classical models the classical control network that accompanies
// the quantum datapath (Sections 3.2 and 6): the per-qubit ID packets
// that travel alongside EPR qubits, the cumulative Pauli-frame correction
// information accumulated over chained teleportations, and the latency
// and bandwidth accounting for classical messages.
//
// Every teleportation produces two classical bits that select one of four
// Pauli corrections; over a chain of teleportations these corrections
// compose in the Pauli group and can be applied in aggregate at the
// endpoint (Figure 5), which is what lets T' nodes forward qubits without
// correction hardware.
package classical

import (
	"fmt"
	"time"

	"repro/internal/mesh"
	"repro/internal/phys"
)

// Pauli is a single-qubit Pauli correction, encoded by the two classical
// bits a teleportation measurement produces.
type Pauli struct {
	// X reports whether a bit-flip correction is pending.
	X bool
	// Z reports whether a phase-flip correction is pending.
	Z bool
}

// PauliI, PauliX, PauliZ and PauliY are the four correction operators.
var (
	PauliI = Pauli{}
	PauliX = Pauli{X: true}
	PauliZ = Pauli{Z: true}
	PauliY = Pauli{X: true, Z: true}
)

// Compose returns the net correction of applying q after p.  Pauli
// composition (up to global phase) is bitwise XOR.
func (p Pauli) Compose(q Pauli) Pauli {
	return Pauli{X: p.X != q.X, Z: p.Z != q.Z}
}

// Identity reports whether no correction is pending.
func (p Pauli) Identity() bool { return !p.X && !p.Z }

// Bits returns the two classical bits (x, z) of the correction.
func (p Pauli) Bits() (byte, byte) {
	var x, z byte
	if p.X {
		x = 1
	}
	if p.Z {
		z = 1
	}
	return x, z
}

// String renders I, X, Z or Y.
func (p Pauli) String() string {
	switch p {
	case PauliI:
		return "I"
	case PauliX:
		return "X"
	case PauliZ:
		return "Z"
	default:
		return "Y"
	}
}

// Frame is a cumulative Pauli correction frame carried in a qubit's ID
// packet.  Each teleportation hop folds its two classical bits into the
// frame; the endpoint C node applies the aggregate.
type Frame struct {
	correction Pauli
	hops       int
}

// Absorb folds one teleportation's correction into the frame.
func (f *Frame) Absorb(p Pauli) {
	f.correction = f.correction.Compose(p)
	f.hops++
}

// Correction returns the pending aggregate correction.
func (f *Frame) Correction() Pauli { return f.correction }

// Hops returns the number of teleportations absorbed.
func (f *Frame) Hops() int { return f.hops }

// CorrectionOps returns the number of single-qubit gates the endpoint
// corrector must apply: 0 for I, 1 for X or Z, 2 for Y.
func (f *Frame) CorrectionOps() int {
	n := 0
	if f.correction.X {
		n++
	}
	if f.correction.Z {
		n++
	}
	return n
}

// PacketID uniquely names an EPR pair qubit within the machine: the
// generating G node assigns it.
type PacketID struct {
	// Gen is the generating G node's link.
	Gen mesh.Link
	// Seq is the generator's sequence number for the pair.
	Seq uint64
}

// Packet is the classical message that travels alongside an EPR qubit in
// the parallel classical network (Section 3.2): identity, where this
// qubit is headed, where its entangled partner is headed (needed for the
// endpoint purification pairing), and the cumulative correction frame.
type Packet struct {
	ID          PacketID
	Dest        mesh.Coord
	PartnerDest mesh.Coord
	Frame       Frame
}

// String renders a compact packet description.
func (p Packet) String() string {
	return fmt.Sprintf("pair %v#%d -> %v (partner %v, frame %v after %d hops)",
		p.ID.Gen.From, p.ID.Seq, p.Dest, p.PartnerDest, p.Frame.Correction(), p.Frame.Hops())
}

// Network models the classical control network's latency and aggregate
// bandwidth demand.  The paper requires "adequate bandwidth for one
// in-flight message for each physical qubit in the system as well as the
// classical bits for each teleportation and purification operation".
type Network struct {
	params   phys.Params
	hopCells int

	messages     uint64
	bits         uint64
	teleportMsgs uint64
	purifyMsgs   uint64
}

// NewNetwork builds a classical network model with the given hop span in
// cells (the physical distance between adjacent T' nodes).
func NewNetwork(p phys.Params, hopCells int) (*Network, error) {
	if hopCells < 1 {
		return nil, fmt.Errorf("classical: hopCells must be >= 1, got %d", hopCells)
	}
	return &Network{params: p, hopCells: hopCells}, nil
}

// Latency returns the classical transmission time across the given
// number of mesh hops.
func (n *Network) Latency(hops int) time.Duration {
	if hops < 0 {
		hops = 0
	}
	return time.Duration(hops*n.hopCells) * n.params.Times.ClassicalBitPerCell
}

// RecordTeleports accounts for count teleportations, each sending two
// classical bits plus an ID packet update between adjacent nodes.
func (n *Network) RecordTeleports(count int) {
	n.messages += uint64(count)
	n.teleportMsgs += uint64(count)
	n.bits += 2 * uint64(count)
}

// RecordPurifies accounts for count purifications, in each of which
// both endpoints exchange one classical bit (two bits on the network).
func (n *Network) RecordPurifies(count int) {
	n.messages += uint64(count)
	n.purifyMsgs += uint64(count)
	n.bits += 2 * uint64(count)
}

// Stats returns cumulative counters: total messages, total payload bits,
// and the per-operation breakdown.
func (n *Network) Stats() (messages, bits, teleports, purifies uint64) {
	return n.messages, n.bits, n.teleportMsgs, n.purifyMsgs
}
