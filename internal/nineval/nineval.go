// Package nineval implements the paper's two-frame nine-valued logic system
// (Section 5.1) and the forward/backward implication procedure ITR and ATPG
// build on.
//
// Each line carries a pair of three-valued frames (v1, v2) drawn from
// {0, 1, x}: 01 is a rising transition, 10 falling, 0x/x1/xx potential
// rising, and so on. From the pair, the transition state S of Section 5.1 is
// derived: 1 (the line definitely has the transition), 0 (potentially), or
// -1 (definitely not).
//
// Implication extends the classical three-valued gate implication to two
// time-frames by running each frame independently (the circuit is
// combinational within a frame). It runs on the circuit's dense net IDs:
// an Implication holds one value per net plus an undo trail, so a caller
// that adds a literal implies only around it and steps back with Undo.
// Cube, keyed by net name, is the edge form for requests, journals and
// snapshots; Imply converts it at the API.
package nineval

import (
	"fmt"
	"sort"
	"strings"

	"sstiming/internal/netlist"
)

// Frame is a three-valued logic value.
type Frame uint8

const (
	// F0 is logic 0.
	F0 Frame = iota
	// F1 is logic 1.
	F1
	// FX is unknown/unspecified.
	FX
)

// String returns "0", "1" or "x".
func (f Frame) String() string {
	switch f {
	case F0:
		return "0"
	case F1:
		return "1"
	default:
		return "x"
	}
}

// Value is one of the nine two-frame values.
type Value struct {
	V1, V2 Frame
}

// Convenience constructors for the nine values.
var (
	V00 = Value{F0, F0}
	V01 = Value{F0, F1} // rising transition
	V0X = Value{F0, FX}
	V10 = Value{F1, F0} // falling transition
	V11 = Value{F1, F1}
	V1X = Value{F1, FX}
	VX0 = Value{FX, F0}
	VX1 = Value{FX, F1}
	VXX = Value{FX, FX}
)

// String returns the compact form, e.g. "01" or "x1".
func (v Value) String() string { return v.V1.String() + v.V2.String() }

// State is the paper's transition state S: 1 definite, 0 potential,
// -1 impossible.
type State int8

const (
	// SNo marks a transition that definitely does not occur.
	SNo State = -1
	// SMaybe marks a potential transition.
	SMaybe State = 0
	// SYes marks a definite transition.
	SYes State = 1
)

// String renders the state.
func (s State) String() string {
	switch s {
	case SNo:
		return "-1"
	case SYes:
		return "1"
	default:
		return "0"
	}
}

// StateRise returns S for a rising transition on a line holding v.
func (v Value) StateRise() State { return stateOf(v, F0, F1) }

// StateFall returns S for a falling transition.
func (v Value) StateFall() State { return stateOf(v, F1, F0) }

// StateDir returns StateRise or StateFall by direction.
func (v Value) StateDir(rising bool) State {
	if rising {
		return v.StateRise()
	}
	return v.StateFall()
}

func stateOf(v Value, from, to Frame) State {
	ok1 := v.V1 == from || v.V1 == FX
	ok2 := v.V2 == to || v.V2 == FX
	if !ok1 || !ok2 {
		return SNo
	}
	if v.V1 == from && v.V2 == to {
		return SYes
	}
	return SMaybe
}

// Meet intersects two values frame-wise. ok is false on conflict
// (e.g. 0 meet 1).
func (v Value) Meet(w Value) (Value, bool) {
	m1, ok1 := meetFrame(v.V1, w.V1)
	m2, ok2 := meetFrame(v.V2, w.V2)
	return Value{m1, m2}, ok1 && ok2
}

func meetFrame(a, b Frame) (Frame, bool) {
	switch {
	case a == b:
		return a, true
	case a == FX:
		return b, true
	case b == FX:
		return a, true
	default:
		return FX, false
	}
}

// evalFrame computes the three-valued output of a gate for one frame.
func evalFrame(kind netlist.GateKind, ins []Frame) Frame {
	switch kind {
	case netlist.Inv:
		switch ins[0] {
		case F0:
			return F1
		case F1:
			return F0
		default:
			return FX
		}
	case netlist.Buf:
		return ins[0]
	case netlist.Nand:
		anyX := false
		for _, f := range ins {
			if f == F0 {
				return F1
			}
			if f == FX {
				anyX = true
			}
		}
		if anyX {
			return FX
		}
		return F0
	case netlist.Nor:
		anyX := false
		for _, f := range ins {
			if f == F1 {
				return F0
			}
			if f == FX {
				anyX = true
			}
		}
		if anyX {
			return FX
		}
		return F1
	default:
		panic("nineval: unknown gate kind")
	}
}

// Eval computes the nine-valued gate output from nine-valued inputs.
func Eval(kind netlist.GateKind, ins []Value) Value {
	f1 := make([]Frame, len(ins))
	f2 := make([]Frame, len(ins))
	for i, v := range ins {
		f1[i] = v.V1
		f2[i] = v.V2
	}
	return Value{evalFrame(kind, f1), evalFrame(kind, f2)}
}

// Cube is a partial two-frame assignment to lines. Absent lines are xx.
type Cube map[string]Value

// Get returns the value of a line, defaulting to xx.
func (c Cube) Get(net string) Value {
	if v, ok := c[net]; ok {
		return v
	}
	return VXX
}

// Clone copies the cube.
func (c Cube) Clone() Cube {
	out := make(Cube, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// String renders the cube deterministically (sorted by net), for debugging.
func (c Cube) String() string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%s", k, c[k])
	}
	return b.String()
}
