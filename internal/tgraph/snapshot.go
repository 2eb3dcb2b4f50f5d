package tgraph

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"sstiming/internal/jsonread"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/twindow"
)

// A snapshot is the full converged state of a Graph, checkpointed so that a
// restart can rebuild the graph without replaying its edit history or
// re-converging a single gate. Windows are serialized as the raw IEEE-754
// bit patterns of their float64s (uint64s round-trip exactly through JSON,
// float text does not have to), so a restored graph is byte-identical to
// the one that was encoded — the invariant the session-recovery chaos suite
// asserts. Values and transition states are NOT stored: both are pure
// functions of the implied cube (twindow.PILine / PropagateGate derive them
// the same way), so they are re-derived on restore and cannot drift.
//
// The netlist is stored as .bench text written by netlist.Circuit.Write —
// it reflects in-place gate swaps (SwapGate mutates the circuit), and
// parsing it back reproduces gates in declaration order, which levelization
// and window convergence are deterministic over.
//
// The encoding is json.Marshal of snapshotJSON, and RestoreSnapshot reads
// exactly that form in one pass (internal/jsonread), so snapshotJSON's field
// order is part of the format: the header fields come first, so the graph
// skeleton exists before the first line entry arrives, and lines come last,
// so each entry goes straight into its net's slot. Reordering, renaming or
// retyping a field changes the format.

// ErrBadSnapshot reports a snapshot that cannot be decoded or fails
// validation against the circuit it claims to describe.
var ErrBadSnapshot = errors.New("tgraph: bad snapshot")

const snapshotVersion = 1

type snapshotWindow struct {
	AS, AL, TS, TL uint64 // math.Float64bits
}

type snapshotLine struct {
	Rise snapshotWindow `json:"r"`
	Fall snapshotWindow `json:"f"`
}

type snapshotPI struct {
	ArrivalEarly uint64 `json:"ae"`
	ArrivalLate  uint64 `json:"al"`
	TransShort   uint64 `json:"ts"`
	TransLong    uint64 `json:"tl"`
}

type snapshotJSON struct {
	Version     int                     `json:"version"`
	Name        string                  `json:"name"`
	Netlist     string                  `json:"netlist"`
	Mode        string                  `json:"mode"`
	NCExtension bool                    `json:"nc_extension"`
	PI          snapshotPI              `json:"pi"`
	PerPI       map[string]snapshotPI   `json:"per_pi,omitempty"`
	RawCube     map[string]string       `json:"raw_cube,omitempty"`
	Lines       map[string]snapshotLine `json:"lines"`
}

func encodeWindow(w twindow.Window) snapshotWindow {
	return snapshotWindow{
		AS: math.Float64bits(w.AS), AL: math.Float64bits(w.AL),
		TS: math.Float64bits(w.TS), TL: math.Float64bits(w.TL),
	}
}

func encodePI(p twindow.PITiming) snapshotPI {
	return snapshotPI{
		ArrivalEarly: math.Float64bits(p.ArrivalEarly),
		ArrivalLate:  math.Float64bits(p.ArrivalLate),
		TransShort:   math.Float64bits(p.TransShort),
		TransLong:    math.Float64bits(p.TransLong),
	}
}

// parseValue decodes the two-character form nineval.Value.String emits
// ("01", "x1", ...).
func parseValue(s []byte) (nineval.Value, error) {
	if len(s) != 2 {
		return nineval.Value{}, fmt.Errorf("value %q is not two frames of [01x]", s)
	}
	frame := func(ch byte) (nineval.Frame, error) {
		switch ch {
		case '0':
			return nineval.F0, nil
		case '1':
			return nineval.F1, nil
		case 'x', 'X':
			return nineval.FX, nil
		}
		return 0, fmt.Errorf("value %q is not two frames of [01x]", s)
	}
	v1, err := frame(s[0])
	if err != nil {
		return nineval.Value{}, err
	}
	v2, err := frame(s[1])
	if err != nil {
		return nineval.Value{}, err
	}
	return nineval.Value{V1: v1, V2: v2}, nil
}

// EncodeSnapshot serializes the graph's full converged state. A poisoned
// graph cannot be snapshotted (its windows are suspect); callers heal first.
func (g *Graph) EncodeSnapshot() ([]byte, error) {
	if g.poisoned {
		return nil, fmt.Errorf("tgraph: cannot snapshot a poisoned graph")
	}
	var nb bytes.Buffer
	if err := g.c.Write(&nb); err != nil {
		return nil, fmt.Errorf("tgraph: encoding snapshot netlist: %w", err)
	}
	s := snapshotJSON{
		Version:     snapshotVersion,
		Name:        g.c.Name,
		Netlist:     nb.String(),
		Mode:        g.opts.Mode.String(),
		NCExtension: g.opts.NCExtension,
		PI:          encodePI(g.opts.PI),
		Lines:       make(map[string]snapshotLine, len(g.lines)),
	}
	for id, on := range g.perPI {
		if on {
			if s.PerPI == nil {
				s.PerPI = make(map[string]snapshotPI)
			}
			s.PerPI[g.c.PIs[id]] = encodePI(g.piTiming[id])
		}
	}
	if len(g.raw) > 0 {
		s.RawCube = make(map[string]string, len(g.raw))
		for net, v := range g.raw {
			s.RawCube[net] = v.String()
		}
	}
	for id, li := range g.lines {
		s.Lines[g.c.NetName(id)] = snapshotLine{Rise: encodeWindow(li.Rise), Fall: encodeWindow(li.Fall)}
	}
	return json.Marshal(s)
}

// RestoreSnapshot rebuilds a Graph from EncodeSnapshot output without
// replaying edits or re-converging: the skeleton is rebuilt from the
// embedded netlist, the raw cube is re-implied, and every line's windows
// are installed verbatim (values and states re-derived from the implied
// cube). The restored graph is byte-identical to the encoded one.
//
// The snapshot is read in one pass, in the order EncodeSnapshot's
// json.Marshal writes it (internal/jsonread): the header fields, then the
// per-PI stimuli and the raw cube, then each line entry straight into its
// net's slot. Input in any other form, even JSON that encoding/json would
// accept, is refused.
//
// opts supplies the environment the snapshot cannot carry — the library,
// metrics sink and context. Mode and NCExtension in opts must match the
// snapshot (an operator pointing a differently-configured
// daemon at old state should hear about it, not silently serve windows
// computed under another model); PI stimuli come from the snapshot and
// override opts. All failures are typed ErrBadSnapshot; malformed input
// never panics.
func RestoreSnapshot(data []byte, opts Options) (*Graph, error) {
	r := jsonread.New(data)
	r.Expect(`{"version":`)
	version := r.Int()
	r.Expect(`,"name":`)
	name := string(r.Text())
	r.Expect(`,"netlist":`)
	text := r.Text()
	r.Expect(`,"mode":`)
	mode := r.Text()
	r.Expect(`,"nc_extension":`)
	nc := r.Bool()
	r.Expect(`,"pi":`)
	pi := readPI(&r)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrBadSnapshot, version, snapshotVersion)
	}
	if got, want := string(mode), opts.Mode.String(); got != want {
		return nil, fmt.Errorf("%w: snapshot mode %q, graph options want %q", ErrBadSnapshot, got, want)
	}
	if nc != opts.NCExtension {
		return nil, fmt.Errorf("%w: snapshot nc_extension=%v, graph options want %v", ErrBadSnapshot, nc, opts.NCExtension)
	}
	// The .bench text carries no circuit name, so the snapshot stores it
	// separately — a restored session must answer with the name it was
	// created under, not a placeholder.
	if name == "" {
		name = "snapshot"
	}
	c, err := netlist.Parse(name, bytes.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("%w: embedded netlist: %v", ErrBadSnapshot, err)
	}
	opts.PI = pi
	opts.PerPI = nil
	g, err := newSkeleton(c, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if r.Accept(`,"per_pi":{`) {
		for n := 0; r.More(n); n++ {
			net := r.Key()
			p := readPI(&r)
			if r.Err() != nil {
				break
			}
			id, ok := c.NetID(string(net))
			if !ok || id >= len(c.PIs) {
				return nil, fmt.Errorf("%w: per-PI stimulus for %q, which is not a primary input", ErrBadSnapshot, net)
			}
			if g.perPI[id] {
				return nil, fmt.Errorf("%w: duplicate per-PI stimulus for %q", ErrBadSnapshot, net)
			}
			g.piTiming[id], g.perPI[id] = p, true
		}
	}
	raw := nineval.Cube{}
	if r.Accept(`,"raw_cube":{`) {
		for n := 0; r.More(n); n++ {
			net := string(r.Key())
			vs := r.Text()
			if r.Err() != nil {
				break
			}
			v, err := parseValue(vs)
			if err != nil {
				return nil, fmt.Errorf("%w: raw cube net %q: %v", ErrBadSnapshot, net, err)
			}
			if _, dup := raw[net]; dup {
				return nil, fmt.Errorf("%w: duplicate raw cube net %q", ErrBadSnapshot, net)
			}
			raw[net] = v
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := g.checkNets(raw); err != nil {
		return nil, fmt.Errorf("%w: raw cube: %v", ErrBadSnapshot, err)
	}
	g.imp = nineval.NewImplication(c)
	if !g.assignRaw(raw, nil) {
		return nil, fmt.Errorf("%w: raw cube is inconsistent with the netlist", ErrBadSnapshot)
	}
	g.raw = raw

	// Install the checkpointed windows over every line the graph owns —
	// each primary input and each gate output, no more, no fewer.
	seen := make([]bool, len(g.lines))
	r.Expect(`,"lines":{`)
	for n := 0; r.More(n); n++ {
		net := r.Key()
		rise := readWindow(&r, `{"r":`)
		fall := readWindow(&r, `,"f":`)
		r.Expect("}")
		if r.Err() != nil {
			break
		}
		id, ok := c.NetID(string(net))
		if !ok {
			return nil, fmt.Errorf("%w: line state for net %q, which the circuit does not have", ErrBadSnapshot, net)
		}
		if seen[id] {
			return nil, fmt.Errorf("%w: duplicate line state for net %q", ErrBadSnapshot, net)
		}
		seen[id] = true
		v := g.imp.Value(id)
		g.lines[id] = twindow.LineInfo{
			Value: v, SRise: v.StateRise(), SFall: v.StateFall(),
			Rise: rise, Fall: fall,
		}
	}
	r.Expect("}")
	r.End()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for id, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%w: no line state for net %q", ErrBadSnapshot, c.NetName(id))
		}
	}
	return g, nil
}

// readPI reads one snapshotPI object.
func readPI(r *jsonread.Reader) twindow.PITiming {
	p := twindow.PITiming{
		ArrivalEarly: readBits(r, `{"ae":`),
		ArrivalLate:  readBits(r, `,"al":`),
		TransShort:   readBits(r, `,"ts":`),
		TransLong:    readBits(r, `,"tl":`),
	}
	r.Expect("}")
	return p
}

// readWindow reads one snapshotWindow object after the literal lit.
func readWindow(r *jsonread.Reader, lit string) twindow.Window {
	r.Expect(lit)
	w := twindow.Window{
		AS: readBits(r, `{"AS":`),
		AL: readBits(r, `,"AL":`),
		TS: readBits(r, `,"TS":`),
		TL: readBits(r, `,"TL":`),
	}
	r.Expect("}")
	return w
}

// readBits reads a float64 stored as its math.Float64bits, after the
// literal lit.
func readBits(r *jsonread.Reader, lit string) float64 {
	r.Expect(lit)
	return math.Float64frombits(r.Uint())
}
