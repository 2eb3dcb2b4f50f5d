// Package netlist provides the gate-level circuit representation used by
// static timing analysis, incremental timing refinement, timing simulation
// and ATPG, together with a reader/writer for the ISCAS85 ".bench" netlist
// format.
//
// Supported gate kinds are the primitives the characterised cell library
// models: INV/NOT, BUF, and n-input NAND/NOR. Gate input order is
// significant: input index i connects to stack position i of the cell
// (position 0 closest to the output, per the paper's Figure 3).
package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ErrUnknownKind reports a gate kind outside the supported primitives.
// It is returned wrapped, so use errors.Is to test for it.
var ErrUnknownKind = errors.New("unknown gate kind")

// GateKind enumerates the supported primitive gates.
type GateKind int

const (
	// Inv is an inverter (NOT).
	Inv GateKind = iota
	// Buf is a non-inverting buffer.
	Buf
	// Nand is an n-input NAND.
	Nand
	// Nor is an n-input NOR.
	Nor
)

// String returns the .bench keyword of the kind.
func (k GateKind) String() string {
	switch k {
	case Inv:
		return "NOT"
	case Buf:
		return "BUFF"
	case Nand:
		return "NAND"
	case Nor:
		return "NOR"
	default:
		return fmt.Sprintf("GateKind(%d)", int(k))
	}
}

// Inverting reports whether the gate logically inverts.
func (k GateKind) Inverting() bool { return k == Inv || k == Nand || k == Nor }

// ControllingValue returns the controlling input value: 0 for NAND, 1 for
// NOR. Inverters and buffers have no controlling value; they return -1.
func (k GateKind) ControllingValue() int {
	switch k {
	case Nand:
		return 0
	case Nor:
		return 1
	default:
		return -1
	}
}

// Eval evaluates the gate function over binary inputs. An unsupported
// kind yields an error wrapping ErrUnknownKind (instead of a panic), so
// simulators running inside an engine fan-out surface it through normal
// error aggregation.
func (k GateKind) Eval(in []int) (int, error) {
	switch k {
	case Inv:
		return 1 - in[0], nil
	case Buf:
		return in[0], nil
	case Nand:
		for _, v := range in {
			if v == 0 {
				return 1, nil
			}
		}
		return 0, nil
	case Nor:
		for _, v := range in {
			if v == 1 {
				return 0, nil
			}
		}
		return 1, nil
	default:
		return 0, fmt.Errorf("netlist: %w: %v", ErrUnknownKind, k)
	}
}

// Gate is one primitive gate instance.
type Gate struct {
	// ID is the gate's index in Circuit.Gates.
	ID int
	// Kind is the primitive type.
	Kind GateKind
	// Output is the driven net name.
	Output string
	// Inputs are the input net names; index = cell pin position.
	Inputs []string
}

// CellName returns the library cell name implementing this gate
// ("INV", "NAND2", "NOR3", ...). Buffers map to "INV" timing-wise (the
// closest library cell; logic evaluation still treats them as buffers).
// Names of up to maxNamedArity inputs come from a static table, so the
// per-gate library lookups of the timing passes allocate nothing.
func (g *Gate) CellName() string {
	n := len(g.Inputs)
	switch g.Kind {
	case Inv, Buf:
		return "INV"
	case Nand:
		if n <= maxNamedArity {
			return nandNames[n]
		}
		return fmt.Sprintf("NAND%d", n)
	case Nor:
		if n <= maxNamedArity {
			return norNames[n]
		}
		return fmt.Sprintf("NOR%d", n)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// maxNamedArity is the widest gate whose cell name is precomputed.
const maxNamedArity = 16

var nandNames, norNames = cellNames("NAND"), cellNames("NOR")

func cellNames(prefix string) (names [maxNamedArity + 1]string) {
	for n := range names {
		names[n] = fmt.Sprintf("%s%d", prefix, n)
	}
	return names
}

// Circuit is a combinational gate-level circuit.
type Circuit struct {
	// Name identifies the circuit (e.g. "c17").
	Name string
	// PIs and POs are the primary input and output net names, in
	// declaration order.
	PIs []string
	POs []string
	// Gates are the gate instances.
	Gates []Gate

	// Build interns every net to a dense ID: primary inputs take
	// 0..len(PIs)-1 in declaration order, gate i's output takes
	// len(PIs)+i. A net's driving gate and whether it is a primary input
	// follow from the ID alone; the other indexes are arrays over IDs.
	ids      map[string]int32 // net name -> net ID
	inOff    []int32          // gate i's input IDs: inIDs[inOff[i]:inOff[i+1]]
	inIDs    []int32
	fanOff   []int32 // net id's consumers: fanGates[fanOff[id]:fanOff[id+1]]
	fanGates []int
	order    []int // topologically sorted gate indices
	level    []int // per-gate logic level
	builtOK  bool  // Build succeeded since the last mutation
}

// New creates an empty circuit with the given name.
func New(name string) *Circuit {
	return &Circuit{Name: name}
}

// AddPI declares a primary input net.
func (c *Circuit) AddPI(name string) {
	c.PIs = append(c.PIs, name)
	c.invalidate()
}

// AddPO declares a primary output net.
func (c *Circuit) AddPO(name string) {
	c.POs = append(c.POs, name)
	c.invalidate()
}

// AddGate appends a gate and returns its ID.
func (c *Circuit) AddGate(kind GateKind, output string, inputs ...string) int {
	id := len(c.Gates)
	c.Gates = append(c.Gates, Gate{ID: id, Kind: kind, Output: output, Inputs: append([]string(nil), inputs...)})
	c.invalidate()
	return id
}

func (c *Circuit) invalidate() {
	c.ids = nil
	c.inOff, c.inIDs = nil, nil
	c.fanOff, c.fanGates = nil, nil
	c.order = nil
	c.level = nil
	c.builtOK = false
}

// Build validates the circuit structure, interns nets to dense IDs,
// indexes fan-outs and computes a topological order. It must be called
// (directly or via Parse) before the traversal accessors are used.
func (c *Circuit) Build() error {
	c.builtOK = false
	nPI := len(c.PIs)
	c.ids = make(map[string]int32, nPI+len(c.Gates))
	for i, pi := range c.PIs {
		if _, dup := c.ids[pi]; dup {
			return fmt.Errorf("netlist: %s: duplicate primary input %q", c.Name, pi)
		}
		c.ids[pi] = int32(i)
	}
	pins := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		g.ID = i
		if len(g.Inputs) == 0 {
			return fmt.Errorf("netlist: %s: gate %q has no inputs", c.Name, g.Output)
		}
		if (g.Kind == Inv || g.Kind == Buf) && len(g.Inputs) != 1 {
			return fmt.Errorf("netlist: %s: %v gate %q must have exactly 1 input", c.Name, g.Kind, g.Output)
		}
		if id, dup := c.ids[g.Output]; dup {
			if int(id) < nPI {
				return fmt.Errorf("netlist: %s: net %q is both a primary input and gate output", c.Name, g.Output)
			}
			return fmt.Errorf("netlist: %s: net %q has multiple drivers", c.Name, g.Output)
		}
		c.ids[g.Output] = int32(nPI + i)
		pins += len(g.Inputs)
	}
	nNets := nPI + len(c.Gates)
	c.inOff = make([]int32, len(c.Gates)+1)
	c.inIDs = make([]int32, 0, pins)
	c.fanOff = make([]int32, nNets+1)
	for i := range c.Gates {
		g := &c.Gates[i]
		for _, in := range g.Inputs {
			id, ok := c.ids[in]
			if !ok {
				return fmt.Errorf("netlist: %s: gate %q input %q is undriven", c.Name, g.Output, in)
			}
			c.inIDs = append(c.inIDs, id)
			c.fanOff[id+1]++
		}
		c.inOff[i+1] = int32(len(c.inIDs))
	}
	for _, po := range c.POs {
		if _, ok := c.ids[po]; !ok {
			return fmt.Errorf("netlist: %s: primary output %q is undriven", c.Name, po)
		}
	}
	// Fan-out lists in CSR form, each in gate order (a gate reading a net
	// on two pins appears twice, as it loads the net twice).
	for id := 0; id < nNets; id++ {
		c.fanOff[id+1] += c.fanOff[id]
	}
	c.fanGates = make([]int, pins)
	fill := append([]int32(nil), c.fanOff[:nNets]...)
	for i := range c.Gates {
		for _, id := range c.inputIDs(i) {
			c.fanGates[fill[id]] = i
			fill[id]++
		}
	}

	// Kahn topological sort over gates.
	indeg := make([]int, len(c.Gates))
	for i := range c.Gates {
		for _, id := range c.inputIDs(i) {
			if int(id) >= nPI {
				indeg[i]++
			}
		}
	}
	queue := make([]int, 0, len(c.Gates))
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	c.order = c.order[:0]
	c.level = make([]int, len(c.Gates))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		c.order = append(c.order, i)
		lvl := 0
		for _, id := range c.inputIDs(i) {
			if d := int(id) - nPI; d >= 0 && c.level[d]+1 > lvl {
				lvl = c.level[d] + 1
			}
		}
		c.level[i] = lvl
		for _, succ := range c.fanout(nPI + i) {
			indeg[succ]--
			if indeg[succ] == 0 {
				queue = append(queue, succ)
			}
		}
	}
	if len(c.order) != len(c.Gates) {
		return fmt.Errorf("netlist: %s: circuit contains a combinational cycle", c.Name)
	}
	c.builtOK = true
	return nil
}

// EnsureBuilt builds the index structures if a mutation invalidated them
// (or Build was never called) and returns any structural error, wrapped
// with the circuit name. Consumers call this once at their entry points so
// traversal never needs to panic.
func (c *Circuit) EnsureBuilt() error {
	if c.builtOK {
		return nil
	}
	return c.Build()
}

// built lazily (re)builds the traversal indexes. Accessors that cannot
// return an error fall back to zero values on a structurally invalid
// circuit; callers wanting the diagnosis use EnsureBuilt.
func (c *Circuit) built() bool {
	if c.builtOK {
		return true
	}
	return c.Build() == nil
}

// TopoOrder returns gate indices in topological (input-to-output) order,
// or nil for a structurally invalid circuit (see EnsureBuilt).
//
// Like every traversal accessor, TopoOrder is safe for concurrent use
// only after a successful Build/EnsureBuilt (lazy rebuilding mutates the
// index structures).
func (c *Circuit) TopoOrder() []int {
	if !c.built() {
		return nil
	}
	return c.order
}

// Level returns the logic level of gate i (0 = fed only by PIs).
func (c *Circuit) Level(i int) int {
	if !c.built() {
		return 0
	}
	return c.level[i]
}

// Depth returns the maximum logic level plus one, or 0 for an empty circuit.
func (c *Circuit) Depth() int {
	if !c.built() {
		return 0
	}
	max := -1
	for _, l := range c.level {
		if l > max {
			max = l
		}
	}
	return max + 1
}

// Driver returns the gate index driving the net and whether one exists
// (false for primary inputs).
func (c *Circuit) Driver(net string) (int, bool) {
	id, ok := c.NetID(net)
	if !ok || id < len(c.PIs) {
		return 0, false
	}
	return id - len(c.PIs), true
}

// Fanout returns the gate indices consuming the net.
func (c *Circuit) Fanout(net string) []int {
	id, ok := c.NetID(net)
	if !ok {
		return nil
	}
	return c.NetFanout(id)
}

// FanoutCount returns the number of gate inputs the net drives; nets feeding
// primary outputs count at least 1 (the implicit output load).
func (c *Circuit) FanoutCount(net string) int {
	return max(len(c.Fanout(net)), 1)
}

// IsPI reports whether the net is a primary input.
func (c *Circuit) IsPI(net string) bool {
	id, ok := c.NetID(net)
	return ok && id < len(c.PIs)
}

// NumNets returns the number of nets, len(PIs) + len(Gates): the bound of
// the dense net IDs.
func (c *Circuit) NumNets() int { return len(c.PIs) + len(c.Gates) }

// NetID returns the dense ID of a net (see Build for the numbering) and
// whether the circuit has such a net.
func (c *Circuit) NetID(net string) (int, bool) {
	if !c.built() {
		return 0, false
	}
	id, ok := c.ids[net]
	return int(id), ok
}

// NetName returns the name of the net with the given ID.
func (c *Circuit) NetName(id int) string {
	if id < len(c.PIs) {
		return c.PIs[id]
	}
	return c.Gates[id-len(c.PIs)].Output
}

// GateInputIDs returns the net IDs of gate i's inputs, in pin order
// (shared; do not mutate).
func (c *Circuit) GateInputIDs(i int) []int32 {
	if !c.built() {
		return nil
	}
	return c.inputIDs(i)
}

func (c *Circuit) inputIDs(i int) []int32 {
	return c.inIDs[c.inOff[i]:c.inOff[i+1]:c.inOff[i+1]]
}

// NetFanout returns the gate indices consuming the net with the given ID
// (shared; do not mutate).
func (c *Circuit) NetFanout(id int) []int {
	if !c.built() {
		return nil
	}
	return c.fanout(id)
}

func (c *Circuit) fanout(id int) []int {
	return c.fanGates[c.fanOff[id]:c.fanOff[id+1]:c.fanOff[id+1]]
}

// Nets returns all net names (PIs and gate outputs), sorted.
func (c *Circuit) Nets() []string {
	seen := make(map[string]bool, len(c.PIs)+len(c.Gates))
	var nets []string
	for _, pi := range c.PIs {
		if !seen[pi] {
			seen[pi] = true
			nets = append(nets, pi)
		}
	}
	for i := range c.Gates {
		out := c.Gates[i].Output
		if !seen[out] {
			seen[out] = true
			nets = append(nets, out)
		}
	}
	sort.Strings(nets)
	return nets
}

// NumGates returns the gate count.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// SwapGateKind exchanges the kind of the gate driving net for a same-arity
// dual (NAND↔NOR, INV↔BUF) and returns the previous kind. Because the swap
// changes neither connectivity nor gate count, the traversal indexes
// (drivers, fanouts, topological order, levels) remain valid and are
// deliberately NOT invalidated — this is what makes gate-swap ECO edits on a
// persistent timing graph O(changed cone) instead of O(circuit). Cross-pair
// swaps (e.g. INV→NAND) would change arity requirements and are rejected.
func (c *Circuit) SwapGateKind(net string, kind GateKind) (GateKind, error) {
	if !c.built() {
		if err := c.EnsureBuilt(); err != nil {
			return 0, err
		}
	}
	gi, ok := c.Driver(net)
	if !ok {
		return 0, fmt.Errorf("netlist: %s: net %q has no driving gate", c.Name, net)
	}
	g := &c.Gates[gi]
	prev := g.Kind
	switch {
	case prev == kind:
	case (prev == Inv || prev == Buf) && (kind == Inv || kind == Buf):
	case (prev == Nand || prev == Nor) && (kind == Nand || kind == Nor):
	default:
		return 0, fmt.Errorf("netlist: %s: cannot swap %v gate %q to %v (same-arity duals only)", c.Name, prev, net, kind)
	}
	g.Kind = kind
	return prev, nil
}

// Parse reads an ISCAS85 ".bench" format netlist:
//
//	# comment
//	INPUT(a)
//	OUTPUT(z)
//	z = NAND(a, b)
//	n1 = NOT(a)
//
// Accepted gate keywords: NOT/INV, BUF/BUFF, NAND, NOR, AND, OR.
// AND and OR are decomposed into NAND+NOT / NOR+NOT pairs so that the
// timing library's primitive cells cover every instance; the synthesised
// inverter nets are named "<out>_n".
func Parse(name string, r io.Reader) (*Circuit, error) {
	c := New(name)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		up := strings.ToUpper(line)
		switch {
		case strings.HasPrefix(up, "INPUT(") || strings.HasPrefix(up, "INPUT ("):
			net, err := parseParen(line)
			if err != nil {
				return nil, fmt.Errorf("netlist: %s:%d: %w", name, lineNo, err)
			}
			c.AddPI(net)
		case strings.HasPrefix(up, "OUTPUT(") || strings.HasPrefix(up, "OUTPUT ("):
			net, err := parseParen(line)
			if err != nil {
				return nil, fmt.Errorf("netlist: %s:%d: %w", name, lineNo, err)
			}
			c.AddPO(net)
		default:
			out, kindName, ins, err := parseAssign(line)
			if err != nil {
				return nil, fmt.Errorf("netlist: %s:%d: %w", name, lineNo, err)
			}
			switch strings.ToUpper(kindName) {
			case "NOT", "INV":
				c.AddGate(Inv, out, ins...)
			case "BUF", "BUFF":
				c.AddGate(Buf, out, ins...)
			case "NAND":
				c.AddGate(Nand, out, ins...)
			case "NOR":
				c.AddGate(Nor, out, ins...)
			case "AND":
				inner := out + "_n"
				c.AddGate(Nand, inner, ins...)
				c.AddGate(Inv, out, inner)
			case "OR":
				inner := out + "_n"
				c.AddGate(Nor, inner, ins...)
				c.AddGate(Inv, out, inner)
			default:
				return nil, fmt.Errorf("netlist: %s:%d: unsupported gate type %q", name, lineNo, kindName)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: %s: %w", name, err)
	}
	if err := c.Build(); err != nil {
		return nil, err
	}
	return c, nil
}

func parseParen(line string) (string, error) {
	open := strings.IndexByte(line, '(')
	close := strings.LastIndexByte(line, ')')
	if open < 0 || close < open {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	net := strings.TrimSpace(line[open+1 : close])
	if net == "" {
		return "", fmt.Errorf("empty net name in %q", line)
	}
	return net, nil
}

func parseAssign(line string) (out, kind string, ins []string, err error) {
	eq := strings.IndexByte(line, '=')
	if eq < 0 {
		return "", "", nil, fmt.Errorf("malformed gate line %q", line)
	}
	out = strings.TrimSpace(line[:eq])
	rhs := strings.TrimSpace(line[eq+1:])
	open := strings.IndexByte(rhs, '(')
	close := strings.LastIndexByte(rhs, ')')
	if open < 0 || close < open {
		return "", "", nil, fmt.Errorf("malformed gate expression %q", rhs)
	}
	kind = strings.TrimSpace(rhs[:open])
	for _, part := range strings.Split(rhs[open+1:close], ",") {
		p := strings.TrimSpace(part)
		if p == "" {
			return "", "", nil, fmt.Errorf("empty input in %q", rhs)
		}
		ins = append(ins, p)
	}
	if out == "" || kind == "" || len(ins) == 0 {
		return "", "", nil, fmt.Errorf("malformed gate line %q", line)
	}
	return out, kind, ins, nil
}

// Write emits the circuit in .bench format.
func (c *Circuit) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s: %d inputs, %d outputs, %d gates\n", c.Name, len(c.PIs), len(c.POs), len(c.Gates))
	for _, pi := range c.PIs {
		fmt.Fprintf(bw, "INPUT(%s)\n", pi)
	}
	for _, po := range c.POs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", po)
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		fmt.Fprintf(bw, "%s = %s(%s)\n", g.Output, g.Kind, strings.Join(g.Inputs, ", "))
	}
	return bw.Flush()
}

// Stats summarises a circuit.
type Stats struct {
	Name   string
	PIs    int
	POs    int
	Gates  int
	Depth  int
	ByKind map[GateKind]int
}

// Stats computes summary statistics; the circuit must be built.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Name:   c.Name,
		PIs:    len(c.PIs),
		POs:    len(c.POs),
		Gates:  len(c.Gates),
		Depth:  c.Depth(),
		ByKind: make(map[GateKind]int),
	}
	for i := range c.Gates {
		s.ByKind[c.Gates[i].Kind]++
	}
	return s
}
