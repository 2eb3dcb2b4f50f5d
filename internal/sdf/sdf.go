// Package sdf implements a pragmatic subset of the IEEE Standard Delay
// Format (SDF), the vehicle the paper names for conventional pin-to-pin
// timing ("SDF [5], which is commonly used for STA, uses pin-to-pin delays
// and hence is not accurate for modeling simultaneous transitions").
//
// The package exports a characterised library's pin-to-pin arcs as
// IOPATH entries with (min:typ:max) rise/fall triples — exactly the
// information the pin-to-pin baseline model consumes — and parses the same
// subset back. Exporting a library to SDF and re-importing it demonstrates
// concretely what the standard format *cannot* carry: the simultaneous-
// switching surfaces (D0R, SR, SK_t,min) have no SDF representation, which
// is the paper's motivation for a new model.
package sdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"sstiming/internal/core"
	"sstiming/internal/netlist"
)

// Triple is an SDF (min:typ:max) delay value, in seconds.
type Triple struct {
	Min, Typ, Max float64
}

// String renders the triple in SDF syntax with the file's nanosecond
// timescale.
func (t Triple) String() string {
	return fmt.Sprintf("(%.6g:%.6g:%.6g)", t.Min*1e9, t.Typ*1e9, t.Max*1e9)
}

// IOPath is one input-to-output delay arc of a cell instance.
type IOPath struct {
	// From is the input port name ("in0", "in1", ...).
	From string
	// To is the output port name (always "out" for library cells).
	To string
	// Rise and Fall are the output rise/fall delay triples.
	Rise, Fall Triple
}

// Cell is one annotated instance.
type Cell struct {
	// CellType is the library cell name, e.g. "NAND2".
	CellType string
	// Instance is the instance name (the output net name).
	Instance string
	// Paths are the delay arcs.
	Paths []IOPath
}

// File is a parsed or generated SDF delay file.
type File struct {
	// Design is the circuit name.
	Design string
	// Cells are the annotated instances, in netlist order.
	Cells []Cell
}

// The input transition times an exported delay is taken over: min/max
// delays are the extrema over [transMin, transMax], the typical delay is at
// transTyp.
const (
	transMin = 0.1e-9
	transMax = 1.0e-9
	transTyp = 0.2e-9
)

// FromLibrary builds the SDF annotation of a circuit from a characterised
// library: for every gate instance and input pin, the output rise and fall
// delays are the extrema of the pin-to-pin timing functions over the
// transition-time range (core.PinTiming.Range, which honours bi-tonic
// interior peaks).
func FromLibrary(c *netlist.Circuit, lib *core.Library) (*File, error) {
	if err := c.EnsureBuilt(); err != nil {
		return nil, fmt.Errorf("sdf: %w", err)
	}
	f := &File{Design: c.Name}
	for i := range c.Gates {
		g := &c.Gates[i]
		cell, ok := lib.Cell(g.CellName())
		if !ok {
			return nil, fmt.Errorf("sdf: no library cell %q for gate %q", g.CellName(), g.Output)
		}
		extraLoad := float64(c.FanoutCount(g.Output)-1) * cell.RefLoad

		inst := Cell{CellType: g.CellName(), Instance: g.Output}
		for pin := range g.Inputs {
			libPin := pin
			if g.Kind == netlist.Inv || g.Kind == netlist.Buf {
				libPin = 0
			}
			// Which pin table produces an output rise?
			// Inverting gates rise on the to-controlling response;
			// buffers rise on the "ctrl" table by this package's
			// convention (matching package sta).
			risePins := cell.CtrlPins
			fallPins := cell.NonCtrlPins
			if g.Kind == netlist.Nor {
				risePins, fallPins = cell.NonCtrlPins, cell.CtrlPins
			}

			rise := tripleOf(&risePins[libPin], extraLoad)
			fall := tripleOf(&fallPins[libPin], extraLoad)
			inst.Paths = append(inst.Paths, IOPath{
				From: fmt.Sprintf("in%d", pin),
				To:   "out",
				Rise: rise,
				Fall: fall,
			})
		}
		f.Cells = append(f.Cells, inst)
	}
	return f, nil
}

func tripleOf(p *core.PinTiming, extraLoad float64) Triple {
	loadD := p.DelayLoadSlope * extraLoad
	dMin, dMax, _, _ := p.Range(transMin, transMax)
	return Triple{
		Min: dMin + loadD,
		Typ: p.Delay.Eval(transTyp) + loadD,
		Max: dMax + loadD,
	}
}

// Write emits the file in SDF syntax (nanosecond timescale).
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "(DELAYFILE\n")
	fmt.Fprintf(bw, "  (SDFVERSION \"2.1\")\n")
	fmt.Fprintf(bw, "  (DESIGN \"%s\")\n", f.Design)
	fmt.Fprintf(bw, "  (TIMESCALE 1ns)\n")
	for _, cell := range f.Cells {
		fmt.Fprintf(bw, "  (CELL\n")
		fmt.Fprintf(bw, "    (CELLTYPE \"%s\")\n", cell.CellType)
		fmt.Fprintf(bw, "    (INSTANCE %s)\n", cell.Instance)
		fmt.Fprintf(bw, "    (DELAY (ABSOLUTE\n")
		for _, p := range cell.Paths {
			fmt.Fprintf(bw, "      (IOPATH %s %s %s %s)\n", p.From, p.To, p.Rise, p.Fall)
		}
		fmt.Fprintf(bw, "    ))\n")
		fmt.Fprintf(bw, "  )\n")
	}
	fmt.Fprintf(bw, ")\n")
	return bw.Flush()
}

// Arc returns the IOPath of an instance's input port.
func (f *File) Arc(instance, from string) (IOPath, bool) {
	for i := range f.Cells {
		if f.Cells[i].Instance != instance {
			continue
		}
		for _, p := range f.Cells[i].Paths {
			if p.From == from {
				return p, true
			}
		}
	}
	return IOPath{}, false
}

// Instances returns the annotated instance names, sorted.
func (f *File) Instances() []string {
	out := make([]string, 0, len(f.Cells))
	for i := range f.Cells {
		out = append(out, f.Cells[i].Instance)
	}
	sort.Strings(out)
	return out
}

// Parse reads the subset of SDF emitted by Write.
func Parse(r io.Reader) (*File, error) {
	toks, err := tokenize(r)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseFile()
}

// tokenize splits the input into parentheses, strings and atoms.
func tokenize(r io.Reader) ([]string, error) {
	br := bufio.NewReader(r)
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, cur.String())
			cur.Reset()
		}
	}
	for {
		ch, _, err := br.ReadRune()
		if err == io.EOF {
			flush()
			return toks, nil
		}
		if err != nil {
			return nil, fmt.Errorf("sdf: %w", err)
		}
		switch {
		case ch == '(' || ch == ')':
			flush()
			toks = append(toks, string(ch))
		case ch == '"':
			flush()
			var s strings.Builder
			for {
				c2, _, err := br.ReadRune()
				if err != nil {
					return nil, fmt.Errorf("sdf: unterminated string")
				}
				if c2 == '"' {
					break
				}
				s.WriteRune(c2)
			}
			toks = append(toks, `"`+s.String()+`"`)
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			flush()
		default:
			cur.WriteRune(ch)
		}
	}
}

type parser struct {
	toks []string
	pos  int
}

func (p *parser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos]
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(tok string) error {
	if got := p.next(); got != tok {
		return fmt.Errorf("sdf: expected %q, got %q (token %d)", tok, got, p.pos-1)
	}
	return nil
}

// skipForm consumes a balanced parenthesised form; the opening '(' has
// already been consumed.
func (p *parser) skipForm() error {
	depth := 1
	for depth > 0 {
		switch t := p.next(); t {
		case "(":
			depth++
		case ")":
			depth--
		case "":
			return fmt.Errorf("sdf: unexpected EOF inside form")
		}
	}
	return nil
}

func unquote(s string) string {
	return strings.TrimSuffix(strings.TrimPrefix(s, `"`), `"`)
}

func (p *parser) parseFile() (*File, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.expect("DELAYFILE"); err != nil {
		return nil, err
	}
	f := &File{}
	for {
		switch p.peek() {
		case ")":
			p.next()
			return f, nil
		case "(":
			p.next()
			keyword := p.next()
			switch keyword {
			case "DESIGN":
				f.Design = unquote(p.next())
				if err := p.expect(")"); err != nil {
					return nil, err
				}
			case "CELL":
				cell, err := p.parseCell()
				if err != nil {
					return nil, err
				}
				f.Cells = append(f.Cells, cell)
			default:
				// SDFVERSION, TIMESCALE, etc.
				if err := p.skipForm(); err != nil {
					return nil, err
				}
			}
		case "":
			return nil, fmt.Errorf("sdf: unexpected EOF")
		default:
			return nil, fmt.Errorf("sdf: unexpected token %q", p.peek())
		}
	}
}

func (p *parser) parseCell() (Cell, error) {
	var cell Cell
	for {
		switch p.peek() {
		case ")":
			p.next()
			return cell, nil
		case "(":
			p.next()
			switch keyword := p.next(); keyword {
			case "CELLTYPE":
				cell.CellType = unquote(p.next())
				if err := p.expect(")"); err != nil {
					return cell, err
				}
			case "INSTANCE":
				cell.Instance = p.next()
				if err := p.expect(")"); err != nil {
					return cell, err
				}
			case "DELAY":
				paths, err := p.parseDelay()
				if err != nil {
					return cell, err
				}
				cell.Paths = append(cell.Paths, paths...)
			default:
				if err := p.skipForm(); err != nil {
					return cell, err
				}
			}
		default:
			return cell, fmt.Errorf("sdf: unexpected token %q in CELL", p.peek())
		}
	}
}

func (p *parser) parseDelay() ([]IOPath, error) {
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if err := p.expect("ABSOLUTE"); err != nil {
		return nil, err
	}
	var paths []IOPath
	for {
		switch p.peek() {
		case ")":
			p.next() // close ABSOLUTE
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return paths, nil
		case "(":
			p.next()
			if err := p.expect("IOPATH"); err != nil {
				return nil, err
			}
			var io IOPath
			io.From = p.next()
			io.To = p.next()
			var err error
			if io.Rise, err = p.parseTriple(); err != nil {
				return nil, err
			}
			if io.Fall, err = p.parseTriple(); err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			paths = append(paths, io)
		default:
			return nil, fmt.Errorf("sdf: unexpected token %q in ABSOLUTE", p.peek())
		}
	}
}

func (p *parser) parseTriple() (Triple, error) {
	if err := p.expect("("); err != nil {
		return Triple{}, err
	}
	body := p.next()
	if err := p.expect(")"); err != nil {
		return Triple{}, err
	}
	parts := strings.Split(body, ":")
	if len(parts) != 3 {
		return Triple{}, fmt.Errorf("sdf: malformed triple %q", body)
	}
	var vals [3]float64
	for i, s := range parts {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Triple{}, fmt.Errorf("sdf: bad number %q: %w", s, err)
		}
		vals[i] = v * 1e-9 // file timescale is 1ns
	}
	return Triple{Min: vals[0], Typ: vals[1], Max: vals[2]}, nil
}
