package tgraph

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/twindow"
)

// referenceRestoreSnapshot is RestoreSnapshot as it was before the
// one-pass reader: encoding/json into snapshotJSON's maps, then the same
// checks. FuzzRestoreSnapshot holds the reader to it.
func referenceRestoreSnapshot(data []byte, opts Options) (*Graph, error) {
	var s snapshotJSON
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if s.Version != snapshotVersion {
		return nil, fmt.Errorf("%w: snapshot version %d, this build reads %d", ErrBadSnapshot, s.Version, snapshotVersion)
	}
	if got, want := s.Mode, opts.Mode.String(); got != want {
		return nil, fmt.Errorf("%w: snapshot mode %q, graph options want %q", ErrBadSnapshot, got, want)
	}
	if s.NCExtension != opts.NCExtension {
		return nil, fmt.Errorf("%w: snapshot nc_extension=%v, graph options want %v", ErrBadSnapshot, s.NCExtension, opts.NCExtension)
	}
	name := s.Name
	if name == "" {
		name = "snapshot"
	}
	c, err := netlist.Parse(name, strings.NewReader(s.Netlist))
	if err != nil {
		return nil, fmt.Errorf("%w: embedded netlist: %v", ErrBadSnapshot, err)
	}
	opts.PI = decodePI(s.PI)
	opts.PerPI = nil
	g, err := newSkeleton(c, opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	for name, p := range s.PerPI {
		id, ok := c.NetID(name)
		if !ok || id >= len(c.PIs) {
			return nil, fmt.Errorf("%w: per-PI stimulus for %q, which is not a primary input", ErrBadSnapshot, name)
		}
		g.piTiming[id], g.perPI[id] = decodePI(p), true
	}

	raw := nineval.Cube{}
	for net, vs := range s.RawCube {
		v, err := parseValue([]byte(vs))
		if err != nil {
			return nil, fmt.Errorf("%w: raw cube net %q: %v", ErrBadSnapshot, net, err)
		}
		raw[net] = v
	}
	if err := g.checkNets(raw); err != nil {
		return nil, fmt.Errorf("%w: raw cube: %v", ErrBadSnapshot, err)
	}
	g.imp = nineval.NewImplication(c)
	if !g.assignRaw(raw, nil) {
		return nil, fmt.Errorf("%w: raw cube is inconsistent with the netlist", ErrBadSnapshot)
	}
	g.raw = raw

	for id := range g.lines {
		net := c.NetName(id)
		sl, ok := s.Lines[net]
		if !ok {
			return nil, fmt.Errorf("%w: no line state for net %q", ErrBadSnapshot, net)
		}
		v := g.imp.Value(id)
		g.lines[id] = twindow.LineInfo{
			Value: v, SRise: v.StateRise(), SFall: v.StateFall(),
			Rise: decodeWindow(sl.Rise), Fall: decodeWindow(sl.Fall),
		}
	}
	if len(s.Lines) != len(g.lines) {
		return nil, fmt.Errorf("%w: %d line entries for a circuit with %d lines", ErrBadSnapshot, len(s.Lines), len(g.lines))
	}
	return g, nil
}

func decodeWindow(w snapshotWindow) twindow.Window {
	return twindow.Window{
		AS: math.Float64frombits(w.AS), AL: math.Float64frombits(w.AL),
		TS: math.Float64frombits(w.TS), TL: math.Float64frombits(w.TL),
	}
}

func decodePI(p snapshotPI) twindow.PITiming {
	return twindow.PITiming{
		ArrivalEarly: math.Float64frombits(p.ArrivalEarly),
		ArrivalLate:  math.Float64frombits(p.ArrivalLate),
		TransShort:   math.Float64frombits(p.TransShort),
		TransLong:    math.Float64frombits(p.TransLong),
	}
}
