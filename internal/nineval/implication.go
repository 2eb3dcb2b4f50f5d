package nineval

import "sstiming/internal/netlist"

// Implication is the implication state of one circuit over its dense net IDs
// (netlist.Circuit.NetID): a value per net, a trail of (net, previous
// value) entries for undo, a reused gate worklist and the set of nets
// whose value changed since the caller last drained it. The fixpoint loop
// reads GateInputIDs and NetFanout only; names appear nowhere.
//
// Implication is monotone: assigning more literals can only tighten
// values, so Imply after a few Assigns reaches the same least fixpoint as
// implying the whole assignment from scratch, while visiting only the
// gates around the new literals. Removing a literal does not commute with
// implication; a caller relaxes by Reset and re-assigning what is left.
// Mark and Undo rewind every value change since the mark, so a search
// steps back without re-implying.
//
// An Implication is not safe for concurrent use.
type Implication struct {
	c   *netlist.Circuit
	nPI int
	val []Value // per net ID

	trail []change // value changes since the last Commit, oldest first

	queue  []int32 // gates awaiting a visit
	queued []bool  // per gate: in queue

	touched   []int32 // nets whose value changed since the last drain
	isTouched []bool  // per net ID: in touched
}

type change struct {
	id  int32
	old Value
}

// NewImplication returns an all-xx implication over the circuit, which
// must be built (see netlist.Circuit.EnsureBuilt).
func NewImplication(c *netlist.Circuit) *Implication {
	n := c.NumNets()
	s := &Implication{
		c:         c,
		nPI:       len(c.PIs),
		val:       make([]Value, n),
		queued:    make([]bool, len(c.Gates)),
		isTouched: make([]bool, n),
	}
	for i := range s.val {
		s.val[i] = VXX
	}
	return s
}

// Value returns the value of the net with the given ID.
func (s *Implication) Value(id int) Value { return s.val[id] }

// Values returns every net's value, indexed by net ID (shared and live:
// later changes show through it; do not mutate).
func (s *Implication) Values() []Value { return s.val }

// Assign meets v into a net's value and queues the gates around it for the
// next Imply. It returns false, changing nothing, when v contradicts the
// net's current value.
func (s *Implication) Assign(id int, v Value) bool {
	m, ok := s.val[id].Meet(v)
	if ok {
		s.set(id, m)
	}
	return ok
}

// Imply runs forward and backward implication to the fixpoint, starting
// from the gates queued by the assignments made since the last fixpoint.
// On conflict it returns false and leaves the values as they stood at
// detection; the caller rewinds them with Undo.
func (s *Implication) Imply() bool {
	ok := true
	for head := 0; head < len(s.queue); head++ {
		gi := int(s.queue[head])
		s.queued[gi] = false
		if ok && !(s.visit(gi, 0) && s.visit(gi, 1)) {
			ok = false
		}
	}
	s.queue = s.queue[:0]
	return ok
}

// Mark returns a point Undo can rewind to. Take it at a fixpoint (after
// Imply, Reset, Undo or on a new Implication).
func (s *Implication) Mark() int { return len(s.trail) }

// Undo restores every value changed since the mark and drops any pending
// implication work.
func (s *Implication) Undo(mark int) {
	for i := len(s.trail) - 1; i >= mark; i-- {
		e := s.trail[i]
		s.val[e.id] = e.old
		s.touch(int(e.id))
	}
	s.trail = s.trail[:mark]
	s.dropQueue()
}

// Reset relaxes every net to xx. It is recorded on the trail, so an Undo
// to an earlier mark restores the values it cleared.
func (s *Implication) Reset() {
	for id, v := range s.val {
		if v != VXX {
			s.trail = append(s.trail, change{int32(id), v})
			s.val[id] = VXX
			s.touch(id)
		}
	}
	s.dropQueue()
}

// Commit forgets the trail: marks taken before it are void, and Undo can
// no longer rewind past this point.
func (s *Implication) Commit() { s.trail = s.trail[:0] }

// DrainTouched returns the IDs of the nets whose value changed (by Assign,
// Imply, Undo or Reset) since the previous drain, and starts a new set. A
// net may be listed although a later change restored its value. The slice
// is valid until the next change to the state.
func (s *Implication) DrainTouched() []int32 {
	t := s.touched
	for _, id := range t {
		s.isTouched[id] = false
	}
	s.touched = t[:0]
	return t
}

// Cube returns raw's entries plus every net whose value is not xx, each
// net of the circuit at its current value: the cube form of the state
// implied from raw.
func (s *Implication) Cube(raw Cube) Cube {
	out := make(Cube, len(raw))
	for net, v := range raw {
		out[net] = v
	}
	for id, v := range s.val {
		if v != VXX {
			out[s.c.NetName(id)] = v
		}
	}
	return out
}

// Imply computes the fixpoint of forward and backward implication of the
// cube over the circuit. It returns the cube's own entries (explicit xx
// ones included) plus every net the fixpoint assigns, and reports
// consistency; on conflict the returned cube is the state at detection
// (for diagnosis). Nets the circuit does not have keep their cube value
// and imply nothing.
func Imply(c *netlist.Circuit, cube Cube) (Cube, bool) {
	s := NewImplication(c)
	for net, v := range cube {
		if id, ok := c.NetID(net); ok {
			s.Assign(id, v) // a fresh state holds no value to contradict
		}
	}
	ok := s.Imply()
	return s.Cube(cube), ok
}

func (s *Implication) dropQueue() {
	for _, gi := range s.queue {
		s.queued[gi] = false
	}
	s.queue = s.queue[:0]
}

func (s *Implication) touch(id int) {
	if !s.isTouched[id] {
		s.isTouched[id] = true
		s.touched = append(s.touched, int32(id))
	}
}

// set records a net's new value and queues its driver and consumers.
func (s *Implication) set(id int, v Value) {
	old := s.val[id]
	if old == v {
		return
	}
	s.trail = append(s.trail, change{int32(id), old})
	s.val[id] = v
	s.touch(id)
	if id >= s.nPI {
		s.enqueue(id - s.nPI)
	}
	for _, gi := range s.c.NetFanout(id) {
		s.enqueue(gi)
	}
}

func (s *Implication) enqueue(gi int) {
	if !s.queued[gi] {
		s.queued[gi] = true
		s.queue = append(s.queue, int32(gi))
	}
}

func (s *Implication) get(id int32, frame int) Frame { return getFrame(s.val[id], frame) }

// setFrame assigns an unknown frame of a net.
func (s *Implication) setFrame(id int32, frame int, f Frame) {
	s.set(int(id), withFrame(s.val[id], frame, f))
}

// visit applies three-valued implication to one gate in one frame: the
// output from the inputs (forward), then the inputs the output forces
// (backward). It returns false on conflict.
func (s *Implication) visit(gi, frame int) bool {
	kind := s.c.Gates[gi].Kind
	ins := s.c.GateInputIDs(gi)
	out := int32(s.nPI + gi)
	zCur := s.get(out, frame)

	// Forward.
	if zf := s.eval(kind, ins, frame); zf != FX {
		if zCur == FX {
			s.setFrame(out, frame, zf)
			zCur = zf
		} else if zCur != zf {
			return false
		}
	}

	// Backward.
	if zCur == FX {
		return true
	}
	switch kind {
	case netlist.Inv, netlist.Buf:
		want := zCur
		if kind == netlist.Inv {
			want = F1 - zCur
		}
		if s.get(ins[0], frame) == FX {
			s.setFrame(ins[0], frame, want)
		}
	case netlist.Nand, netlist.Nor:
		cv, forced := controlling(kind)
		ncv := F1 - cv
		if zCur != forced {
			// Output at the non-forced value: all inputs must be
			// non-controlling.
			for _, in := range ins {
				switch s.get(in, frame) {
				case FX:
					s.setFrame(in, frame, ncv)
				case cv:
					return false
				}
			}
			return true
		}
		// Output forced: at least one input is controlling. Unit
		// propagation: if all but one are non-controlling, the remaining
		// one must be controlling.
		unknown := int32(-1)
		countNC := 0
		for _, in := range ins {
			switch s.get(in, frame) {
			case ncv:
				countNC++
			case cv:
				return true
			default:
				unknown = in
			}
		}
		if countNC == len(ins) {
			return false
		}
		if countNC == len(ins)-1 && unknown >= 0 {
			s.setFrame(unknown, frame, cv)
		}
	}
	return true
}

// eval is evalFrame over net IDs.
func (s *Implication) eval(kind netlist.GateKind, ins []int32, frame int) Frame {
	switch kind {
	case netlist.Inv:
		if f := s.get(ins[0], frame); f != FX {
			return F1 - f
		}
		return FX
	case netlist.Buf:
		return s.get(ins[0], frame)
	case netlist.Nand, netlist.Nor:
		cv, forced := controlling(kind)
		anyX := false
		for _, in := range ins {
			switch s.get(in, frame) {
			case cv:
				return forced
			case FX:
				anyX = true
			}
		}
		if anyX {
			return FX
		}
		return F1 - forced
	default:
		panic("nineval: unknown gate kind")
	}
}

// controlling returns a NAND/NOR gate's controlling input value and the
// output it forces.
func controlling(kind netlist.GateKind) (cv, forced Frame) {
	if kind == netlist.Nor {
		return F1, F0
	}
	return F0, F1
}

func getFrame(v Value, frame int) Frame {
	if frame == 0 {
		return v.V1
	}
	return v.V2
}

func withFrame(v Value, frame int, f Frame) Value {
	if frame == 0 {
		v.V1 = f
	} else {
		v.V2 = f
	}
	return v
}
