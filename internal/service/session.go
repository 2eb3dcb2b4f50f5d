package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sstiming/internal/engine"
	"sstiming/internal/httpmw"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/sessionlog"
	"sstiming/internal/sta"
	"sstiming/internal/tgraph"
	"sstiming/internal/twindow"
)

// This file is the daemon's stateful half: timing sessions. POST /session
// parses a netlist once, builds a persistent incremental timing graph
// (internal/tgraph) and keeps it resident; POST /session/{id}/delta applies
// cube / PI-stimulus / gate-swap edits, paying only for the edited cone;
// GET /session/{id}/windows reads the current windows; DELETE retires the
// session.
//
// The session contract, layered on the daemon's existing robustness rules:
//
//   - a per-session mutex serializes deltas and reads on one graph
//     (tgraph.Graph is not safe for concurrent use): concurrent deltas to
//     one session queue behind each other, deltas to different sessions run
//     concurrently on the worker pool;
//   - resident graphs are bounded: an LRU cap (Options.MaxSessions) plus an
//     idle TTL (Options.SessionIdleTTL) evict stale sessions, and evicted
//     IDs keep answering 404 naming the eviction reason (a bounded
//     tombstone ring) rather than a bare "not found";
//   - session creation, deltas and window reads go through the same
//     admission-controlled job queue as /analyze: shed with 429 under
//     overload, refused 503 while draining (in-flight deltas complete —
//     admission is the promise), cancelled at their deadline between
//     convergence levels;
//   - a delta that dies mid-convergence (deadline, injected fault) is
//     rolled back and the graph marked poisoned; the next delta or window
//     read heals it with a full reconverge, so the next successful answer
//     is byte-identical to a from-scratch analysis (asserted by the session
//     chaos tests).

// ErrSessionNotFound reports an unknown — or evicted — session ID; the
// error text names the eviction reason when one is on record.
var ErrSessionNotFound = errors.New("service: session not found")

// ErrSessionDurability reports a durable session whose journal could not be
// written: the delta may have been applied in memory, but it was never made
// durable, so the daemon treats the resident session as crashed — it is
// dropped with a reasoned tombstone, and a restart recovers it at its last
// durable frame (crash-only design: an undurable session and a killed one
// are the same case).
var ErrSessionDurability = errors.New("service: session journal write failed")

// tombstoneCap bounds the evicted-session memory: the store remembers the
// eviction reason for this many most-recently-departed IDs.
const tombstoneCap = 256

// session is one resident timing graph plus its bookkeeping.
type session struct {
	id      string
	circuit *netlist.Circuit
	mode    sta.Mode
	created time.Time

	// mu serializes every graph operation; edits counts completed deltas.
	mu    sync.Mutex
	graph *tgraph.Graph
	edits atomic.Int64

	// log is the session's write-ahead journal (nil when the daemon runs
	// without a session directory); seq numbers its delta frames and is
	// guarded by mu.
	log *sessionlog.Log
	seq int64

	// lastUsed is guarded by the owning store's mutex, not mu.
	lastUsed time.Time
}

// retireLog removes the session's journal (eviction, TTL expiry, DELETE).
// Safe to call on in-memory sessions and to race an in-flight delta: the
// log's own lock serializes, and a delta whose append loses the race
// observes sessionlog.ErrRetired and completes on the live graph without
// journaling. Removal failures are deliberately swallowed — a leftover
// directory is re-scanned (and at worst re-served) by the next boot, which
// is safer than failing an eviction.
func (sess *session) retireLog() {
	if sess.log != nil {
		_ = sess.log.Retire()
	}
}

// sessionStore owns the resident sessions: lookup, LRU + idle-TTL
// eviction, and the tombstone ring that keeps 404s explainable.
type sessionStore struct {
	max     int
	idleTTL time.Duration
	met     *engine.Metrics
	seq     atomic.Int64

	mu        sync.Mutex
	byID      map[string]*session
	tombs     map[string]string // id -> departure reason
	tombOrder []string          // FIFO over tombs, bounded by tombstoneCap
}

func newSessionStore(max int, idleTTL time.Duration, met *engine.Metrics) *sessionStore {
	return &sessionStore{
		max:     max,
		idleTTL: idleTTL,
		met:     met,
		byID:    make(map[string]*session),
		tombs:   make(map[string]string),
	}
}

// entomb records why an ID left the store. Callers hold st.mu.
func (st *sessionStore) entomb(id, reason string) {
	if _, ok := st.tombs[id]; ok {
		st.tombs[id] = reason
		return
	}
	if len(st.tombOrder) >= tombstoneCap {
		delete(st.tombs, st.tombOrder[0])
		st.tombOrder = st.tombOrder[1:]
	}
	st.tombs[id] = reason
	st.tombOrder = append(st.tombOrder, id)
}

// expireLocked evicts sessions idle beyond the TTL, returning the victims
// so the caller can retire their journals after releasing st.mu (journal
// retirement does file IO and must not run under the store lock). Callers
// hold st.mu. Eviction drops the store's reference only: a delta already
// holding the session keeps a live pointer and completes normally.
func (st *sessionStore) expireLocked(now time.Time) (victims []*session) {
	if st.idleTTL <= 0 {
		return nil
	}
	for id, sess := range st.byID {
		if now.Sub(sess.lastUsed) > st.idleTTL {
			delete(st.byID, id)
			st.entomb(id, "expired-idle")
			st.met.Add(engine.SvcSessionEvicts, 1)
			victims = append(victims, sess)
		}
	}
	return victims
}

// put inserts a fresh session, evicting the least-recently-used residents
// above the cap and retiring the victims' journals. Returns the evicted IDs
// (for the creation response).
func (st *sessionStore) put(sess *session) (evicted []string) {
	st.mu.Lock()
	now := time.Now()
	victims := st.expireLocked(now)
	sess.lastUsed = now
	st.byID[sess.id] = sess
	for st.max > 0 && len(st.byID) > st.max {
		var lru *session
		for _, cand := range st.byID {
			if cand == sess {
				continue
			}
			if lru == nil || cand.lastUsed.Before(lru.lastUsed) {
				lru = cand
			}
		}
		if lru == nil {
			break
		}
		delete(st.byID, lru.id)
		st.entomb(lru.id, "evicted-lru")
		st.met.Add(engine.SvcSessionEvicts, 1)
		evicted = append(evicted, lru.id)
		victims = append(victims, lru)
	}
	st.mu.Unlock()
	for _, v := range victims {
		v.retireLog()
	}
	sort.Strings(evicted)
	return evicted
}

// get looks a session up and refreshes its recency. A miss with a
// tombstone on record names the departure reason.
func (st *sessionStore) get(id string) (*session, error) {
	st.mu.Lock()
	now := time.Now()
	victims := st.expireLocked(now)
	sess, ok := st.byID[id]
	if ok {
		sess.lastUsed = now
	}
	reason, entombed := st.tombs[id]
	st.mu.Unlock()
	for _, v := range victims {
		v.retireLog()
	}
	if ok {
		return sess, nil
	}
	if entombed {
		return nil, fmt.Errorf("%w: %s (%s)", ErrSessionNotFound, id, reason)
	}
	return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
}

// remove deletes a session on client request, returning it so the caller
// can retire its journal; a miss returns the same reasoned not-found error
// get would.
func (st *sessionStore) remove(id string) (*session, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sess, ok := st.byID[id]
	if !ok {
		if reason, ok := st.tombs[id]; ok {
			return nil, fmt.Errorf("%w: %s (%s)", ErrSessionNotFound, id, reason)
		}
		return nil, fmt.Errorf("%w: %s", ErrSessionNotFound, id)
	}
	delete(st.byID, id)
	st.entomb(id, "deleted")
	return sess, nil
}

// entombExternal records a departure reason for an ID that never made it
// into the store (quarantined journals at recovery).
func (st *sessionStore) entombExternal(id, reason string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entomb(id, reason)
}

// dropUndurable evicts a session whose journal append failed, with a
// reasoned tombstone and WITHOUT retiring the log: the journal's valid
// prefix is the durable truth a restart recovers the session to.
func (st *sessionStore) dropUndurable(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[id]; !ok {
		return
	}
	delete(st.byID, id)
	st.entomb(id, "journal-write-failed")
	st.met.Add(engine.SvcSessionEvicts, 1)
}

// closeLogs closes every resident session's journal handle (drain path;
// the logs stay on disk for the next boot to recover).
func (st *sessionStore) closeLogs() {
	st.mu.Lock()
	sessions := make([]*session, 0, len(st.byID))
	for _, sess := range st.byID {
		sessions = append(sessions, sess)
	}
	st.mu.Unlock()
	for _, sess := range sessions {
		if sess.log != nil {
			_ = sess.log.Close()
		}
	}
}

// count returns the number of resident sessions.
func (st *sessionStore) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// SessionCreateRequest is the POST /session body.
type SessionCreateRequest struct {
	// Netlist is the circuit source text.
	Netlist string `json:"netlist"`
	// Format is "bench" (default) or "verilog".
	Format string `json:"format"`
	// Mode is "proposed" (default) or "pin-to-pin".
	Mode string `json:"mode"`
	// NCExtension enables the Λ-shape to-non-controlling extension.
	NCExtension bool `json:"nc_extension"`
	// Cube optionally seeds the session with a two-frame assignment
	// (net -> "01"/"1x"/...); empty means pure STA (all lines free).
	Cube      map[string]string `json:"cube"`
	TimeoutMs int               `json:"timeout_ms"`
}

// SessionCreateResponse is the POST /session result.
type SessionCreateResponse struct {
	RequestID string      `json:"request_id"`
	SessionID string      `json:"session_id"`
	Circuit   CircuitJSON `json:"circuit"`
	Mode      string      `json:"mode"`
	Cube      string      `json:"cube"`
	// Evicted lists sessions the LRU cap pushed out to admit this one.
	Evicted   []string `json:"evicted,omitempty"`
	ElapsedMs float64  `json:"elapsed_ms"`
}

// SessionPIJSON is a primary-input stimulus override, in seconds.
type SessionPIJSON struct {
	Net          string  `json:"net"`
	ArrivalEarly float64 `json:"arrival_early_s"`
	ArrivalLate  float64 `json:"arrival_late_s"`
	TransShort   float64 `json:"trans_short_s"`
	TransLong    float64 `json:"trans_long_s"`
}

// SessionSwapJSON swaps the gate driving Net for its same-arity dual
// ("not"/"buff", "nand"/"nor").
type SessionSwapJSON struct {
	Net  string `json:"net"`
	Kind string `json:"kind"`
}

// SessionDeltaRequest is the POST /session/{id}/delta body. A delta may
// combine the edit kinds; they apply in the order cube (assign+retract as
// one edit), set_pi, swap_gate, and the response reports the union of the
// changed cones.
type SessionDeltaRequest struct {
	// Assign merges two-frame values (net -> "01"/"1x"/...) into the
	// session's cube.
	Assign map[string]string `json:"assign"`
	// Retract removes nets from the session's cube (undo).
	Retract []string `json:"retract"`
	// SetPI overrides one primary input's stimulus.
	SetPI *SessionPIJSON `json:"set_pi"`
	// SwapGate exchanges a gate for its same-arity dual (an ECO edit).
	SwapGate *SessionSwapJSON `json:"swap_gate"`
	// Windows includes the changed lines' windows in the response.
	Windows   bool `json:"windows"`
	TimeoutMs int  `json:"timeout_ms"`
}

// SessionDeltaResponse is the POST /session/{id}/delta result.
type SessionDeltaResponse struct {
	RequestID string `json:"request_id"`
	SessionID string `json:"session_id"`
	// Edit is this delta's 1-based sequence number within the session.
	Edit int64  `json:"edit"`
	Cube string `json:"cube"`
	// Changed counts lines whose timing changed; ChangedNets names them.
	Changed     int                       `json:"changed"`
	ChangedNets []string                  `json:"changed_nets"`
	Lines       map[string]RefineLineJSON `json:"lines,omitempty"`
	ElapsedMs   float64                   `json:"elapsed_ms"`
}

// SessionWindowsResponse is the GET /session/{id}/windows result.
type SessionWindowsResponse struct {
	RequestID string      `json:"request_id"`
	SessionID string      `json:"session_id"`
	Circuit   CircuitJSON `json:"circuit"`
	Cube      string      `json:"cube"`
	// Healed reports that a previously failed delta left the graph
	// poisoned and this read re-converged it from scratch first.
	Healed    bool                      `json:"healed,omitempty"`
	Lines     map[string]RefineLineJSON `json:"lines"`
	ElapsedMs float64                   `json:"elapsed_ms"`
}

// SessionDeleteResponse is the DELETE /session/{id} result.
type SessionDeleteResponse struct {
	RequestID string `json:"request_id"`
	SessionID string `json:"session_id"`
	Deleted   bool   `json:"deleted"`
}

// lineJSON renders one line's refined state for the wire.
func lineJSON(li twindow.LineInfo) RefineLineJSON {
	lj := RefineLineJSON{
		Value: li.Value.String(),
		SRise: li.SRise.String(),
		SFall: li.SFall.String(),
	}
	if li.HasRise() {
		wj := windowJSON(li.Rise)
		lj.Rise = &wj
	}
	if li.HasFall() {
		wj := windowJSON(li.Fall)
		lj.Fall = &wj
	}
	return lj
}

// parseGateKind maps the wire name to a netlist gate kind.
func parseGateKind(kind string) (netlist.GateKind, error) {
	switch strings.ToLower(kind) {
	case "not", "inv":
		return netlist.Inv, nil
	case "buff", "buf":
		return netlist.Buf, nil
	case "nand":
		return netlist.Nand, nil
	case "nor":
		return netlist.Nor, nil
	default:
		return 0, fmt.Errorf("unknown gate kind %q (want \"not\", \"buff\", \"nand\" or \"nor\")", kind)
	}
}

// kindName is parseGateKind's inverse: the canonical wire name journaled
// for a swap edit, the netlist spelling in lower case.
func kindName(kind netlist.GateKind) string { return strings.ToLower(kind.String()) }

// wireCube renders a cube in the two-frame wire encoding (the same form
// requests carry and journals store).
func wireCube(cube nineval.Cube) map[string]string {
	if len(cube) == 0 {
		return nil
	}
	m := make(map[string]string, len(cube))
	for net, v := range cube {
		m[net] = v.String()
	}
	return m
}

// deltaOps is one delta's validated edit set, shared between the live
// request path and journal replay so both apply byte-identically.
type deltaOps struct {
	assignWire map[string]string // as journaled (validated two-frame strings)
	assign     nineval.Cube
	retract    []string
	setPI      *sessionlog.PIRecord
	swapNet    string
	swapKind   netlist.GateKind
	hasSwap    bool
}

// parseDeltaOps validates a delta's edits into an applicable form. The
// argument types are the journal record's field types; the HTTP handler
// converts its JSON body into them first, so a replayed record and a live
// request walk the exact same validation.
func parseDeltaOps(assign map[string]string, retract []string, setPI *sessionlog.PIRecord, swap *sessionlog.SwapRecord) (*deltaOps, error) {
	cube, err := parseCube(assign)
	if err != nil {
		return nil, err
	}
	ops := &deltaOps{
		assignWire: wireCube(cube),
		assign:     cube,
		retract:    retract,
		setPI:      setPI,
	}
	if swap != nil {
		kind, err := parseGateKind(swap.Kind)
		if err != nil {
			return nil, err
		}
		ops.swapNet = swap.Net
		ops.swapKind = kind
		ops.hasSwap = true
	}
	return ops, nil
}

// applyDelta applies one delta's edits to the graph in the canonical order
// (cube, set_pi, swap_gate). It returns the journal record of the applied
// prefix — on a mid-delta failure the record carries exactly the sub-edits
// that took effect (tgraph rolls the failing one back), so replaying the
// record reproduces the live graph — plus, on success, the union of
// changed nets, sorted once after the last sub-edit.
func applyDelta(ctx context.Context, g *tgraph.Graph, ops *deltaOps) (applied sessionlog.Record, changed []string, err error) {
	applied.Kind = "delta"
	var ids []int32
	note := func() { ids = append(ids, g.ChangedIDs()...) }
	if len(ops.assign) > 0 || len(ops.retract) > 0 {
		raw := g.RawCube().Clone()
		for net, v := range ops.assign {
			raw[net] = v
		}
		for _, net := range ops.retract {
			delete(raw, net)
		}
		if err = g.SetCube(ctx, raw); err != nil {
			return applied, nil, err
		}
		applied.Assign = ops.assignWire
		applied.Retract = ops.retract
		note()
	}
	if ops.setPI != nil {
		p := twindow.PITiming{
			ArrivalEarly: ops.setPI.ArrivalEarly,
			ArrivalLate:  ops.setPI.ArrivalLate,
			TransShort:   ops.setPI.TransShort,
			TransLong:    ops.setPI.TransLong,
		}
		if err = g.SetPI(ctx, ops.setPI.Net, p); err != nil {
			return applied, nil, err
		}
		pi := *ops.setPI
		applied.SetPI = &pi
		note()
	}
	if ops.hasSwap {
		if err = g.SwapGate(ctx, ops.swapNet, ops.swapKind); err != nil {
			return applied, nil, err
		}
		applied.Swap = &sessionlog.SwapRecord{Net: ops.swapNet, Kind: kindName(ops.swapKind)}
		note()
	}
	c := g.Circuit()
	changed = make([]string, len(ids))
	for i, id := range ids {
		changed[i] = c.NetName(int(id))
	}
	slices.Sort(changed)
	return applied, slices.Compact(changed), nil
}

// journalDelta makes an applied delta durable before it is acknowledged.
// Losing the retire race (eviction/DELETE closed the log mid-delta) is
// benign — the delta completed on the live graph and the session is gone
// either way. Any other append failure is crash-equivalent: the resident
// session is dropped with a reasoned tombstone (the journal's valid prefix
// is the durable truth a restart recovers) and the client gets a 500.
// Callers hold sess.mu.
func (s *Server) journalDelta(sess *session, applied *sessionlog.Record) error {
	if sess.log == nil || applied.Empty() {
		return nil
	}
	applied.Seq = sess.seq + 1
	if err := sess.log.Append(*applied); err != nil {
		if errors.Is(err, sessionlog.ErrRetired) {
			return nil
		}
		s.sessions.dropUndurable(sess.id)
		return fmt.Errorf("%w: %v", ErrSessionDurability, err)
	}
	sess.seq++
	return nil
}

// maybeCompact checkpoints the session's converged graph and truncates its
// journal when the compaction policy (delta count or log size) says so.
// Compaction failures are deliberately non-fatal: the delta it rode on is
// already durable and acknowledged, and an oversized log only costs replay
// time. Callers hold sess.mu; the graph must be converged (not poisoned).
func (s *Server) maybeCompact(sess *session) {
	lg := sess.log
	if lg == nil {
		return
	}
	every, bytes := s.opts.SessionSnapshotEvery, s.opts.SessionSnapshotBytes
	due := (every > 0 && lg.DeltasSinceCompact() >= int64(every)) ||
		(bytes > 0 && lg.SizeBytes() >= bytes)
	if !due {
		return
	}
	graph, err := sess.graph.EncodeSnapshot()
	if err != nil {
		return
	}
	err = lg.Compact(sessionlog.Snapshot{
		SessionID: sess.id,
		Seq:       sess.seq,
		Edit:      sess.edits.Load(),
		Graph:     graph,
	})
	if err == nil {
		s.met.Add(engine.SvcSessionSnapshots, 1)
	}
}

// handleSessionCreate serves POST /session: parse the netlist once, build
// the persistent timing graph fully converged under the (possibly empty)
// seed cube, and keep it resident for deltas. With a session directory
// configured the session is journaled — canonical netlist, delay-model
// options and seed cube — before it is visible, so a crash after the 201
// never loses it.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	id := httpmw.RequestID(r.Context())
	var req SessionCreateRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	cube, err := parseCube(req.Cube)
	if err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	ctx, cancel := s.withDeadline(r, req.TimeoutMs)
	defer cancel()

	start := time.Now()
	var resp *SessionCreateResponse
	err = s.submit(ctx, func(ctx context.Context) error {
		c, err := parseCircuit(req.Netlist, req.Format)
		if err != nil {
			return err
		}
		if err := s.checkGateBudget(c); err != nil {
			return err
		}
		// One consistent (library, fingerprint) snapshot for the whole
		// creation: the graph is built against the same library whose
		// fingerprint the journal meta pins.
		ls := s.libstate()
		g, err := tgraph.NewWithCube(c, cube, tgraph.Options{
			Lib:         ls.lib,
			Mode:        mode,
			NCExtension: req.NCExtension,
			Ctx:         ctx,
			Metrics:     s.met,
			LevelHook:   s.opts.LevelHook,
		})
		if err != nil {
			return err
		}
		sess := &session{
			id:      fmt.Sprintf("s%08x-%06d", s.inst.Boot(), s.sessions.seq.Add(1)),
			circuit: c,
			mode:    mode,
			created: time.Now(),
			graph:   g,
		}
		if s.opts.SessionDir != "" {
			var nb bytes.Buffer
			if err := c.Write(&nb); err != nil {
				return fmt.Errorf("%w: encoding netlist: %v", ErrSessionDurability, err)
			}
			lg, err := sessionlog.Create(
				filepath.Join(s.opts.SessionDir, sess.id),
				sessionlog.Meta{SessionID: sess.id, LibraryFingerprint: ls.fp},
				sessionlog.Record{
					Kind:        "create",
					Netlist:     nb.String(),
					Mode:        mode.String(),
					NCExtension: req.NCExtension,
					Cube:        wireCube(g.RawCube()),
				},
				sessionlog.Options{FaultHook: s.opts.SessionLogFaultHook},
			)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrSessionDurability, err)
			}
			sess.log = lg
		}
		evicted := s.sessions.put(sess)
		s.met.Add(engine.SvcSessions, 1)
		resp = &SessionCreateResponse{
			RequestID: id,
			SessionID: sess.id,
			Circuit:   circuitJSON(c),
			Mode:      mode.String(),
			Cube:      g.RawCube().String(),
			Evicted:   evicted,
		}
		return nil
	})
	if err != nil {
		s.respondJobError(w, id, err)
		return
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	httpmw.WriteJSON(w, http.StatusCreated, resp)
}

// lookupSession resolves the {id} path segment, answering the 404 itself
// (with the eviction reason when one is on record) so handlers only see
// live sessions.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request, id string) *session {
	sess, err := s.sessions.get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, id, err)
		return nil
	}
	return sess
}

// handleSessionDelta serves POST /session/{id}/delta: apply the edits to
// the persistent graph and report the changed cone. The per-session lock
// is taken inside the admitted job, so concurrent deltas to one session
// serialize while the admission/deadline/drain contracts stay uniform.
// Durable sessions acknowledge a delta only after its journal frame is
// fsynced; the applied prefix of a mid-delta failure is journaled too, so
// a restart replays to exactly the live (rolled-back) state.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	id := httpmw.RequestID(r.Context())
	var req SessionDeltaRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	if len(req.Assign) == 0 && len(req.Retract) == 0 && req.SetPI == nil && req.SwapGate == nil {
		writeError(w, http.StatusBadRequest, id,
			fmt.Errorf("empty delta: want assign/retract, set_pi or swap_gate"))
		return
	}
	var setPI *sessionlog.PIRecord
	if req.SetPI != nil {
		setPI = &sessionlog.PIRecord{
			Net:          req.SetPI.Net,
			ArrivalEarly: req.SetPI.ArrivalEarly,
			ArrivalLate:  req.SetPI.ArrivalLate,
			TransShort:   req.SetPI.TransShort,
			TransLong:    req.SetPI.TransLong,
		}
	}
	var swap *sessionlog.SwapRecord
	if req.SwapGate != nil {
		swap = &sessionlog.SwapRecord{Net: req.SwapGate.Net, Kind: req.SwapGate.Kind}
	}
	ops, err := parseDeltaOps(req.Assign, req.Retract, setPI, swap)
	if err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	sess := s.lookupSession(w, r, id)
	if sess == nil {
		return
	}
	ctx, cancel := s.withDeadline(r, req.TimeoutMs)
	defer cancel()

	start := time.Now()
	var resp *SessionDeltaResponse
	err = s.submit(ctx, func(ctx context.Context) error {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		g := sess.graph
		applied, changed, applyErr := applyDelta(ctx, g, ops)
		if applyErr == nil {
			applied.Edit = sess.edits.Add(1)
		}
		if err := s.journalDelta(sess, &applied); err != nil {
			return err
		}
		if applyErr != nil {
			return applyErr
		}
		s.maybeCompact(sess)
		resp = &SessionDeltaResponse{
			RequestID:   id,
			SessionID:   sess.id,
			Edit:        applied.Edit,
			Cube:        g.RawCube().String(),
			Changed:     len(changed),
			ChangedNets: changed,
		}
		if req.Windows {
			resp.Lines = make(map[string]RefineLineJSON, len(changed))
			for _, net := range changed {
				if li, ok := g.Line(net); ok {
					resp.Lines[net] = lineJSON(li)
				}
			}
		}
		return nil
	})
	if err != nil {
		s.respondJobError(w, id, err)
		return
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	httpmw.WriteJSON(w, http.StatusOK, resp)
}

// handleSessionWindows serves GET /session/{id}/windows: the session's
// current line windows, optionally filtered with ?nets=a,b,c. A graph left
// poisoned by a failed delta is healed (full reconverge) first, so a
// successful read is always byte-identical to a from-scratch analysis of
// the session's current cube.
func (s *Server) handleSessionWindows(w http.ResponseWriter, r *http.Request) {
	id := httpmw.RequestID(r.Context())
	sess := s.lookupSession(w, r, id)
	if sess == nil {
		return
	}
	var filter map[string]bool
	if q := r.URL.Query().Get("nets"); q != "" {
		filter = make(map[string]bool)
		for _, net := range strings.Split(q, ",") {
			filter[strings.TrimSpace(net)] = true
		}
	}
	ctx, cancel := s.withDeadline(r, 0)
	defer cancel()

	start := time.Now()
	var resp *SessionWindowsResponse
	err := s.submit(ctx, func(ctx context.Context) error {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		g := sess.graph
		healed := false
		if g.Poisoned() {
			if err := g.Heal(ctx); err != nil {
				return err
			}
			healed = true
		}
		lines := make(map[string]RefineLineJSON)
		g.Lines(func(net string, li twindow.LineInfo) {
			if filter != nil && !filter[net] {
				return
			}
			lines[net] = lineJSON(li)
		})
		resp = &SessionWindowsResponse{
			RequestID: id,
			SessionID: sess.id,
			Circuit:   circuitJSON(sess.circuit),
			Cube:      g.RawCube().String(),
			Healed:    healed,
			Lines:     lines,
		}
		return nil
	})
	if err != nil {
		s.respondJobError(w, id, err)
		return
	}
	resp.ElapsedMs = float64(time.Since(start)) / float64(time.Millisecond)
	httpmw.WriteJSON(w, http.StatusOK, resp)
}

// handleSessionDelete serves DELETE /session/{id}. Deletion frees
// resources, so it is allowed even while draining; a delta already holding
// the session completes against its live pointer. The journal is retired
// atomically (rename then remove), so a crash mid-delete never resurrects
// the session half-way.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := httpmw.RequestID(r.Context())
	sid := r.PathValue("id")
	sess, err := s.sessions.remove(sid)
	if err != nil {
		writeError(w, http.StatusNotFound, id, err)
		return
	}
	sess.retireLog()
	httpmw.WriteJSON(w, http.StatusOK, &SessionDeleteResponse{RequestID: id, SessionID: sid, Deleted: true})
}
