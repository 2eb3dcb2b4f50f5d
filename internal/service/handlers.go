package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"sstiming/internal/engine"
	"sstiming/internal/httpmw"
	"sstiming/internal/netlist"
	"sstiming/internal/nineval"
	"sstiming/internal/reqcache"
	"sstiming/internal/sta"
)

// CircuitJSON summarises the posted netlist.
type CircuitJSON struct {
	Name  string `json:"name"`
	PIs   int    `json:"pis"`
	POs   int    `json:"pos"`
	Gates int    `json:"gates"`
	Depth int    `json:"depth"`
}

// WindowJSON is one directional min-max timing window, in seconds.
type WindowJSON struct {
	AS float64 `json:"as"`
	AL float64 `json:"al"`
	TS float64 `json:"ts"`
	TL float64 `json:"tl"`
}

func windowJSON(w sta.Window) WindowJSON { return WindowJSON{AS: w.AS, AL: w.AL, TS: w.TS, TL: w.TL} }

// ErrorJSON is the uniform error payload (see httpmw.ErrorJSON).
type ErrorJSON = httpmw.ErrorJSON

// AnalyzeRequest is the POST /analyze body.
type AnalyzeRequest struct {
	// Netlist is the circuit source text.
	Netlist string `json:"netlist"`
	// Format is "bench" (default) or "verilog".
	Format string `json:"format"`
	// Mode is "proposed" (default) or "pin-to-pin".
	Mode string `json:"mode"`
	// NCExtension enables the Λ-shape to-non-controlling extension.
	NCExtension bool `json:"nc_extension"`
	// Windows includes every line's windows in the response.
	Windows bool `json:"windows"`
	// TimeoutMs is the per-request deadline in milliseconds (0 = server
	// default).
	TimeoutMs int `json:"timeout_ms"`
}

// AnalyzeResponse is the POST /analyze result.
type AnalyzeResponse struct {
	RequestID    string                           `json:"request_id"`
	Circuit      CircuitJSON                      `json:"circuit"`
	Mode         string                           `json:"mode"`
	MinPOArrival float64                          `json:"min_po_arrival_s"`
	MaxPOArrival float64                          `json:"max_po_arrival_s"`
	CriticalPath string                           `json:"critical_path,omitempty"`
	Lines        map[string]map[string]WindowJSON `json:"lines,omitempty"`
	ElapsedMs    float64                          `json:"elapsed_ms"`
}

// RefineRequest is the POST /refine body.
type RefineRequest struct {
	Netlist string `json:"netlist"`
	Format  string `json:"format"`
	Mode    string `json:"mode"`
	// Cube maps net name to a two-frame value like "01", "1x", "x0".
	Cube        map[string]string `json:"cube"`
	NCExtension bool              `json:"nc_extension"`
	// Nets filters the reported lines; empty reports all of them.
	Nets      []string `json:"nets"`
	TimeoutMs int      `json:"timeout_ms"`
}

// RefineLineJSON is one refined line: implied value, transition states and
// the windows that remain defined.
type RefineLineJSON struct {
	Value string      `json:"value"`
	SRise string      `json:"s_rise"`
	SFall string      `json:"s_fall"`
	Rise  *WindowJSON `json:"rise,omitempty"`
	Fall  *WindowJSON `json:"fall,omitempty"`
}

// RefineResponse is the POST /refine result.
type RefineResponse struct {
	RequestID string                    `json:"request_id"`
	Circuit   CircuitJSON               `json:"circuit"`
	Cube      string                    `json:"cube"`
	Lines     map[string]RefineLineJSON `json:"lines"`
	ElapsedMs float64                   `json:"elapsed_ms"`
}

// readJSON decodes the request body with a size cap.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, into any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	return nil
}

func writeError(w http.ResponseWriter, status int, requestID string, err error) {
	httpmw.WriteJSON(w, status, ErrorJSON{RequestID: requestID, Error: err.Error(), Kind: errorKind(err)})
}

// errorKind classifies an error for the JSON payload.
func errorKind(err error) string {
	var pe *engine.PanicError
	switch {
	case errors.Is(err, engine.ErrCancelled):
		return "cancelled"
	case errors.Is(err, ErrShedLoad):
		return "shed"
	case errors.Is(err, ErrDraining):
		return "draining"
	case errors.Is(err, ErrSessionNotFound):
		return "not-found"
	case errors.Is(err, ErrSessionDurability):
		return "internal"
	case errors.As(err, &pe):
		return "panic"
	default:
		return "bad-request"
	}
}

// respondJobError maps a job error to its HTTP status and writes it. The
// mapping is the service's robustness contract:
//
//	deadline / cancel  -> 504 (engine.ErrCancelled in the chain)
//	queue full         -> 429 + Retry-After
//	draining           -> 503 (ErrDraining)
//	job panic          -> 500 (contained; the daemon keeps serving)
//	journal write lost -> 500 (the delta was applied but never made
//	                          durable; the session is dropped and a
//	                          restart recovers its last durable state)
//	anything else      -> 422 (the posted netlist/cube was analysable but
//	                          rejected by the engine)
func (s *Server) respondJobError(w http.ResponseWriter, id string, err error) {
	var pe *engine.PanicError
	switch {
	case errors.Is(err, engine.ErrCancelled):
		s.met.Add(engine.SvcTimeouts, 1)
		writeError(w, http.StatusGatewayTimeout, id, err)
	case errors.Is(err, ErrSessionDurability):
		writeError(w, http.StatusInternalServerError, id, err)
	case errors.Is(err, ErrShedLoad):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, id, err)
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, id, err)
	case errors.As(err, &pe):
		s.met.Add(engine.SvcPanics, 1)
		// The stack stays in the job error (operator-side); clients get
		// the request ID to correlate.
		writeError(w, http.StatusInternalServerError, id,
			fmt.Errorf("internal error while running the job (request %s)", id))
	default:
		writeError(w, http.StatusUnprocessableEntity, id, err)
	}
}

// withDeadline derives the request's working context: an explicit
// per-request timeout (JSON timeout_ms or X-Timeout-Ms header, the JSON
// field winning) overrides the server default; zero/negative means "no
// deadline beyond the client connection".
func (s *Server) withDeadline(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	return httpmw.RequestDeadline(r, s.opts.DefaultTimeout, timeoutMs)
}

// parseCircuit builds the posted netlist ("bench" or "verilog" format).
func parseCircuit(src, format string) (*netlist.Circuit, error) {
	switch strings.ToLower(format) {
	case "", "bench":
		return netlist.Parse("request", strings.NewReader(src))
	case "verilog", "v":
		return netlist.ParseVerilog("request", strings.NewReader(src))
	default:
		return nil, fmt.Errorf("unknown netlist format %q (want \"bench\" or \"verilog\")", format)
	}
}

func parseMode(mode string) (sta.Mode, error) {
	switch strings.ToLower(mode) {
	case "", "proposed":
		return sta.ModeProposed, nil
	case "pin-to-pin", "pintopin", "conventional":
		return sta.ModePinToPin, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want \"proposed\" or \"pin-to-pin\")", mode)
	}
}

// parseCube converts the JSON cube into a nineval.Cube.
func parseCube(m map[string]string) (nineval.Cube, error) {
	cube := nineval.Cube{}
	for net, s := range m {
		if len(s) != 2 {
			return nil, fmt.Errorf("cube value for %q must be two frames of [01x], got %q", net, s)
		}
		f := [2]nineval.Frame{}
		for i := 0; i < 2; i++ {
			switch s[i] {
			case '0':
				f[i] = nineval.F0
			case '1':
				f[i] = nineval.F1
			case 'x', 'X':
				f[i] = nineval.FX
			default:
				return nil, fmt.Errorf("cube value for %q must be two frames of [01x], got %q", net, s)
			}
		}
		cube[net] = nineval.Value{V1: f[0], V2: f[1]}
	}
	return cube, nil
}

func circuitJSON(c *netlist.Circuit) CircuitJSON {
	st := c.Stats()
	return CircuitJSON{Name: st.Name, PIs: st.PIs, POs: st.POs, Gates: st.Gates, Depth: st.Depth}
}

// checkGateBudget enforces the admission-control size cap on posted
// netlists.
func (s *Server) checkGateBudget(c *netlist.Circuit) error {
	if s.opts.MaxGates > 0 && c.NumGates() > s.opts.MaxGates {
		return fmt.Errorf("netlist has %d gates, above the server's %d-gate admission limit",
			c.NumGates(), s.opts.MaxGates)
	}
	return nil
}

// cached runs compute through the content-addressed cache when enabled;
// without a cache every call is its own cold run.
func (s *Server) cached(ctx context.Context, key reqcache.Key, fp string,
	compute func(ctx context.Context) (any, int64, error)) (any, reqcache.Status, error) {
	if s.cache == nil {
		v, _, err := compute(ctx)
		return v, reqcache.Miss, err
	}
	return s.cache.Do(ctx, key, fp, compute)
}

// asJobError normalizes raw context errors surfacing from the cache layer
// (a singleflight follower whose deadline fired while waiting) into the
// service taxonomy: a deadline is a 504 no matter which layer noticed it
// first.
func asJobError(err error) error {
	if err == nil || errors.Is(err, engine.ErrCancelled) {
		return err
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return engine.Cancelled(err)
	}
	return err
}

// respSize is a response's cache byte-accounting weight: its JSON encoding
// size.
func respSize(v any) int64 {
	b, err := json.Marshal(v)
	if err != nil {
		return 0
	}
	return int64(len(b))
}

// boolPart renders a boolean option as a cache-key part.
func boolPart(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// identified is a cacheable response whose identity fields (request_id,
// elapsed_ms) stay zero in the cached value; every response re-stamps its
// own copy.
type identified interface {
	// withIdentity returns a shallow copy carrying one request's identity.
	withIdentity(id string, elapsedMs float64) any
}

func (r AnalyzeResponse) withIdentity(id string, elapsedMs float64) any {
	r.RequestID, r.ElapsedMs = id, elapsedMs
	return &r
}

func (r RefineResponse) withIdentity(id string, elapsedMs float64) any {
	r.RequestID, r.ElapsedMs = id, elapsedMs
	return &r
}

// addressed is one content-addressed request, as an endpoint hands it to
// serveAddressed.
type addressed struct {
	// endpoint names the two key schemas, <endpoint>-raw/1 and
	// <endpoint>/1.
	endpoint string
	// fp is the serving library's fingerprint, the first key part.
	fp string
	// parts are the response-relevant options, in both addresses.
	parts []string
	// netlist and format are the posted circuit: raw bytes in the raw
	// address, parsed and canonicalised in the other.
	netlist, format string
	timeoutMs       int
	// run computes the response on a canonical miss, inside the job queue.
	run func(ctx context.Context, c *netlist.Circuit) (identified, error)
}

// serveAddressed is the content-addressed flow /analyze and /refine share.
// The address has two levels. First the raw level: a byte-identical re-post
// answers from the alias map without ever parsing the netlist, which on
// small circuits costs as much as the analysis itself. Only on a raw miss
// is the netlist parsed and size-checked (bad input never consumes a cache
// flight or a queue slot) and addressed canonically under the serving
// library's fingerprint; only a canonical miss runs the engine, through
// admission control. The X-Cache header reports hit/miss/coalesced; a
// cached response is byte-identical to the cold run modulo the re-stamped
// request_id and elapsed_ms.
func (s *Server) serveAddressed(w http.ResponseWriter, r *http.Request, start time.Time, a addressed) {
	id := httpmw.RequestID(r.Context())
	address := func(schema string, tail ...string) reqcache.Key {
		return reqcache.KeyFrom(slices.Concat([]string{schema, a.fp}, a.parts, tail)...)
	}
	// Format is part of the raw address (it changes how the same bytes
	// parse) but not the canonical one (parsing normalizes it away).
	raw := address(a.endpoint+"-raw/1", strings.ToLower(a.format), a.netlist)
	respond := func(v any, status reqcache.Status) {
		w.Header().Set("X-Cache", status.String())
		httpmw.WriteJSON(w, http.StatusOK, v.(identified).withIdentity(id, float64(time.Since(start))/float64(time.Millisecond)))
	}
	if s.cache != nil {
		if v, ok := s.cache.GetVia(raw); ok {
			respond(v, reqcache.Hit)
			return
		}
	}
	c, err := parseCircuit(a.netlist, a.format)
	if err == nil {
		err = s.checkGateBudget(c)
	}
	if err != nil {
		s.respondJobError(w, id, err)
		return
	}
	ctx, cancel := s.withDeadline(r, a.timeoutMs)
	defer cancel()

	key := address(a.endpoint+"/1", string(reqcache.CanonicalNetlist(c)))
	val, status, err := s.cached(ctx, key, a.fp, func(ctx context.Context) (any, int64, error) {
		var out identified
		err := s.submit(ctx, func(ctx context.Context) (err error) {
			out, err = a.run(ctx, c)
			return err
		})
		if err != nil {
			return nil, 0, err
		}
		return out, respSize(out), nil
	})
	if err != nil {
		s.respondJobError(w, id, asJobError(err))
		return
	}
	if s.cache != nil {
		s.cache.SetAlias(raw, key)
	}
	respond(val, status)
}

// handleAnalyze serves POST /analyze: one STA job, content-addressed (see
// serveAddressed) by the canonical netlist, the mode and the options.
func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	id := httpmw.RequestID(r.Context())
	start := time.Now()
	var req AnalyzeRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	ls := s.libstate()
	s.serveAddressed(w, r, start, addressed{
		endpoint: "analyze", fp: ls.fp,
		parts:   []string{mode.String(), boolPart(req.NCExtension), boolPart(req.Windows)},
		netlist: req.Netlist, format: req.Format, timeoutMs: req.TimeoutMs,
		run: func(ctx context.Context, c *netlist.Circuit) (identified, error) {
			res, err := sta.Analyze(c, sta.Options{
				Lib:         ls.lib,
				Mode:        mode,
				NCExtension: req.NCExtension,
				Ctx:         ctx,
				Metrics:     s.met,
			})
			if err != nil {
				return nil, err
			}
			out := &AnalyzeResponse{
				Circuit:      circuitJSON(c),
				Mode:         mode.String(),
				MinPOArrival: res.MinPOArrival(),
				MaxPOArrival: res.MaxPOArrival(),
			}
			if path, err := res.WorstPath(); err == nil {
				out.CriticalPath = sta.FormatPath(path)
			}
			if req.Windows {
				out.Lines = make(map[string]map[string]WindowJSON, len(res.Lines))
				for net, lt := range res.Lines {
					out.Lines[net] = map[string]WindowJSON{
						"rise": windowJSON(lt.Rise),
						"fall": windowJSON(lt.Fall),
					}
				}
			}
			return out, nil
		},
	})
}

// handleRefine serves POST /refine: one ITR job, content-addressed like
// /analyze, with the canonical cube and net filter added to both
// addresses.
func (s *Server) handleRefine(w http.ResponseWriter, r *http.Request) {
	id := httpmw.RequestID(r.Context())
	start := time.Now()
	var req RefineRequest
	if err := s.readJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	// A cube that parses cannot have been cached, so checking it before
	// the raw lookup changes no answer; it costs a handful of nets.
	cube, err := parseCube(req.Cube)
	if err != nil {
		writeError(w, http.StatusBadRequest, id, err)
		return
	}
	// parseCube accepts 'x' and 'X' alike; fold case so both spellings
	// share an address.
	cubeKey := make(map[string]string, len(req.Cube))
	for net, v := range req.Cube {
		cubeKey[net] = strings.ToLower(v)
	}
	ls := s.libstate()
	s.serveAddressed(w, r, start, addressed{
		endpoint: "refine", fp: ls.fp,
		parts: []string{mode.String(), boolPart(req.NCExtension),
			reqcache.CanonicalCube(cubeKey), reqcache.CanonicalNets(req.Nets)},
		netlist: req.Netlist, format: req.Format, timeoutMs: req.TimeoutMs,
		run: func(ctx context.Context, c *netlist.Circuit) (identified, error) {
			res, err := sta.Refine(c, cube, sta.Options{
				Lib:         ls.lib,
				Mode:        mode,
				NCExtension: req.NCExtension,
				Ctx:         ctx,
				Metrics:     s.met,
			})
			if err != nil {
				return nil, err
			}
			keep := func(string) bool { return true }
			if len(req.Nets) > 0 {
				set := make(map[string]bool, len(req.Nets))
				for _, n := range req.Nets {
					set[n] = true
				}
				keep = func(net string) bool { return set[net] }
			}
			lines := make(map[string]RefineLineJSON)
			for net, li := range res.Lines {
				if keep(net) {
					lines[net] = lineJSON(*li)
				}
			}
			return &RefineResponse{Circuit: circuitJSON(c), Cube: res.Cube.String(), Lines: lines}, nil
		},
	})
}

// ReloadResponse is the POST /reload result.
type ReloadResponse struct {
	RequestID string `json:"request_id"`
	Reloaded  bool   `json:"reloaded"`
	Tech      string `json:"tech"`
	Cells     int    `json:"cells"`
}

// handleReload serves POST /reload: hot-swaps the serving library through
// the configured loader. A refused reload leaves the previous library
// serving untouched: 409 when the fresh library's technology tag
// differs from the serving one, 422 when it fails to load or verify, 503
// while draining.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	id := httpmw.RequestID(r.Context())
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, id, ErrDraining)
		return
	}
	fresh, err := s.Reload()
	if err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, ErrTechMismatch) {
			status = http.StatusConflict
		}
		writeError(w, status, id, err)
		return
	}
	httpmw.WriteJSON(w, http.StatusOK, &ReloadResponse{
		RequestID: id,
		Reloaded:  true,
		Tech:      fresh.TechName,
		Cells:     len(fresh.Cells),
	})
}

// handleHealthz serves GET /healthz: liveness only — 200 while the process
// can answer HTTP at all, even while draining.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	httpmw.WriteJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

// handleReadyz serves GET /readyz: readiness for new work. It fails (503)
// while draining — before in-flight jobs finish, so load balancers stop
// routing first — and while the library is missing.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	lib := s.library()
	ready := !s.draining.Load() && lib != nil
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if lib == nil {
		reasons = append(reasons, "library not loaded")
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	httpmw.WriteJSON(w, status, map[string]any{
		"ready":    ready,
		"reasons":  reasons,
		"inflight": s.queue.Inflight(),
	})
}

// handleMetrics serves GET /metrics: the engine counter/timer sink plus the
// per-endpoint latency histograms, as plain text.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = s.met.WriteText(w)
	s.inst.WriteLatencies(w)
	fmt.Fprintf(w, "service/inflight %d\n", s.queue.Inflight())
	if s.cache != nil {
		fmt.Fprintf(w, "service/cache_entries %d\n", s.cache.Len())
		fmt.Fprintf(w, "service/cache_bytes %d\n", s.cache.Bytes())
		fmt.Fprintf(w, "service/cache_aliases %d\n", s.cache.AliasLen())
	}
}
