package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/prechar"
)

// newTestServer builds a Server on the embedded library plus an HTTP
// front end, both torn down at test end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Lib == nil {
		opts.Lib = prechar.MustLibrary()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return s, hs
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func getURL(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func benchText(t *testing.T, c *netlist.Circuit) string {
	t.Helper()
	var b bytes.Buffer
	if err := c.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestAnalyzeBench(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /analyze = %d, want 200: %s", resp.StatusCode, raw)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatalf("response is not valid JSON: %v", err)
	}
	if ar.Circuit.Gates != 6 || ar.Circuit.PIs != 5 || ar.Circuit.POs != 2 {
		t.Errorf("circuit summary %+v does not match c17", ar.Circuit)
	}
	if ar.MinPOArrival <= 0 || ar.MaxPOArrival < ar.MinPOArrival {
		t.Errorf("arrival bounds not sane: min %g, max %g", ar.MinPOArrival, ar.MaxPOArrival)
	}
	if ar.CriticalPath == "" {
		t.Error("critical path missing")
	}
	if ar.RequestID == "" {
		t.Error("request_id missing from response body")
	}
	if hdr := resp.Header.Get("X-Request-Id"); hdr != ar.RequestID {
		t.Errorf("X-Request-Id header %q != body request_id %q", hdr, ar.RequestID)
	}
}

func TestAnalyzeVerilog(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	var v bytes.Buffer
	if err := benchgen.C17().WriteVerilog(&v); err != nil {
		t.Fatal(err)
	}
	resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": v.String(),
		"format":  "verilog",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /analyze (verilog) = %d, want 200: %s", resp.StatusCode, raw)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Circuit.Gates != 6 {
		t.Errorf("verilog c17 parsed to %d gates, want 6", ar.Circuit.Gates)
	}
}

func TestAnalyzeWindowsAndModes(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	src := benchText(t, benchgen.C17())
	for _, mode := range []string{"proposed", "pin-to-pin"} {
		resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
			"netlist": src, "mode": mode, "windows": true,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mode %q: status %d: %s", mode, resp.StatusCode, raw)
		}
		var ar AnalyzeResponse
		if err := json.Unmarshal(raw, &ar); err != nil {
			t.Fatal(err)
		}
		if len(ar.Lines) == 0 {
			t.Errorf("mode %q: windows requested but lines missing", mode)
		}
		for net, dirs := range ar.Lines {
			if _, ok := dirs["rise"]; !ok {
				t.Errorf("mode %q: line %q has no rise window", mode, net)
			}
			break
		}
	}
}

func TestRefine(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, raw := postJSON(t, hs.URL+"/refine", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
		"cube":    map[string]string{"1": "01", "2": "11"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /refine = %d, want 200: %s", resp.StatusCode, raw)
	}
	var rr RefineResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Lines) == 0 {
		t.Error("refined response has no lines")
	}
	if _, ok := rr.Lines["22"]; !ok {
		t.Error("refined response misses output net 22")
	}
}

func TestRefineNetsFilter(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	resp, raw := postJSON(t, hs.URL+"/refine", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
		"cube":    map[string]string{"1": "01"},
		"nets":    []string{"22", "23"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /refine = %d, want 200: %s", resp.StatusCode, raw)
	}
	var rr RefineResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Lines) != 2 {
		t.Errorf("nets filter reported %d lines, want 2: %v", len(rr.Lines), rr.Lines)
	}
}

func TestBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	src := benchText(t, benchgen.C17())

	cases := []struct {
		name   string
		url    string
		body   string
		status int
		kind   string
	}{
		{"malformed json", "/analyze", "{not json", http.StatusBadRequest, "bad-request"},
		{"unknown mode", "/analyze", `{"netlist":"INPUT(a)","mode":"psychic"}`, http.StatusBadRequest, "bad-request"},
		{"unknown format", "/analyze", `{"netlist":"x","format":"edif"}`, http.StatusUnprocessableEntity, "bad-request"},
		{"unparsable netlist", "/analyze", `{"netlist":"OUTPUT(z)\nz = FROB(a)"}`, http.StatusUnprocessableEntity, "bad-request"},
		{"bad cube frame", "/refine", `{"netlist":` + mustQuote(src) + `,"cube":{"1":"2x"}}`, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(hs.URL+tc.url, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var ej ErrorJSON
			if err := json.Unmarshal(raw, &ej); err != nil {
				t.Fatalf("error payload is not JSON: %v (%s)", err, raw)
			}
			if ej.Kind != tc.kind {
				t.Errorf("kind %q, want %q", ej.Kind, tc.kind)
			}
		})
	}

	// Wrong method is refused by the router.
	resp, _ := getURL(t, hs.URL+"/analyze")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze = %d, want 405", resp.StatusCode)
	}
}

func mustQuote(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

func TestGateBudgetRejectsOversizedNetlist(t *testing.T) {
	_, hs := newTestServer(t, Options{MaxGates: 3})
	resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()), // 6 gates > cap 3
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), "admission limit") {
		t.Errorf("error does not name the admission limit: %s", raw)
	}
}

func TestShedLoadWhenQueueFull(t *testing.T) {
	// One worker, no waiting room: a single in-flight job saturates
	// admission and the next request must be shed immediately.
	s, hs := newTestServer(t, Options{Workers: 1, QueueDepth: -1})
	gate := make(chan struct{})
	jobErr := make(chan error, 1)
	go func() {
		jobErr <- s.submit(context.Background(), func(context.Context) error {
			<-gate
			return nil
		})
	}()
	waitFor(t, "blocker job admitted", func() bool { return s.queue.Inflight() == 1 })

	resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 is missing Retry-After")
	}
	var ej ErrorJSON
	if err := json.Unmarshal(raw, &ej); err != nil {
		t.Fatal(err)
	}
	if ej.Kind != "shed" {
		t.Errorf("kind %q, want \"shed\"", ej.Kind)
	}
	if got := s.Metrics().Get(engine.SvcShed); got == 0 {
		t.Error("SvcShed counter not incremented")
	}

	close(gate)
	if err := <-jobErr; err != nil {
		t.Fatalf("blocker job failed: %v", err)
	}
	waitFor(t, "queue to empty", func() bool { return s.queue.Inflight() == 0 })

	// Capacity freed: the identical request now succeeds.
	resp, raw = postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: status %d, want 200: %s", resp.StatusCode, raw)
	}
}

// TestQueueSaturation: with W workers and a 3W waiting room, 4W blocking
// jobs fill admission exactly — W run, 3W wait — the next one is shed, and
// no more than W ever run at once while the backlog drains.
func TestQueueSaturation(t *testing.T) {
	const workers = 3
	const admitted = 4 * workers
	s, _ := newTestServer(t, Options{Workers: workers, QueueDepth: 3 * workers})
	gate := make(chan struct{})
	var cur, peak atomic.Int64
	job := func(context.Context) error {
		c := cur.Add(1)
		for {
			pk := peak.Load()
			if c <= pk || peak.CompareAndSwap(pk, c) {
				break
			}
		}
		<-gate
		cur.Add(-1)
		return nil
	}
	errs := make(chan error, admitted)
	for i := 0; i < admitted; i++ {
		go func() { errs <- s.submit(context.Background(), job) }()
	}
	waitFor(t, "every job admitted and W running", func() bool {
		return s.queue.Inflight() == admitted && cur.Load() == workers
	})
	if err := s.submit(context.Background(), job); !errors.Is(err, ErrShedLoad) {
		t.Fatalf("job %d: err = %v, want ErrShedLoad", admitted+1, err)
	}

	close(gate)
	for i := 0; i < admitted; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("admitted job failed: %v", err)
		}
	}
	if pk := peak.Load(); pk != workers {
		t.Fatalf("peak concurrency %d, want exactly %d", pk, workers)
	}
}

func TestJobPanicContainedAndDaemonKeepsServing(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	err := s.submit(context.Background(), func(context.Context) error {
		panic("kaboom")
	})
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("panicking job returned %v, want *engine.PanicError in the chain", err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("PanicError.Value = %v, want \"kaboom\"", pe.Value)
	}
	// The job queue must survive the panic.
	resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("daemon stopped serving after a job panic: %d: %s", resp.StatusCode, raw)
	}
}

func TestHandlerPanicBecomes500(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	h := s.inst.Wrap("healthz", func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var ej ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &ej); err != nil {
		t.Fatalf("panic response is not JSON: %v (%s)", err, rec.Body.String())
	}
	if ej.Kind != "panic" || ej.RequestID == "" {
		t.Errorf("panic payload %+v: want kind \"panic\" and a request ID", ej)
	}
	if strings.Contains(ej.Error, "handler bug") {
		t.Errorf("panic value leaked to the client: %q", ej.Error)
	}
	if got := s.Metrics().Get(engine.SvcPanics); got == 0 {
		t.Error("SvcPanics counter not incremented")
	}
}

func TestHealthzAlwaysOK(t *testing.T) {
	s, hs := newTestServer(t, Options{})
	resp, _ := getURL(t, hs.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d, want 200", resp.StatusCode)
	}
	// Liveness holds even while draining (readiness does not — see
	// drain_test.go).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ = getURL(t, hs.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /healthz while draining = %d, want 200", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, hs := newTestServer(t, Options{})
	if resp, raw := postJSON(t, hs.URL+"/analyze", map[string]any{
		"netlist": benchText(t, benchgen.C17()),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up analyze failed: %d: %s", resp.StatusCode, raw)
	}
	resp, raw := getURL(t, hs.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	text := string(raw)
	for _, want := range []string{
		"service/requests",
		`service/latency{endpoint="analyze"`,
		`service/latency_count{endpoint="analyze"}`,
		"service/inflight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics output misses %q:\n%s", want, text)
		}
	}
}

func TestHeaderTimeoutApplies(t *testing.T) {
	// X-Timeout-Ms is honoured when the JSON body sets no deadline.
	_, hs := newTestServer(t, Options{})
	body, _ := json.Marshal(map[string]any{"netlist": benchText(t, benchgen.C17())})
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Timeout-Ms", "30000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %s", resp.StatusCode, raw)
	}
}
