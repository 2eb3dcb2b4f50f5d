package httpmw

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sstiming/internal/engine"
)

// TestGateLimitAndRelease: the admission gate admits exactly its limit,
// counts every shed, and a release (even a double one) frees exactly one
// slot.
func TestGateLimitAndRelease(t *testing.T) {
	met := engine.NewMetrics()
	g := NewGate(2, met)

	r1, ok := g.TryAcquire()
	if !ok {
		t.Fatal("first acquire refused")
	}
	r2, ok := g.TryAcquire()
	if !ok {
		t.Fatal("second acquire refused")
	}
	if _, ok := g.TryAcquire(); ok {
		t.Fatal("third acquire admitted beyond the limit")
	}
	if got := met.Get(engine.SvcShed); got != 1 {
		t.Fatalf("SvcShed = %d, want 1", got)
	}

	// Release is idempotent: calling it twice must not free two slots.
	r1()
	r1()
	if _, ok := g.TryAcquire(); !ok {
		t.Fatal("acquire refused after release")
	}
	if _, ok := g.TryAcquire(); ok {
		t.Fatal("double release freed two slots")
	}
	r2()
}

// TestGateUnlimited: a non-positive limit disables shedding entirely.
func TestGateUnlimited(t *testing.T) {
	g := NewGate(-1, nil)
	var releases []func()
	for i := 0; i < 100; i++ {
		r, ok := g.TryAcquire()
		if !ok {
			t.Fatalf("unlimited gate shed at %d", i)
		}
		releases = append(releases, r)
	}
	for _, r := range releases {
		r()
	}
}

// TestGateConcurrentAdmission: under a concurrent burst the gate never
// admits more than its limit simultaneously (exercised by -race).
func TestGateConcurrentAdmission(t *testing.T) {
	g := NewGate(4, nil)
	var inflight, peak, shed struct {
		mu sync.Mutex
		n  int
	}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, ok := g.TryAcquire()
			if !ok {
				shed.mu.Lock()
				shed.n++
				shed.mu.Unlock()
				return
			}
			inflight.mu.Lock()
			inflight.n++
			if inflight.n > peak.n {
				peak.n = inflight.n
			}
			inflight.mu.Unlock()
			inflight.mu.Lock()
			inflight.n--
			inflight.mu.Unlock()
			release()
		}()
	}
	wg.Wait()
	if peak.n > 4 {
		t.Fatalf("gate admitted %d concurrent requests, limit 4", peak.n)
	}
}

// TestInstrumenterWrap: wrapped handlers get request IDs, count requests,
// observe latencies, and contain panics as 500s instead of crashing the
// server.
func TestInstrumenterWrap(t *testing.T) {
	met := engine.NewMetrics()
	in := NewInstrumenter(met, []string{"ok", "boom"})

	okHandler := in.Wrap("ok", func(w http.ResponseWriter, r *http.Request) {
		if RequestID(r.Context()) == "" {
			t.Error("handler ran without a request ID")
		}
		w.WriteHeader(http.StatusOK)
	})
	rec := httptest.NewRecorder()
	okHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/ok", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ok endpoint: HTTP %d", rec.Code)
	}
	if rec.Header().Get("X-Request-Id") == "" {
		t.Fatal("no X-Request-Id header")
	}

	boomHandler := in.Wrap("boom", func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	rec = httptest.NewRecorder()
	boomHandler.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking endpoint: HTTP %d, want 500", rec.Code)
	}
	// The whole 500 body, byte for byte: the panic value stays server-side
	// and the minted request ID is the only variable part.
	boomID := rec.Header().Get("X-Request-Id")
	wantBody := "{\n" +
		"  \"request_id\": \"" + boomID + "\",\n" +
		"  \"error\": \"internal error (request " + boomID + ")\",\n" +
		"  \"kind\": \"panic\"\n" +
		"}\n"
	if got := rec.Body.String(); got != wantBody {
		t.Fatalf("panic body\n  got  %q\n  want %q", got, wantBody)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Fatalf("panic Content-Type %q, want application/json", got)
	}

	if got := met.Get(engine.SvcRequests); got != 2 {
		t.Fatalf("SvcRequests = %d, want 2", got)
	}
	var sb strings.Builder
	in.WriteLatencies(&sb)
	if !strings.Contains(sb.String(), "ok") || !strings.Contains(sb.String(), "boom") {
		t.Fatalf("latency dump missing endpoints:\n%s", sb.String())
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	h := &histogram{}
	for _, d := range []time.Duration{
		500 * time.Microsecond, // le=1ms
		3 * time.Millisecond,   // le=5ms
		4 * time.Millisecond,   // le=5ms
		2 * time.Second,        // le=2.5s
		30 * time.Second,       // +Inf
	} {
		h.observe(d)
	}
	var b bytes.Buffer
	h.writeText(&b, "test")
	out := b.String()
	for _, want := range []string{
		`service/latency{endpoint="test",le="1ms"} 1`,
		`service/latency{endpoint="test",le="5ms"} 3`,
		`service/latency{endpoint="test",le="2.5s"} 4`,
		`service/latency{endpoint="test",le="+Inf"} 5`,
		`service/latency_count{endpoint="test"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("histogram output misses %q:\n%s", want, out)
		}
	}
}
