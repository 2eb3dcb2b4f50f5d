// Command timingd is the timing-analysis service daemon: it loads a
// characterised cell library once and serves STA, ITR and conformance
// spot-check jobs over HTTP/JSON (see internal/service and DESIGN.md §10).
//
// Usage:
//
//	timingd [-addr :8080] [-lib lib.json] [-strict-lib] [-jobs N]
//	        [-queue-depth N] [-timeout 30s] [-drain 15s] [-max-gates N]
//	        [-cache-entries N] [-cache-bytes N] [-cache-max-entry-bytes N]
//	        [-max-sessions N] [-session-ttl 15m]
//	        [-session-dir DIR] [-session-snapshot-every N]
//	        [-session-snapshot-bytes N] [-stats] [-selfcheck]
//
// Endpoints:
//
//	POST /analyze      run STA on a posted netlist
//	POST /refine       run ITR under a partial two-frame cube
//	POST /conformance  run a randomized differential spot check
//	POST /session      build a persistent timing graph (delta-STA session)
//	POST /session/{id}/delta    apply cube/PI/gate edits incrementally
//	GET  /session/{id}/windows  snapshot the session's current windows
//	DELETE /session/{id}        free the session
//	POST /reload       hot-swap the library (re-verified; old one keeps
//	                   serving on failure, 409 on tech-tag mismatch)
//	GET  /healthz      liveness
//	GET  /readyz       readiness (drain state; breaker state is informational)
//	GET  /metrics      engine counters + per-endpoint latency histograms
//
// A -lib file is loaded through the verifying store (internal/store): its
// sidecar manifest is checked, corrupt or missing cells are quarantined and
// served from the closed-form analytic fallback (counted under
// store/quarantined_cells in /metrics). -strict-lib refuses any degraded or
// unverified library instead. SIGHUP reloads the library in place, with the
// same refusal semantics as POST /reload.
//
// -session-dir makes delta-STA sessions durable: every session keeps a
// write-ahead journal under the directory (fsynced before a delta is
// acknowledged) and is rebuilt byte-identically at the next boot, with
// snapshot compaction every -session-snapshot-every deltas (or
// -session-snapshot-bytes journal bytes) bounding replay time. Journals
// that fail replay are quarantined aside with a reason, never wedging
// startup (DESIGN.md §16). Without -session-dir sessions are in-memory
// only and die with the process.
//
// On SIGTERM/SIGINT the daemon drains gracefully: readiness fails first,
// new jobs are refused, in-flight jobs get -drain to finish, then the
// listener closes.
//
// -selfcheck runs the service smoke test instead of serving: bind a random
// loopback port, POST an example netlist, require a 200 STA response and a
// clean drain, exit 0/1. `make service-smoke` uses it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sstiming/internal/benchgen"
	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/prechar"
	"sstiming/internal/service"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	libPath := flag.String("lib", "", "characterised library JSON (default: embedded 0.5um library)")
	jobs := flag.Int("jobs", 0, "concurrent jobs (0 = all CPUs)")
	queueDepth := flag.Int("queue-depth", 0, "queued jobs beyond the running ones before shedding (0 = 2x jobs)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline (0 = none)")
	drain := flag.Duration("drain", 15*time.Second, "graceful drain deadline on SIGTERM")
	maxGates := flag.Int("max-gates", 0, "admission cap on posted netlist size (0 = default, -1 = unlimited)")
	cacheEntries := flag.Int("cache-entries", 512, "content-addressed analysis cache entry cap (0 = caching disabled)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "analysis cache byte budget (0 = no byte bound)")
	cacheMaxEntryBytes := flag.Int64("cache-max-entry-bytes", 4<<20, "per-response cache admission cap: larger responses are served but never cached (0 = no per-entry bound)")
	maxSessions := flag.Int("max-sessions", 0, "live delta-STA sessions before LRU eviction (0 = default 64, -1 = unlimited)")
	sessionTTL := flag.Duration("session-ttl", 0, "idle session expiry (0 = default 15m, negative = never)")
	sessionDir := flag.String("session-dir", "", "directory for durable session journals (empty = in-memory sessions)")
	sessionSnapshotEvery := flag.Int("session-snapshot-every", 0, "deltas between snapshot compactions (0 = default 64, negative = never)")
	sessionSnapshotBytes := flag.Int64("session-snapshot-bytes", 0, "journal bytes triggering snapshot compaction (0 = default 1MiB, negative = never)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "solver failures tripping the circuit breaker (0 = default 5, -1 = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "breaker open duration before a half-open probe (0 = default 10s)")
	strictLib := flag.Bool("strict-lib", false, "refuse degraded or unverified libraries instead of serving analytic fallbacks")
	stats := flag.Bool("stats", false, "dump engine metrics to stderr on exit")
	selfcheck := flag.Bool("selfcheck", false, "run the service smoke test and exit")
	flag.Parse()

	// Metrics exist before the first load so quarantined cells are counted
	// from boot.
	met := engine.NewMetrics()
	// The same loader runs at boot and on every reload.
	loader := func() (*core.Library, error) { return prechar.Load("timingd", *libPath, *strictLib, met) }
	lib, err := loader()
	if err != nil {
		fail(err)
	}
	srv, err := service.New(service.Options{
		Lib:                  lib,
		LibLoader:            loader,
		Workers:              *jobs,
		QueueDepth:           *queueDepth,
		DefaultTimeout:       *timeout,
		MaxGates:             *maxGates,
		CacheEntries:         *cacheEntries,
		CacheBytes:           *cacheBytes,
		CacheMaxEntryBytes:   *cacheMaxEntryBytes,
		MaxSessions:          *maxSessions,
		SessionIdleTTL:       *sessionTTL,
		SessionDir:           *sessionDir,
		SessionSnapshotEvery: *sessionSnapshotEvery,
		SessionSnapshotBytes: *sessionSnapshotBytes,
		Breaker: service.BreakerConfig{
			Threshold: *breakerThreshold,
			Cooldown:  *breakerCooldown,
		},
		Metrics: met,
	})
	if err != nil {
		fail(err)
	}
	if *stats {
		defer met.WriteText(os.Stderr)
	}

	if *selfcheck {
		if err := smoke(srv, *drain); err != nil {
			fail(fmt.Errorf("selfcheck: %w", err))
		}
		fmt.Println("timingd: selfcheck ok")
		return
	}

	// Recover durable sessions before the listener opens, so a client that
	// reconnects immediately after a crash finds its sessions live again.
	if *sessionDir != "" {
		recovered, quarantined, err := srv.RecoverSessions()
		if err != nil {
			fail(fmt.Errorf("session recovery: %w", err))
		}
		fmt.Printf("timingd: recovered %d durable session(s) from %s (%d quarantined)\n",
			recovered, *sessionDir, quarantined)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Printf("timingd: listening on http://%s (%d cells in library)\n",
		ln.Addr(), len(lib.Cells))

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	for {
		select {
		case s := <-sig:
			if s == syscall.SIGHUP {
				// Hot reload: re-verify and swap; on any failure the old
				// library keeps serving.
				if fresh, err := srv.Reload(); err != nil {
					fmt.Fprintf(os.Stderr, "timingd: reload: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "timingd: reloaded library (%d cells, tech %s)\n",
						len(fresh.Cells), fresh.TechName)
				}
				continue
			}
			fmt.Fprintf(os.Stderr, "timingd: %v — draining (deadline %s)\n", s, *drain)
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			// Readiness fails and new jobs are refused first; then wait for
			// in-flight jobs, then for in-flight HTTP exchanges.
			if err := srv.Drain(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "timingd: %v\n", err)
			}
			if err := hs.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "timingd: shutdown: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "timingd: drained cleanly")
			return
		case err := <-errc:
			fail(err)
		}
	}
}

// smoke is the in-process service smoke test behind -selfcheck: real HTTP
// over loopback, an example netlist, a 200 with sane timing numbers, and a
// clean drain.
func smoke(srv *service.Server, drain time.Duration) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	client := &http.Client{Timeout: 30 * time.Second}

	// Readiness must hold before traffic.
	if err := expectStatus(client, base+"/readyz", http.StatusOK); err != nil {
		return err
	}

	// POST the example netlist (the paper's c17) for STA.
	var bench bytes.Buffer
	if err := benchgen.C17().Write(&bench); err != nil {
		return err
	}
	body, _ := json.Marshal(map[string]any{"netlist": bench.String(), "format": "bench"})
	resp, err := client.Post(base+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/analyze returned %d: %s", resp.StatusCode, raw)
	}
	var ar service.AnalyzeResponse
	if err := json.Unmarshal(raw, &ar); err != nil {
		return fmt.Errorf("/analyze response is not valid JSON: %w", err)
	}
	if ar.Circuit.Gates == 0 || ar.MaxPOArrival <= 0 || ar.MinPOArrival > ar.MaxPOArrival {
		return fmt.Errorf("/analyze response is not sane: %s", raw)
	}
	fmt.Printf("timingd: /analyze %s: min %.4g s, max %.4g s (request %s)\n",
		ar.Circuit.Name, ar.MinPOArrival, ar.MaxPOArrival, ar.RequestID)

	// Clean drain: readiness fails, in-flight work finishes, listener closes.
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return err
	}
	if err := expectStatus(client, base+"/readyz", http.StatusServiceUnavailable); err != nil {
		return fmt.Errorf("readiness did not fail after drain: %w", err)
	}
	return hs.Shutdown(ctx)
}

func expectStatus(client *http.Client, url string, want int) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("GET %s returned %d (want %d): %s", url, resp.StatusCode, want, raw)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "timingd:", err)
	os.Exit(1)
}
