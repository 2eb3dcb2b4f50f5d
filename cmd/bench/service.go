// Service-layer sustained-load benchmark: boots an in-process timingd
// (internal/service) behind httptest, drives it with concurrent HTTP
// clients, and records sustained QPS and tail latency for two scenarios —
// cold cache vs hot cache on the same circuit. The hot/cold ratio is the
// content-addressed cache's headline number and is gated (>= 5x) in full
// runs by validate.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sstiming/internal/core"
	"sstiming/internal/engine"
	"sstiming/internal/netlist"
	"sstiming/internal/service"
)

// ServiceScenario is one sustained load point against an in-process timingd.
type ServiceScenario struct {
	Name       string  `json:"name"`
	Circuit    string  `json:"circuit"`
	Gates      int     `json:"gates"`
	Clients    int     `json:"clients"`
	Requests   int     `json:"requests"`
	DurationMs float64 `json:"duration_ms"`
	QPS        float64 `json:"qps"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	CacheHits  int64   `json:"cache_hits"`
}

// ServiceBench is the daemon throughput section of the report.
type ServiceBench struct {
	Scenarios   []ServiceScenario `json:"scenarios"`
	HotOverCold float64           `json:"hot_over_cold"`
}

// runServiceScenario boots a fresh daemon with the given options, posts the
// circuit `requests` times from `clients` concurrent connections (after
// `warmup` untimed requests that heat connections and, when caching is on,
// populate the cache), and returns the measured load point.
func runServiceScenario(name string, c *netlist.Circuit, lib *core.Library,
	opts service.Options, clients, requests, warmup int) (ServiceScenario, error) {
	met := engine.NewMetrics()
	opts.Lib = lib
	opts.Metrics = met
	srv, err := service.New(opts)
	if err != nil {
		return ServiceScenario{}, fmt.Errorf("%s: %w", name, err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	var w strings.Builder
	if err := c.Write(&w); err != nil {
		return ServiceScenario{}, fmt.Errorf("%s: write %s: %w", name, c.Name, err)
	}
	body, err := json.Marshal(map[string]any{"netlist": w.String()})
	if err != nil {
		return ServiceScenario{}, err
	}

	// The default transport idles only 2 connections per host; sustained
	// many-client load through it measures dialer churn, not the daemon.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients * 2,
		MaxIdleConnsPerHost: clients * 2,
	}}
	defer client.CloseIdleConnections()
	post := func() (time.Duration, error) {
		start := time.Now()
		resp, err := client.Post(hs.URL+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("%s: /analyze answered %d", name, resp.StatusCode)
		}
		return time.Since(start), nil
	}
	for i := 0; i < warmup; i++ {
		if _, err := post(); err != nil {
			return ServiceScenario{}, fmt.Errorf("warmup %w", err)
		}
	}

	lat := make([]time.Duration, requests)
	var next atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(requests) {
					return
				}
				d, err := post()
				if err != nil {
					errs <- err
					return
				}
				lat[i] = d
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(begin)
	close(errs)
	if err := <-errs; err != nil {
		return ServiceScenario{}, err
	}

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(p float64) time.Duration { return lat[int(p*float64(len(lat)-1))] }
	return ServiceScenario{
		Name:       name,
		Circuit:    c.Name,
		Gates:      c.NumGates(),
		Clients:    clients,
		Requests:   requests,
		DurationMs: ms(elapsed),
		QPS:        float64(requests) / elapsed.Seconds(),
		P50Ms:      ms(pct(0.50)),
		P99Ms:      ms(pct(0.99)),
		CacheHits:  met.Get(engine.CacheHits),
	}, nil
}

// benchService measures the two daemon scenarios on a mid-size circuit
// where an engine run costs real milliseconds.
func benchService(lib *core.Library, jobs int, smoke bool) (ServiceBench, error) {
	name := "c432"
	clients, coldReqs, hotReqs := 8, 64, 2000
	if smoke {
		name = "c17"
		clients, coldReqs, hotReqs = 4, 8, 32
	}
	circ := mustCircuit(name)

	cold, err := runServiceScenario("cold-cache", circ, lib,
		service.Options{Workers: jobs}, clients, coldReqs, 1)
	if err != nil {
		return ServiceBench{}, err
	}
	hot, err := runServiceScenario("hot-cache", circ, lib,
		service.Options{Workers: jobs, CacheEntries: 512, CacheBytes: 64 << 20},
		clients, hotReqs, 1)
	if err != nil {
		return ServiceBench{}, err
	}

	sb := ServiceBench{Scenarios: []ServiceScenario{cold, hot}}
	if cold.QPS > 0 {
		sb.HotOverCold = hot.QPS / cold.QPS
	}
	return sb, nil
}
