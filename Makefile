# Standard entry points for the sstiming reproduction. Everything is
# stdlib-only Go; no generated files, no external tools.

GO ?= go

# Total-coverage floor for `make cover`, in percent. Raise it when coverage
# genuinely improves; never lower it to make a PR pass.
COVER_FLOOR ?= 75.0

.PHONY: build test race vet verify conformance conformance-campaign cache-conformance chaos store-chaos session-chaos shard-chaos net-chaos lib-check service-smoke cover bench-go bench-parallel clean

# perfbench is its own module, so ./... at the root never reaches it; it is
# compiled (not run) here so an API break surfaces in verify.
build:
	$(GO) build ./...
	cd perfbench && $(GO) build -o /dev/null ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# gofmt -l . also walks perfbench/; any file it lists fails the stage.
# internal/itr only forwards to sta until perfbench moves off it, so no
# other non-test package of this module may import it. The delay model's
# rules (the skew shapes over the pair surfaces, the pin-range extrema, the
# cube roots the zero-skew surfaces read) live in internal/core only: no
# non-test file of the timing layers or of the SDF writer may call
# MinOver/MaxOver, read a pair surface or take a cube root (core does). Nor
# may it call a per-call pair evaluator, which resolves the pair and
# evaluates its surfaces again on every call: the corner rules
# (EarliestCtrl, LatestNonCtrl, FastestCtrl) and the response combiners
# evaluate each surface once per gate.
MODEL_LAYERS := internal/twindow internal/tgraph internal/sta internal/logicsim internal/sdf
MODEL_RULES := MinOver|MaxOver|Cbrt|\.Pair\(|\.NCPair\(|\.SX\.|\.D0\.|\.T0\.|\.SKmin\.|(Delay|Trans)(Non)?Ctrl2|SKminAt
# The timing core stands alone: the non-test dependencies of twindow, tgraph
# and sta inside this module are the delay model, the netlist, nine-valued
# implication, the engine's counters and cancellation error, the snapshot
# reader and each other — never the transistor simulator.
CORE_LAYERS := ./internal/twindow ./internal/tgraph ./internal/sta
CORE_DEPS := core|engine|jsonread|netlist|nineval|twindow|tgraph|sta
# The daemon serves STA and ITR from a characterised library: its non-test
# dependencies inside this module must not reach the transistor simulator,
# the differential checker or the generators and oracles they use. Nor may
# the shard coordinator depend on the daemon; the two share only
# internal/httpmw.
SERVICE_DEPS := spice|flatsim|logicsim|conformance|benchgen|baseline|faultinject|waveform

vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	@importers=$$($(GO) list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./... | \
		awk '$$1 != "sstiming/internal/itr" { for (i = 2; i <= NF; i++) if ($$i == "sstiming/internal/itr") print $$1 }'); \
	if [ -n "$$importers" ]; then \
		echo "these packages import the sstiming/internal/itr shim; use sta instead:"; echo "$$importers"; exit 1; fi
	@files=$$(for d in $(MODEL_LAYERS); do ls $$d/*.go; done | grep -v '_test\.go$$' | \
		xargs grep -lE '$(MODEL_RULES)'); \
	if [ -n "$$files" ]; then \
		echo "these files evaluate delay-model rules outside internal/core; call core instead:"; echo "$$files"; exit 1; fi
	@deps=$$($(GO) list -deps $(CORE_LAYERS) | grep '^sstiming/' | grep -vxE 'sstiming/internal/($(CORE_DEPS))'); \
	if [ -n "$$deps" ]; then \
		echo "the timing core (twindow, tgraph, sta) depends on these packages outside its allowed set:"; echo "$$deps"; exit 1; fi
	@deps=$$($(GO) list -deps ./internal/service | grep -xE 'sstiming/internal/($(SERVICE_DEPS))'); \
	if [ -n "$$deps" ]; then \
		echo "the timing daemon (internal/service) depends on these forbidden packages:"; echo "$$deps"; exit 1; fi
	@if $(GO) list -deps ./internal/shardnet | grep -qx 'sstiming/internal/service'; then \
		echo "the shard coordinator (internal/shardnet) depends on the timing daemon (internal/service)"; exit 1; fi

# Tier-1 verification loop (see ROADMAP.md). Runs every stage through a
# timing wrapper and prints a per-stage wall-clock summary at the end, so
# a slow stage is visible instead of buried in test output. Each suite runs
# once per mode: the cover stage is the plain `go test ./...` run (the same
# packages and tests as the test target, with a coverage profile), and the
# race stage runs every test of the module under the race detector. So the
# test target and the suites below that rerun subsets of the race stage with
# the same flags (conformance's go test line, cache-conformance, chaos,
# store-chaos, session-chaos, shard-chaos, net-chaos) are not stages: they
# stay as targets for running one suite alone or replaying a CHAOS_SEED.
VERIFY_STAGES := build vet race conformance-campaign lib-check service-smoke cover

verify:
	@set -e; times=""; total_start=$$(date +%s); \
	for stage in $(VERIFY_STAGES); do \
		start=$$(date +%s); \
		$(MAKE) --no-print-directory $$stage; \
		times="$$times $$stage:$$(( $$(date +%s) - start ))"; \
	done; \
	echo ""; echo "verify stage wall-clock:"; \
	for t in $$times; do \
		printf '  %-20s %4ss\n' "$${t%%:*}" "$${t##*:}"; \
	done; \
	printf '  %-20s %4ss\n' total $$(( $$(date +%s) - total_start ))

# Short randomized differential campaign: cross-checks flatsim, logicsim,
# STA, ITR and the delay-model structure against each other on random
# circuits (see internal/conformance and DESIGN.md "Verification strategy").
# conformance-campaign is the CLI half alone, the part the race stage does
# not already run.
conformance: conformance-campaign
	$(GO) test -run TestConformance -race ./internal/conformance

conformance-campaign:
	$(GO) run ./cmd/conformance -seeds 8 -jobs 4

# Cache-equivalence campaign: random circuits POSTed twice to /analyze and
# /refine (the repeat with shuffled gate statements); every repeat must be a
# cache hit with a body byte-identical to the cold run, and a concurrent
# identical burst must share exactly one engine run (see internal/reqcache
# and DESIGN.md §13). Runs under the race detector: concurrent requests
# share the cache and the daemon's job queue.
cache-conformance:
	$(GO) test -race -run 'TestCacheEquivalenceTable|TestCacheConformance|TestSingleflight|TestCancelledLeader|TestAlias' \
		./internal/service ./internal/reqcache

# Fault-injection suite: deterministic chaos tests that force solver
# non-convergence, NaN poisoning and worker panics, then assert the
# recovery ladder, graceful degradation and error taxonomy hold — under
# the race detector, since recovery paths run on the parallel engine pool
# (see DESIGN.md "Robustness & failure handling"). The shard package's
# chaos tests run once, in shard-chaos.
chaos:
	$(GO) test -race -run 'Chaos' ./internal/spice ./internal/charlib \
		./internal/conformance ./internal/faultinject ./internal/engine \
		./internal/tgraph ./internal/service

# Store crash-safety suite: kill a characterisation campaign mid-cell
# (deterministically, inside its own checkpoint), tear the journal tail,
# resume, and require the published library + manifest byte-identical to an
# uninterrupted run (see internal/store and DESIGN.md "Durable artifacts").
store-chaos:
	$(GO) test -race -run 'Chaos' ./internal/store

# Session crash-recovery chaos suite: durable delta-STA sessions killed
# deterministically mid-delta, mid-snapshot and mid-compaction (via
# internal/faultinject), restarted, and required to come back byte-identical
# to an uninterrupted run; journals that cannot replay must quarantine with
# a reasoned 404 instead of wedging startup (see internal/sessionlog and
# DESIGN.md §16). The tgraph snapshot tests cover the reader that recovery
# restores graphs with.
session-chaos:
	$(GO) test -race -run 'TestSessionChaos|TestSessionRecover|TestSessionEviction' ./internal/service
	$(GO) test -race ./internal/sessionlog
	$(GO) test -race -run 'Snapshot|Restore' ./internal/tgraph

# Sharded-campaign chaos suite: real coordinator/worker campaigns with
# seeded worker kills, hangs and artefact corruption mid-run — every one
# must converge to a publish byte-identical to an uninterrupted
# single-process run, and a persistently-failing shard must quarantine
# (degrade) instead of wedging the campaign (see internal/shard and
# DESIGN.md §14).
shard-chaos:
	$(GO) test -race -run 'TestShardChaos' ./internal/shard

# Networked-campaign chaos suite: a real HTTP coordinator and remote
# workers over loopback sockets with seeded network faults injected into
# the workers' transports — dropped requests and acknowledgements, delays,
# genuinely duplicated deliveries, truncated and corrupted response bodies,
# a partition window, vanished workers and a coordinator restart
# mid-campaign — every scenario must publish a library byte-identical to
# the single-process run (see internal/shardnet and DESIGN.md §15). All
# suites honour CHAOS_SEED=<n> to replay a specific schedule; failures
# print the seed. The coordinator protocol tests (TestServer*) run here
# too, under the race detector: duplicated claims race promotion through
# the claim idempotency map.
net-chaos:
	$(GO) test -race -run 'TestNetChaos|TestServer' ./internal/shardnet

# Byte-identity oracle for the shipped library: regenerate it from scratch
# (the default campaign, NCPairs on; ~40 s on 2 vCPUs) into a temporary
# directory and require the library and its manifest to match
# internal/prechar byte for byte. Nothing is written into the checkout.
lib-check:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/characterize -no-journal -out "$$dir/lib05.json" && \
	cmp "$$dir/lib05.json" internal/prechar/lib05.json && \
	cmp "$$dir/lib05.json.manifest.json" internal/prechar/lib05.manifest.json && \
	echo "lib-check: library and manifest byte-identical to internal/prechar"

# Service smoke test: start the timingd daemon on a random loopback port,
# POST an example netlist, require a 200 STA response and a clean graceful
# drain (see cmd/timingd -selfcheck and DESIGN.md "Serving architecture").
service-smoke:
	$(GO) run ./cmd/timingd -selfcheck

# Coverage gate: emits coverage.out and fails if the total drops below
# COVER_FLOOR.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v floor=$(COVER_FLOOR) \
		'/^total:/ { sub(/%/, "", $$3); \
		  if ($$3 + 0 < floor + 0) { \
		    printf "FAIL: total coverage %.1f%% is below the %.1f%% floor\n", $$3, floor; exit 1 } \
		  printf "total coverage %.1f%% (floor %.1f%%)\n", $$3, floor }'

# The raw go test micro-benchmarks (slow).
bench-go:
	$(GO) test -bench=. -benchmem ./...

# Engine scaling vs worker count (characterisation wall-clock), the serial
# c7552 timing-graph build and backward pass (RequiredTimes plus
# CheckViolations), c1908 refinement under seeded cubes with its violation
# check, time and allocations, then two serial, self-checking
# comparisons: SwapGate prices one gate swap on a persistent c7552 graph by
# re-converged cone size, AblationITRIncremental runs the paper's §7
# ITR-pruned ATPG on the incremental graph against from-scratch refinement.
# Both fail if their results diverge.
bench-parallel:
	$(GO) test -run '^$$' -bench=CharacterizeParallel -benchtime=3x .
	$(GO) test -run '^$$' -bench='Build$$|Required|Refine$$|SwapGate|AblationITRIncremental' -benchmem .

clean:
	$(GO) clean ./...
