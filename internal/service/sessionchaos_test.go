package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/faultinject"
	"sstiming/internal/sessionlog"
	"sstiming/internal/store"
)

// This file is the session-durability chaos suite (make session-chaos):
// seeded random edit scripts run against a journaled daemon that is killed
// mid-delta, mid-snapshot or mid-compaction (via sessionlog's fault hooks —
// each abort leaves exactly the on-disk state the equivalent kill would),
// then restarted; the recovered windows must be byte-identical to an
// uninterrupted in-memory run of the same script. Untrustworthy journals
// must quarantine with a reasoned 404 instead of wedging the restart.

// chaosSeed resolves a suite seed — overridable via the CHAOS_SEED env var,
// printed on failure so any run is reproducible.
func chaosSeed(t *testing.T, def int64) int64 {
	t.Helper()
	seed := faultinject.SeedFromEnv(def)
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("reproduce with CHAOS_SEED=%d", seed)
		}
	})
	return seed
}

// shutdownServer drains a durable test server mid-test (the cleanup drain
// registered by newTestServer is idempotent), releasing its journal handles
// so a second server can recover from the same session directory.
func shutdownServer(t *testing.T, s *Server, hs *httptest.Server) {
	t.Helper()
	hs.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// genScript builds a seeded random delta script over c17: PI cube assigns
// and retracts, PI stimulus overrides, and NAND/NOR swaps of net 10.
func genScript(rng *rand.Rand, n int) []map[string]any {
	pis := []string{"1", "2", "3", "6", "7"}
	vals := []string{"01", "10", "11", "00", "x1", "1x"}
	kinds := []string{"nor", "nand"} // net 10 starts as a NAND
	swaps := 0
	var assigned []string
	steps := make([]map[string]any, 0, n)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(8); {
		case k < 4:
			pi := pis[rng.Intn(len(pis))]
			steps = append(steps, map[string]any{"assign": map[string]string{pi: vals[rng.Intn(len(vals))]}})
			assigned = append(assigned, pi)
		case k < 5 && len(assigned) > 0:
			steps = append(steps, map[string]any{"retract": []string{assigned[rng.Intn(len(assigned))]}})
		case k < 7:
			early := float64(rng.Intn(100)) * 2e-12
			short := 1e-10 + float64(rng.Intn(50))*1e-12
			steps = append(steps, map[string]any{"set_pi": map[string]any{
				"net":             pis[rng.Intn(len(pis))],
				"arrival_early_s": early,
				"arrival_late_s":  early + 1e-10 + float64(rng.Intn(100))*1e-12,
				"trans_short_s":   short,
				"trans_long_s":    short + float64(rng.Intn(50))*1e-12,
			}})
		default:
			steps = append(steps, map[string]any{"swap_gate": map[string]string{"net": "10", "kind": kinds[swaps%2]}})
			swaps++
		}
	}
	return steps
}

// applyScript runs a delta script against one session, requiring every step
// to succeed, and returns the last edit sequence number.
func applyScript(t *testing.T, hs *httptest.Server, sid string, steps []map[string]any) int64 {
	t.Helper()
	var last int64
	for i, body := range steps {
		resp, raw := postJSON(t, hs.URL+"/session/"+sid+"/delta", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("script step %d = %d, want 200: %s", i, resp.StatusCode, raw)
		}
		var dr SessionDeltaResponse
		if err := json.Unmarshal(raw, &dr); err != nil {
			t.Fatal(err)
		}
		last = dr.Edit
	}
	return last
}

// recoverServer boots a fresh server over an existing session directory and
// requires the given recovery outcome.
func recoverServer(t *testing.T, opts Options, wantRecovered, wantQuarantined int) (*Server, *httptest.Server) {
	t.Helper()
	s, hs := newTestServer(t, opts)
	recovered, quarantined, err := s.RecoverSessions()
	if err != nil {
		t.Fatalf("RecoverSessions: %v", err)
	}
	if recovered != wantRecovered || quarantined != wantQuarantined {
		t.Fatalf("RecoverSessions = (%d recovered, %d quarantined), want (%d, %d)",
			recovered, quarantined, wantRecovered, wantQuarantined)
	}
	return s, hs
}

// TestSessionRecoverAfterRestartByteIdentical runs a seeded random edit
// script against a journaled session (snapshot compaction on), restarts the
// daemon, and requires the recovered windows — and all further deltas —
// byte-identical to an uninterrupted in-memory run of the same script.
func TestSessionRecoverAfterRestartByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t, 23)))
	steps := genScript(rng, 25)
	src := benchText(t, benchgen.C17())
	seedCube := map[string]string{"2": "11"}

	// Uninterrupted in-memory reference.
	_, hsRef := newTestServer(t, Options{})
	refSid := createSession(t, hsRef, src, seedCube)
	applyScript(t, hsRef, refSid, steps)

	dir := t.TempDir()
	metA := engine.NewMetrics()
	sA, hsA := newTestServer(t, Options{SessionDir: dir, SessionSnapshotEvery: 3, Metrics: metA})
	sid := createSession(t, hsA, src, seedCube)
	lastEdit := applyScript(t, hsA, sid, steps)
	before := sessionWindows(t, hsA, sid)
	requireSameLines(t, "durable vs in-memory", before.Lines, sessionWindows(t, hsRef, refSid).Lines)
	if metA.Get(engine.SvcSessionSnapshots) == 0 {
		t.Error("no snapshot compaction happened with SessionSnapshotEvery=3")
	}
	shutdownServer(t, sA, hsA)

	metB := engine.NewMetrics()
	sB, hsB := recoverServer(t, Options{SessionDir: dir, SessionSnapshotEvery: 3, Metrics: metB}, 1, 0)
	if got := metB.Get(engine.SvcSessionRecovered); got != 1 {
		t.Errorf("service/session_recovered = %d, want 1", got)
	}
	after := sessionWindows(t, hsB, sid)
	if after.Cube != before.Cube {
		t.Errorf("recovered cube %q != pre-crash %q", after.Cube, before.Cube)
	}
	// Byte-identical includes the response metadata a client keys on — a
	// snapshot restore must not rename the circuit.
	if after.Circuit != before.Circuit {
		t.Errorf("recovered circuit %+v != pre-crash %+v", after.Circuit, before.Circuit)
	}
	requireSameLines(t, "recovered session", after.Lines, before.Lines)

	// The recovered session keeps editing: same script tail on both, edit
	// numbering continuous across the restart.
	more := genScript(rng, 5)
	if got := applyScript(t, hsB, sid, more); got != lastEdit+int64(len(more)) {
		t.Errorf("post-recovery edit counter %d, want %d", got, lastEdit+int64(len(more)))
	}
	applyScript(t, hsRef, refSid, more)
	requireSameLines(t, "post-recovery deltas",
		sessionWindows(t, hsB, sid).Lines, sessionWindows(t, hsRef, refSid).Lines)
	_ = sB
}

// TestSessionChaosKillMidDelta kills the journal append of a seeded delta:
// the client gets a 500, the resident session is dropped with a reasoned
// tombstone (the in-memory edit was never durable), and a restart recovers
// the session at its last durable delta — torn half-frame truncated —
// byte-identical to an uninterrupted run of the durable prefix.
func TestSessionChaosKillMidDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t, 37)))
	const total = 12
	steps := genScript(rng, total)
	k := 1 + rng.Intn(total)
	src := benchText(t, benchgen.C17())

	_, hsRef := newTestServer(t, Options{})
	refSid := createSession(t, hsRef, src, nil)
	applyScript(t, hsRef, refSid, steps[:k-1])
	want := sessionWindows(t, hsRef, refSid)

	dir := t.TempDir()
	fault := faultinject.FailNthOp(sessionlog.OpAppend, int64(k))
	sA, hsA := newTestServer(t, Options{
		SessionDir: dir, SessionSnapshotEvery: 3, SessionLogFaultHook: fault.Hook(),
	})
	sid := createSession(t, hsA, src, nil)
	applyScript(t, hsA, sid, steps[:k-1])
	resp, raw := postJSON(t, hsA.URL+"/session/"+sid+"/delta", steps[k-1])
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("journal-faulted delta = %d, want 500: %s", resp.StatusCode, raw)
	}
	var ej ErrorJSON
	if err := json.Unmarshal(raw, &ej); err != nil {
		t.Fatal(err)
	}
	if ej.Kind != "internal" || !strings.Contains(ej.Error, "journal") {
		t.Errorf("500 payload %+v: want kind \"internal\" naming the journal", ej)
	}
	if fault.Injected() != 1 {
		t.Fatal("append fault never fired — vacuous test")
	}
	resp, raw = getURL(t, hsA.URL+"/session/"+sid+"/windows")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(raw), "journal-write-failed") {
		t.Fatalf("post-fault lookup = %d (%s), want a 404 naming journal-write-failed", resp.StatusCode, raw)
	}
	shutdownServer(t, sA, hsA)

	_, hsB := recoverServer(t, Options{SessionDir: dir}, 1, 0)
	requireSameLines(t, "recovered after mid-delta kill",
		sessionWindows(t, hsB, sid).Lines, want.Lines)
}

// TestSessionChaosKillMidSnapshot kills the snapshot checkpoint write at
// the first compaction: the delta that triggered it still succeeds
// (compaction is best-effort — the delta is already durable in the log),
// no snapshot lands on disk, and a restart replays the full log to the
// byte-identical state.
func TestSessionChaosKillMidSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t, 41)))
	steps := genScript(rng, 3)
	src := benchText(t, benchgen.C17())

	_, hsRef := newTestServer(t, Options{})
	refSid := createSession(t, hsRef, src, nil)
	applyScript(t, hsRef, refSid, steps)

	dir := t.TempDir()
	fault := faultinject.FailNthOp(sessionlog.OpSnapshotWrite, 1)
	metA := engine.NewMetrics()
	sA, hsA := newTestServer(t, Options{
		SessionDir: dir, SessionSnapshotEvery: 3, SessionLogFaultHook: fault.Hook(), Metrics: metA,
	})
	sid := createSession(t, hsA, src, nil)
	applyScript(t, hsA, sid, steps) // the 3rd delta triggers the faulted compaction
	if fault.Injected() != 1 {
		t.Fatal("snapshot fault never fired — vacuous test")
	}
	if got := metA.Get(engine.SvcSessionSnapshots); got != 0 {
		t.Errorf("service/session_snapshots = %d after a faulted compaction, want 0", got)
	}
	before := sessionWindows(t, hsA, sid)
	shutdownServer(t, sA, hsA)

	if _, err := os.Stat(filepath.Join(dir, sid, "snapshot.json")); !os.IsNotExist(err) {
		t.Fatalf("snapshot file present despite the faulted checkpoint write (stat err %v)", err)
	}
	_, hsB := recoverServer(t, Options{SessionDir: dir}, 1, 0)
	requireSameLines(t, "full-log replay after mid-snapshot kill",
		sessionWindows(t, hsB, sid).Lines, before.Lines)
}

// TestSessionChaosKillMidCompaction kills compaction between the two
// durability points: the snapshot checkpoint is already durable but the log
// truncation never happens, leaving delta frames the snapshot folds in.
// Recovery must dedup them by sequence number and land byte-identical.
func TestSessionChaosKillMidCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(chaosSeed(t, 43)))
	steps := genScript(rng, 3)
	src := benchText(t, benchgen.C17())

	_, hsRef := newTestServer(t, Options{})
	refSid := createSession(t, hsRef, src, nil)
	applyScript(t, hsRef, refSid, steps)

	dir := t.TempDir()
	fault := faultinject.FailNthOp(sessionlog.OpCompact, 1)
	sA, hsA := newTestServer(t, Options{
		SessionDir: dir, SessionSnapshotEvery: 3, SessionLogFaultHook: fault.Hook(),
	})
	sid := createSession(t, hsA, src, nil)
	applyScript(t, hsA, sid, steps)
	if fault.Injected() != 1 {
		t.Fatal("compaction fault never fired — vacuous test")
	}
	before := sessionWindows(t, hsA, sid)
	shutdownServer(t, sA, hsA)

	// The crash window on disk: durable snapshot AND the un-truncated log
	// still carrying every folded delta frame.
	if _, err := os.Stat(filepath.Join(dir, sid, "snapshot.json")); err != nil {
		t.Fatalf("snapshot should be durable before the compaction kill: %v", err)
	}
	frames := 0
	if _, err := store.ScanFrames(filepath.Join(dir, sid, "log.waj"), func([]byte) bool {
		frames++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if frames != 1+len(steps) {
		t.Fatalf("log holds %d frames, want %d (create + every delta, none truncated)", frames, 1+len(steps))
	}

	_, hsB := recoverServer(t, Options{SessionDir: dir}, 1, 0)
	requireSameLines(t, "seq-dedup replay after mid-compaction kill",
		sessionWindows(t, hsB, sid).Lines, before.Lines)
	requireSameLines(t, "vs in-memory reference",
		sessionWindows(t, hsB, sid).Lines, sessionWindows(t, hsRef, refSid).Lines)
}

// TestSessionRecoverQuarantineCorruptJournal rots a journal's meta file and
// requires the restart to quarantine it — directory renamed for
// post-mortem, reasoned 404, metric counted — instead of failing startup.
func TestSessionRecoverQuarantineCorruptJournal(t *testing.T) {
	src := benchText(t, benchgen.C17())
	dir := t.TempDir()
	sA, hsA := newTestServer(t, Options{SessionDir: dir})
	sid := createSession(t, hsA, src, nil)
	applyScript(t, hsA, sid, []map[string]any{{"assign": map[string]string{"1": "01"}}})
	shutdownServer(t, sA, hsA)

	if err := os.WriteFile(filepath.Join(dir, sid, "meta.json"), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	met := engine.NewMetrics()
	_, hsB := recoverServer(t, Options{SessionDir: dir, Metrics: met}, 0, 1)
	if got := met.Get(engine.SvcSessionQuarantined); got != 1 {
		t.Errorf("service/session_replay_quarantined = %d, want 1", got)
	}
	resp, raw := getURL(t, hsB.URL+"/session/"+sid+"/windows")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(raw), "corrupt-journal") {
		t.Fatalf("quarantined lookup = %d (%s), want a 404 naming corrupt-journal", resp.StatusCode, raw)
	}
	if _, err := os.Stat(filepath.Join(dir, sid)); !os.IsNotExist(err) {
		t.Errorf("quarantined directory still scannable under its live name (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, sid+".quarantined")); err != nil {
		t.Errorf("no post-mortem directory: %v", err)
	}
}

// TestSessionRecoverQuarantineFingerprintMismatch restarts over a journal
// written under a different cell library: replaying it would silently
// produce windows the client never saw, so it must quarantine with the
// mismatch named.
func TestSessionRecoverQuarantineFingerprintMismatch(t *testing.T) {
	src := benchText(t, benchgen.C17())
	dir := t.TempDir()
	sA, hsA := newTestServer(t, Options{SessionDir: dir})
	sid := createSession(t, hsA, src, nil)
	shutdownServer(t, sA, hsA)

	metaPath := filepath.Join(dir, sid, "meta.json")
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	var meta sessionlog.Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta.LibraryFingerprint = "deadbeef-not-the-serving-library"
	tampered, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	_, hsB := recoverServer(t, Options{SessionDir: dir}, 0, 1)
	resp, raw := getURL(t, hsB.URL+"/session/"+sid+"/windows")
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(raw), "library-fingerprint-mismatch") {
		t.Fatalf("mismatched lookup = %d (%s), want a 404 naming library-fingerprint-mismatch", resp.StatusCode, raw)
	}
}

// TestSessionEvictionDeltaRace pins the eviction-vs-in-flight-delta
// contract: a delta already holding the session when LRU eviction retires
// its journal completes on the live graph (200, journaling skipped — the
// session is gone either way), later deltas get the reasoned eviction 404,
// and a restart does not resurrect the retired session. State never tears:
// the delta either fully applies or is fully refused.
func TestSessionEvictionDeltaRace(t *testing.T) {
	src := benchText(t, benchgen.C17())
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{
		SessionDir: dir, MaxSessions: 1, SessionIdleTTL: -1, Workers: 4,
	})
	first := createSession(t, hs, src, nil)

	// Park a delta inside its admitted job, holding the session lock so it
	// is mid-flight when eviction strikes.
	sess, err := s.sessions.get(first)
	if err != nil {
		t.Fatal(err)
	}
	sess.mu.Lock()
	type result struct {
		status int
		raw    []byte
	}
	inflight := make(chan result, 1)
	go func() {
		resp, raw := postJSON(t, hs.URL+"/session/"+first+"/delta", map[string]any{
			"assign": map[string]string{"1": "01"},
		})
		inflight <- result{resp.StatusCode, raw}
	}()
	waitFor(t, "delta admitted", func() bool { return s.queue.Inflight() == 1 })

	// The cap is 1: creating the second session evicts the first and
	// retires its journal while the delta is still parked.
	second := createSession(t, hs, src, nil)
	waitFor(t, "first journal retired", func() bool {
		_, err := os.Stat(filepath.Join(dir, first))
		return os.IsNotExist(err)
	})

	sess.mu.Unlock()
	got := <-inflight
	if got.status != http.StatusOK {
		t.Fatalf("in-flight delta finished %d, want 200 (completes on the live graph): %s", got.status, got.raw)
	}

	// Later traffic to the evicted ID: reasoned 404, no partial state.
	resp, raw := postJSON(t, hs.URL+"/session/"+first+"/delta", map[string]any{
		"assign": map[string]string{"2": "01"},
	})
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(raw), "evicted-lru") {
		t.Fatalf("post-eviction delta = %d (%s), want a 404 naming evicted-lru", resp.StatusCode, raw)
	}
	shutdownServer(t, s, hs)

	// Restart: only the survivor comes back; the retired session stays gone.
	_, hsB := recoverServer(t, Options{SessionDir: dir}, 1, 0)
	sessionWindows(t, hsB, second)
	if resp, _ := getURL(t, hsB.URL+"/session/"+first+"/windows"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("retired session resurrected: %d", resp.StatusCode)
	}
}
