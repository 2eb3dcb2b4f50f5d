package service

import (
	"net/http"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
)

// TestUnknownNetCubeRejected: a cube naming a net outside the circuit is a
// 422 on /refine, on session create and on a session delta. The rejected
// delta leaves the session exactly as it was, so its snapshots keep
// restoring: a durable session survives a restart instead of being
// quarantined.
func TestUnknownNetCubeRejected(t *testing.T) {
	src := benchText(t, benchgen.C17())
	bad := map[string]string{"1": "01", "no_such_net": "01"}
	require422 := func(what string, resp *http.Response, raw []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "no_such_net") {
			t.Fatalf("%s = %d, want 422 naming the net: %s", what, resp.StatusCode, raw)
		}
	}

	dir := t.TempDir()
	sA, hsA := newTestServer(t, Options{SessionDir: dir, SessionSnapshotEvery: 1})
	resp, raw := postJSON(t, hsA.URL+"/refine", map[string]any{"netlist": src, "cube": bad})
	require422("POST /refine", resp, raw)
	resp, raw = postJSON(t, hsA.URL+"/session", map[string]any{"netlist": src, "cube": bad})
	require422("POST /session", resp, raw)

	sid := createSession(t, hsA, src, nil)
	resp, raw = postJSON(t, hsA.URL+"/session/"+sid+"/delta", map[string]any{"assign": bad})
	require422("POST delta", resp, raw)
	before := sessionWindows(t, hsA, sid)
	requireSameLines(t, "after the rejected delta", before.Lines, refineLines(t, hsA, src, nil))

	// A good delta compacts (snapshot every delta) over the state the
	// rejected one left; recovery must restore it.
	applyScript(t, hsA, sid, []map[string]any{{"assign": map[string]string{"1": "01"}}})
	before = sessionWindows(t, hsA, sid)
	shutdownServer(t, sA, hsA)
	_, hsB := recoverServer(t, Options{SessionDir: dir}, 1, 0)
	requireSameLines(t, "recovered session", sessionWindows(t, hsB, sid).Lines, before.Lines)
}
