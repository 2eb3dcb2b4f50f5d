package sessionlog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testCreateRecord() Record {
	return Record{
		Kind:    "create",
		Netlist: "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n",
		Mode:    "proposed",
		Cube:    map[string]string{"a": "01"},
	}
}

func testDelta(seq int64) Record {
	return Record{
		Kind: "delta", Seq: seq, Edit: seq,
		Assign: map[string]string{"b": fmt.Sprintf("%d1", seq%2)},
	}
}

func newTestLog(t *testing.T) (*Log, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "s1")
	l, err := Create(dir, Meta{SessionID: "s1", LibraryFingerprint: "fp1"}, testCreateRecord(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return l, dir
}

func TestCreateAppendReopen(t *testing.T) {
	l, dir := newTestLog(t)
	for seq := int64(1); seq <= 5; seq++ {
		if err := l.Append(testDelta(seq)); err != nil {
			t.Fatalf("append %d: %v", seq, err)
		}
	}
	if got := l.DeltasSinceCompact(); got != 5 {
		t.Fatalf("DeltasSinceCompact = %d, want 5", got)
	}
	l.Close()

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.Meta.SessionID != "s1" || st.Meta.LibraryFingerprint != "fp1" {
		t.Fatalf("meta round-trip: %+v", st.Meta)
	}
	if st.Create.Netlist != testCreateRecord().Netlist {
		t.Fatalf("create netlist round-trip: %q", st.Create.Netlist)
	}
	if len(st.Deltas) != 5 || st.LastSeq != 5 {
		t.Fatalf("replayed %d deltas, LastSeq %d; want 5, 5", len(st.Deltas), st.LastSeq)
	}
	for i, rec := range st.Deltas {
		if rec.Seq != int64(i+1) || rec.Assign["b"] == "" {
			t.Fatalf("delta %d round-trip: %+v", i, rec)
		}
	}
}

func TestTornTailTruncatedAndAppendable(t *testing.T) {
	l, dir := newTestLog(t)
	for seq := int64(1); seq <= 3; seq++ {
		if err := l.Append(testDelta(seq)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Tear the tail the way a kill mid-write does: a frame header whose
	// payload never made it.
	logPath := filepath.Join(dir, logName)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("waj1 4096 0badc0de\n{\"kind\":\"del")
	f.Close()

	l2, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	if len(st.Deltas) != 3 {
		t.Fatalf("replayed %d deltas, want 3 (torn tail dropped)", len(st.Deltas))
	}
	// The truncated log must accept appends that a second replay sees.
	if err := l2.Append(testDelta(4)); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	l2.Close()
	_, st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Deltas) != 4 || st2.LastSeq != 4 {
		t.Fatalf("after truncate+append: %d deltas, LastSeq %d; want 4, 4", len(st2.Deltas), st2.LastSeq)
	}
}

func TestCompactTruncatesLogAndDedupsSeq(t *testing.T) {
	l, dir := newTestLog(t)
	for seq := int64(1); seq <= 4; seq++ {
		if err := l.Append(testDelta(seq)); err != nil {
			t.Fatal(err)
		}
	}
	sizeBefore := l.SizeBytes()
	if err := l.Compact(Snapshot{SessionID: "s1", Seq: 4, Edit: 4, Graph: []byte(`{"fake":"graph"}`)}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if l.SizeBytes() >= sizeBefore {
		t.Fatalf("log did not shrink: %d -> %d", sizeBefore, l.SizeBytes())
	}
	if l.DeltasSinceCompact() != 0 {
		t.Fatalf("DeltasSinceCompact = %d after compaction", l.DeltasSinceCompact())
	}
	// Appends continue after the checkpoint.
	if err := l.Append(testDelta(5)); err != nil {
		t.Fatal(err)
	}
	l.Close()

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshot == nil || st.Snapshot.Seq != 4 || string(st.Snapshot.Graph) != `{"fake":"graph"}` {
		t.Fatalf("snapshot round-trip: %+v", st.Snapshot)
	}
	if len(st.Deltas) != 1 || st.Deltas[0].Seq != 5 || st.LastSeq != 5 {
		t.Fatalf("post-snapshot deltas: %+v, LastSeq %d", st.Deltas, st.LastSeq)
	}
}

// TestCompactHashesTheWrittenGraph: a graph not already in json.Marshal's
// form (here with '<' and '&', which Marshal escapes) must round-trip
// through Compact and Open; the digest covers the bytes the sidecar holds.
func TestCompactHashesTheWrittenGraph(t *testing.T) {
	l, dir := newTestLog(t)
	if err := l.Compact(Snapshot{SessionID: "s1", Seq: 1, Edit: 1, Graph: []byte(`{"name":"a<b&c", "lines":[]}`)}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	l.Close()
	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after Compact: %v", err)
	}
	if got, want := string(st.Snapshot.Graph), `{"name":"a\u003cb\u0026c","lines":[]}`; got != want {
		t.Fatalf("recovered graph %s, want %s", got, want)
	}
}

func TestCrashMidCompactionDropsFoldedFrames(t *testing.T) {
	// OpCompact faults after the snapshot is durable but before the log is
	// truncated: recovery must drop the frames the snapshot folds in.
	var fail bool
	hook := func(op string) error {
		if fail && op == OpCompact {
			return errors.New("injected kill")
		}
		return nil
	}
	dir := filepath.Join(t.TempDir(), "s1")
	l, err := Create(dir, Meta{SessionID: "s1", LibraryFingerprint: "fp1"}, testCreateRecord(), Options{FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	for seq := int64(1); seq <= 3; seq++ {
		if err := l.Append(testDelta(seq)); err != nil {
			t.Fatal(err)
		}
	}
	fail = true
	if err := l.Compact(Snapshot{SessionID: "s1", Seq: 3, Edit: 3, Graph: []byte(`{}`)}); err == nil {
		t.Fatal("Compact succeeded under an OpCompact fault")
	}
	l.Close()

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after mid-compaction crash: %v", err)
	}
	if st.Snapshot == nil || st.Snapshot.Seq != 3 {
		t.Fatalf("snapshot missing after mid-compaction crash: %+v", st.Snapshot)
	}
	if len(st.Deltas) != 0 {
		t.Fatalf("%d stale deltas survived seq-dedup", len(st.Deltas))
	}
	if st.LastSeq != 3 {
		t.Fatalf("LastSeq = %d, want 3", st.LastSeq)
	}
}

func TestAppendFaultLeavesTornFrame(t *testing.T) {
	var fail bool
	hook := func(op string) error {
		if fail && op == OpAppend {
			return errors.New("injected kill")
		}
		return nil
	}
	dir := filepath.Join(t.TempDir(), "s1")
	l, err := Create(dir, Meta{SessionID: "s1", LibraryFingerprint: "fp1"}, testCreateRecord(), Options{FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := l.Append(testDelta(2)); err == nil {
		t.Fatal("Append succeeded under an OpAppend fault")
	}
	l.Close()

	_, st, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open after torn append: %v", err)
	}
	if len(st.Deltas) != 1 || st.Deltas[0].Seq != 1 {
		t.Fatalf("recovered %+v, want exactly delta 1", st.Deltas)
	}
}

func TestRetireRemovesAndRacesAppend(t *testing.T) {
	l, dir := newTestLog(t)
	if err := l.Append(testDelta(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(); err != nil {
		t.Fatalf("Retire: %v", err)
	}
	if err := l.Retire(); err != nil {
		t.Fatalf("Retire not idempotent: %v", err)
	}
	if !errors.Is(l.Append(testDelta(2)), ErrRetired) {
		t.Fatal("append after retire is not ErrRetired")
	}
	if !errors.Is(l.Compact(Snapshot{SessionID: "s1", Graph: []byte(`{}`)}), ErrRetired) {
		t.Fatal("compact after retire is not ErrRetired")
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("retired dir still exists: %v", err)
	}
	if _, err := os.Stat(dir + retiredSuffix); !os.IsNotExist(err) {
		t.Fatalf("retired stub still exists: %v", err)
	}
}

func TestScanSkipsQuarantinedCleansRetired(t *testing.T) {
	root := t.TempDir()
	for _, id := range []string{"alive1", "alive2"} {
		if _, err := Create(filepath.Join(root, id), Meta{SessionID: id, LibraryFingerprint: "fp"}, testCreateRecord(), Options{}); err != nil {
			t.Fatal(err)
		}
	}
	os.MkdirAll(filepath.Join(root, "dead"+retiredSuffix), 0o755)
	os.MkdirAll(filepath.Join(root, "sick"+quarantinedSuffix), 0o755)
	os.WriteFile(filepath.Join(root, "stray-file"), []byte("x"), 0o644)

	dirs, err := Scan(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("Scan found %d dirs, want 2: %v", len(dirs), dirs)
	}
	if _, err := os.Stat(filepath.Join(root, "dead"+retiredSuffix)); !os.IsNotExist(err) {
		t.Fatal("Scan did not clean the retired stub")
	}
	if _, err := os.Stat(filepath.Join(root, "sick"+quarantinedSuffix)); err != nil {
		t.Fatal("Scan removed the quarantined dir")
	}
}

func TestQuarantineRenames(t *testing.T) {
	l, dir := newTestLog(t)
	l.Close()
	dst, err := Quarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(dst, quarantinedSuffix) {
		t.Fatalf("quarantine path %q", dst)
	}
	if _, err := os.Stat(filepath.Join(dst, metaName)); err != nil {
		t.Fatalf("quarantined bytes missing: %v", err)
	}
	// A second session with the same id quarantining again must not
	// collide with the kept post-mortem.
	l2, err := Create(dir, Meta{SessionID: "s1", LibraryFingerprint: "fp1"}, testCreateRecord(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Close()
	dst2, err := Quarantine(dir)
	if err != nil {
		t.Fatal(err)
	}
	if dst2 == dst {
		t.Fatalf("second quarantine reused %q", dst)
	}
}

func TestOpenCorruptTaxonomy(t *testing.T) {
	cases := []struct {
		name string
		prep func(t *testing.T, dir string)
	}{
		{"missing-meta", func(t *testing.T, dir string) { os.Remove(filepath.Join(dir, metaName)) }},
		{"garbage-meta", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, metaName), []byte("not json"), 0o644)
		}},
		{"id-mismatch", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, metaName),
				[]byte(`{"schema_version":1,"session_id":"other","library_fingerprint":"fp1"}`), 0o644)
		}},
		{"empty-log", func(t *testing.T, dir string) { os.Truncate(filepath.Join(dir, logName), 0) }},
		{"rotten-snapshot", func(t *testing.T, dir string) {
			os.WriteFile(filepath.Join(dir, snapName),
				[]byte(`{"schema_version":1,"session_id":"s1","seq":1,"sha256":"00","graph":{}}`), 0o644)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, dir := newTestLog(t)
			l.Append(testDelta(1))
			l.Close()
			tc.prep(t, dir)
			if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Open = %v, want ErrCorrupt", err)
			}
		})
	}
}
