package sessionlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// referenceDecodeSnapshot is Open's sidecar decode as it was before the
// one-pass reader: encoding/json into a Snapshot, then the identity and
// digest checks. FuzzOpenSnapshot holds Open to it.
func referenceDecodeSnapshot(data []byte, sessionID string) (*Snapshot, error) {
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%w: snapshot is not valid JSON: %v", ErrCorrupt, err)
	}
	if snap.SchemaVersion != SchemaVersion || snap.SessionID != sessionID {
		return nil, fmt.Errorf("%w: snapshot identity mismatch", ErrCorrupt)
	}
	if digest := sha256.Sum256(snap.Graph); hex.EncodeToString(digest[:]) != snap.SHA256 {
		return nil, fmt.Errorf("%w: snapshot graph digest mismatch", ErrCorrupt)
	}
	return &snap, nil
}

// sidecar returns the bytes Compact writes for snap.
func sidecar(tb testing.TB, snap Snapshot) []byte {
	tb.Helper()
	snap.SchemaVersion = SchemaVersion
	digest := sha256.Sum256(snap.Graph)
	snap.SHA256 = hex.EncodeToString(digest[:])
	data, err := json.Marshal(snap)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzOpenSnapshot holds Open's sidecar reader to the encoding/json decode
// it replaced: whatever Open accepts, the reference accepts with an equal
// Snapshot; whatever the reference accepts in exactly the bytes
// json.Marshal writes for its decoded value, Open accepts too. Every
// refusal is ErrCorrupt.
func FuzzOpenSnapshot(f *testing.F) {
	for _, snap := range []Snapshot{
		{SessionID: "s1", Seq: 4, Edit: 4, Graph: []byte(`{"fake":"graph"}`)},
		{SessionID: "s1", Seq: 3, Edit: 3, Graph: []byte(`{}`)},
		{SessionID: "s1", Seq: -1, Edit: 1 << 62, Graph: []byte(`{"netlist":"x\ny","lines":{"a":[1,2]}}`)},
		{SessionID: "s2", Seq: 1, Graph: []byte(`{}`)},
	} {
		f.Add(sidecar(f, snap))
	}
	// The inputs of TestOpenCorruptTaxonomy, each in the sidecar's place.
	for _, data := range []string{
		"",
		"not json",
		`{"schema_version":1,"session_id":"other","library_fingerprint":"fp1"}`,
		`{"schema_version":1,"session_id":"s1","seq":1,"sha256":"00","graph":{}}`,
	} {
		f.Add([]byte(data))
	}

	dir := filepath.Join(f.TempDir(), "s1")
	l, err := Create(dir, Meta{SessionID: "s1", LibraryFingerprint: "fp1"}, testCreateRecord(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	l.Close()

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, st, err := Open(dir, Options{})
		want, refErr := referenceDecodeSnapshot(data, "s1")
		if err == nil {
			l.Close()
			if refErr != nil {
				t.Fatalf("Open accepted a sidecar encoding/json refuses: %v", refErr)
			}
			got := st.Snapshot
			if got.SchemaVersion != want.SchemaVersion || got.SessionID != want.SessionID || got.Seq != want.Seq ||
				got.Edit != want.Edit || got.SHA256 != want.SHA256 || !bytes.Equal(got.Graph, want.Graph) {
				t.Fatalf("Open read %+v, the reference %+v", got, want)
			}
			return
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("refusal is not ErrCorrupt: %v", err)
		}
		if refErr == nil {
			if canon, _ := json.Marshal(want); bytes.Equal(canon, data) {
				t.Fatalf("Open refused json.Marshal output the reference accepts: %v", err)
			}
		}
	})
}
