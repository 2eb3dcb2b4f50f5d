// Package sessionlog is the per-session write-ahead log behind timingd's
// crash-recoverable delta-STA sessions. Every /session graph owns one
// directory under the daemon's session root:
//
//	<root>/<session-id>/
//	    meta.json      — schema version, session id, library fingerprint;
//	                     written once, fsynced, before the first frame.
//	    log.waj        — append-only CRC frames (internal/store framing):
//	                     frame 0 is the create record (canonical netlist
//	                     bytes, delay-model options, seed cube), every
//	                     later frame is one applied delta with a monotonic
//	                     sequence number. Appends fsync before returning,
//	                     so a delta is acknowledged to the client only
//	                     after it is durable.
//	    snapshot.json  — optional compaction checkpoint: the converged
//	                     tgraph state (tgraph.EncodeSnapshot), the sequence
//	                     number it folds in, and a SHA-256 over the graph
//	                     bytes, the graph last (see Snapshot). Written
//	                     atomically (temp+fsync+rename).
//
// Compaction is crash-safe by sequence-number dedup: the snapshot is made
// durable first, then the log is atomically rewritten to just the create
// frame. A crash between the two leaves delta frames the snapshot already
// folds in; recovery skips every frame with seq <= snapshot.Seq.
//
// Retirement (eviction, DELETE) renames the directory to <id>.retired and
// removes it — the rename is the atomic commit point, so a crash mid-retire
// leaves either a recoverable session or a cleanable stub, never a
// half-deleted log a restart would resurrect wrongly. Quarantine renames to
// <id>.quarantined and keeps the bytes for post-mortem.
package sessionlog

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"sstiming/internal/jsonread"
	"sstiming/internal/store"
)

const (
	// SchemaVersion pins the record and snapshot encodings.
	SchemaVersion = 1

	metaName = "meta.json"
	logName  = "log.waj"
	snapName = "snapshot.json"

	retiredSuffix     = ".retired"
	quarantinedSuffix = ".quarantined"
)

// Fault-hook operation names. A hook returning an error aborts the
// operation at its crash-equivalent point (see Options.FaultHook).
const (
	// OpAppend fires before a delta frame is appended; a fault leaves a
	// deliberately torn half-frame on disk, exactly what a kill mid-write
	// leaves.
	OpAppend = "append"
	// OpSnapshotWrite fires before the snapshot checkpoint is made
	// durable; a fault aborts compaction with the log untouched.
	OpSnapshotWrite = "snapshot-write"
	// OpCompact fires after the snapshot is durable but before the log is
	// truncated — the mid-compaction crash window seq-dedup exists for.
	OpCompact = "compact"
)

var (
	// ErrCorrupt reports a journal whose meta, create frame or snapshot
	// cannot be trusted; the session quarantines instead of recovering.
	ErrCorrupt = errors.New("sessionlog: corrupt journal")
	// ErrRetired reports an operation on a log that eviction or DELETE
	// already retired; in-flight deltas treat it as "no longer durable,
	// still applied".
	ErrRetired = errors.New("sessionlog: log retired")
)

// Meta identifies a session journal.
type Meta struct {
	SchemaVersion      int    `json:"schema_version"`
	SessionID          string `json:"session_id"`
	LibraryFingerprint string `json:"library_fingerprint"`
}

// PIRecord is a journaled set_pi edit.
type PIRecord struct {
	Net          string  `json:"net"`
	ArrivalEarly float64 `json:"arrival_early"`
	ArrivalLate  float64 `json:"arrival_late"`
	TransShort   float64 `json:"trans_short"`
	TransLong    float64 `json:"trans_long"`
}

// SwapRecord is a journaled swap_gate edit.
type SwapRecord struct {
	Net  string `json:"net"`
	Kind string `json:"kind"`
}

// Record is one journal frame: the create record (Kind "create") or one
// applied delta (Kind "delta"). A delta records exactly the sub-edits that
// were applied to the live graph, in the canonical apply order
// (cube, set_pi, swap_gate) — a delta that failed partway journals only its
// applied prefix, so replay reproduces the live state including rollbacks.
type Record struct {
	Kind string `json:"kind"`
	// Seq is the frame's monotonic sequence number (0 for create).
	Seq int64 `json:"seq"`

	// Create fields.
	Netlist     string            `json:"netlist,omitempty"` // .bench text (netlist.Circuit.Write)
	Mode        string            `json:"mode,omitempty"`
	NCExtension bool              `json:"nc_extension,omitempty"`
	Cube        map[string]string `json:"cube,omitempty"` // seed cube, two-frame values

	// Delta fields.
	Edit    int64             `json:"edit,omitempty"` // edit counter after this delta (0 if it errored)
	Assign  map[string]string `json:"assign,omitempty"`
	Retract []string          `json:"retract,omitempty"`
	SetPI   *PIRecord         `json:"set_pi,omitempty"`
	Swap    *SwapRecord       `json:"swap_gate,omitempty"`
}

// Empty reports whether a delta record carries no applied sub-edits (nothing
// to journal).
func (r Record) Empty() bool {
	return len(r.Assign) == 0 && len(r.Retract) == 0 && r.SetPI == nil && r.Swap == nil
}

// DecodeRecord decodes and validates one journal frame payload. All
// failures are typed; malformed bytes never panic.
func DecodeRecord(payload []byte) (Record, error) {
	var r Record
	if err := json.Unmarshal(payload, &r); err != nil {
		return Record{}, fmt.Errorf("%w: frame payload: %v", ErrCorrupt, err)
	}
	switch r.Kind {
	case "create":
		if r.Netlist == "" {
			return Record{}, fmt.Errorf("%w: create frame has no netlist", ErrCorrupt)
		}
		if r.Seq != 0 {
			return Record{}, fmt.Errorf("%w: create frame has seq %d", ErrCorrupt, r.Seq)
		}
	case "delta":
		if r.Seq <= 0 {
			return Record{}, fmt.Errorf("%w: delta frame has seq %d", ErrCorrupt, r.Seq)
		}
	default:
		return Record{}, fmt.Errorf("%w: unknown frame kind %q", ErrCorrupt, r.Kind)
	}
	return r, nil
}

// Snapshot is the compaction checkpoint sidecar, written by Compact as
// json.Marshal of this struct. Open reads it back in that exact form and
// relies on the field order: Graph is the last field, so Open takes the
// graph bytes as the rest of the file without parsing them (the digest
// vouches for them). Keep Graph last.
type Snapshot struct {
	SchemaVersion int    `json:"schema_version"`
	SessionID     string `json:"session_id"`
	// Seq is the last delta sequence number folded into Graph; recovery
	// skips journal frames with seq <= Seq.
	Seq int64 `json:"seq"`
	// Edit is the session's edit counter at the checkpoint.
	Edit int64 `json:"edit"`
	// SHA256 is the hex digest of Graph (defence against bit rot — the
	// snapshot is written atomically, so tearing is already excluded).
	SHA256 string `json:"sha256"`
	// Graph is tgraph.EncodeSnapshot output. It must stay the last field.
	Graph json.RawMessage `json:"graph"`
}

// decodeSnapshot reads a sidecar in the form Compact's json.Marshal writes
// it: the header fields in declaration order, then the graph, which Graph
// takes as a subslice of data — the field is last, so it runs to the
// sidecar's closing brace. The graph bytes are not parsed here; the
// digest is what vouches for them, and tgraph.RestoreSnapshot parses
// them. Any other form is ErrCorrupt.
func decodeSnapshot(data []byte, sessionID string) (*Snapshot, error) {
	r := jsonread.New(data)
	r.Expect(`{"schema_version":`)
	version := r.Int()
	r.Expect(`,"session_id":`)
	id := r.Text()
	r.Expect(`,"seq":`)
	seq := r.Int()
	r.Expect(`,"edit":`)
	edit := r.Int()
	r.Expect(`,"sha256":`)
	sum := string(r.Text())
	r.Expect(`,"graph":`)
	rest := r.Rest()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	if len(rest) < 2 || rest[len(rest)-1] != '}' {
		return nil, fmt.Errorf("%w: snapshot does not end with its graph", ErrCorrupt)
	}
	if version != SchemaVersion || string(id) != sessionID {
		return nil, fmt.Errorf("%w: snapshot identity mismatch", ErrCorrupt)
	}
	graph := rest[:len(rest)-1]
	if digest := sha256.Sum256(graph); hex.EncodeToString(digest[:]) != sum {
		return nil, fmt.Errorf("%w: snapshot graph digest mismatch", ErrCorrupt)
	}
	return &Snapshot{SchemaVersion: SchemaVersion, SessionID: sessionID, Seq: seq, Edit: edit, SHA256: sum, Graph: graph}, nil
}

// State is everything recovery needs about one journal: its identity, the
// create record, the newest durable checkpoint (if any) and the delta
// records that postdate it, already torn-tail-truncated and seq-deduped.
type State struct {
	Meta     Meta
	Create   Record
	Snapshot *Snapshot
	Deltas   []Record
	// LastSeq is the highest durable sequence number (snapshot or delta);
	// new appends continue from LastSeq+1.
	LastSeq int64
}

// Log is one session's open write-ahead log. Appends are serialized by the
// log's own mutex (the service additionally holds a per-session lock around
// whole deltas); Retire may race an in-flight Append and wins cleanly.
type Log struct {
	dir  string
	hook func(op string) error

	mu           sync.Mutex
	f            *os.File
	retired      bool
	bytes        int64 // current log file size
	sinceCompact int64 // delta frames since the last compaction
	createFrame  []byte
}

// Options configure a Log.
type Options struct {
	// FaultHook, when non-nil, is consulted before each durability
	// operation (OpAppend, OpSnapshotWrite, OpCompact); a non-nil error
	// aborts the operation at its crash-equivalent point. Chaos tests use
	// it to simulate kills; production passes nil.
	FaultHook func(op string) error
}

func (o Options) hook(op string) error {
	if o.FaultHook == nil {
		return nil
	}
	return o.FaultHook(op)
}

// Create starts a fresh session journal at dir. The meta file and the
// create frame are durable before Create returns; dir must not exist yet
// (session ids are unique per boot).
func Create(dir string, meta Meta, create Record, opts Options) (*Log, error) {
	if create.Kind != "create" || create.Netlist == "" {
		return nil, fmt.Errorf("sessionlog: create record must have kind \"create\" and a netlist")
	}
	meta.SchemaVersion = SchemaVersion
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return nil, fmt.Errorf("sessionlog: creating session root: %w", err)
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionlog: creating %s: %w", dir, err)
	}
	metaBytes, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sessionlog: encoding meta: %w", err)
	}
	if err := store.WriteFileSync(filepath.Join(dir, metaName), append(metaBytes, '\n')); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(create)
	if err != nil {
		return nil, fmt.Errorf("sessionlog: encoding create record: %w", err)
	}
	frame := store.EncodeFrame(payload)
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sessionlog: opening log: %w", err)
	}
	if _, err := f.Write(frame); err != nil {
		f.Close()
		return nil, fmt.Errorf("sessionlog: writing create frame: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("sessionlog: syncing create frame: %w", err)
	}
	store.SyncDir(dir)
	return &Log{
		dir: dir, hook: opts.FaultHook,
		f: f, bytes: int64(len(frame)), createFrame: frame,
	}, nil
}

// Open reopens an existing session journal for recovery: the meta and
// snapshot are validated, the log is scanned with torn-tail truncation, and
// frames already folded into the snapshot are dropped. The returned Log is
// appendable from the trusted prefix. Validation failures are typed
// ErrCorrupt; the caller quarantines the directory.
func Open(dir string, opts Options) (*Log, *State, error) {
	st := &State{}
	metaBytes, err := os.ReadFile(filepath.Join(dir, metaName))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: no readable meta: %v", ErrCorrupt, err)
	}
	if err := json.Unmarshal(metaBytes, &st.Meta); err != nil {
		return nil, nil, fmt.Errorf("%w: meta is not valid JSON: %v", ErrCorrupt, err)
	}
	if st.Meta.SchemaVersion != SchemaVersion {
		return nil, nil, fmt.Errorf("%w: schema %d, this build reads %d", ErrCorrupt, st.Meta.SchemaVersion, SchemaVersion)
	}
	if st.Meta.SessionID != filepath.Base(dir) {
		return nil, nil, fmt.Errorf("%w: meta session id %q does not match directory %q", ErrCorrupt, st.Meta.SessionID, filepath.Base(dir))
	}

	snapBytes, err := os.ReadFile(filepath.Join(dir, snapName))
	switch {
	case os.IsNotExist(err):
		// No checkpoint: full-log replay.
	case err != nil:
		return nil, nil, fmt.Errorf("%w: reading snapshot: %v", ErrCorrupt, err)
	default:
		snap, err := decodeSnapshot(snapBytes, st.Meta.SessionID)
		if err != nil {
			return nil, nil, err
		}
		st.Snapshot = snap
		st.LastSeq = snap.Seq
	}

	logPath := filepath.Join(dir, logName)
	var (
		sawCreate bool
		lastSeq   int64
		frames    int
		createRaw []byte
	)
	valid, err := store.ScanFrames(logPath, func(payload []byte) bool {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return false // undecodable past the CRC: stop trusting the file here
		}
		frames++
		if frames == 1 {
			if rec.Kind != "create" {
				return false
			}
			sawCreate = true
			st.Create = rec
			createRaw = append([]byte(nil), payload...)
			return true
		}
		if rec.Kind != "delta" || rec.Seq <= lastSeq {
			return false // out-of-order writer bug: the prefix before it stays trusted
		}
		lastSeq = rec.Seq
		if rec.Seq > st.LastSeq {
			st.LastSeq = rec.Seq
		}
		if st.Snapshot == nil || rec.Seq > st.Snapshot.Seq {
			st.Deltas = append(st.Deltas, rec)
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if !sawCreate {
		return nil, nil, fmt.Errorf("%w: log has no create frame", ErrCorrupt)
	}

	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("sessionlog: reopening log: %w", err)
	}
	// Drop the torn tail (if any) so new appends extend the valid prefix.
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sessionlog: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("sessionlog: seeking log: %w", err)
	}
	return &Log{
		dir: dir, hook: opts.FaultHook,
		f: f, bytes: valid,
		sinceCompact: int64(len(st.Deltas)),
		createFrame:  store.EncodeFrame(createRaw),
	}, st, nil
}

// Append journals one applied delta and fsyncs before returning: once
// Append returns nil, the delta survives any crash and may be acknowledged.
// Appending to a retired log returns ErrRetired.
func (l *Log) Append(rec Record) error {
	if rec.Kind != "delta" || rec.Seq <= 0 {
		return fmt.Errorf("sessionlog: append wants a delta record with seq > 0, got kind %q seq %d", rec.Kind, rec.Seq)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sessionlog: encoding delta %d: %w", rec.Seq, err)
	}
	frame := store.EncodeFrame(payload)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retired || l.f == nil {
		return ErrRetired
	}
	if err := l.fault(OpAppend); err != nil {
		// Crash-equivalent abort: leave a torn half-frame, exactly what a
		// kill between write and fsync leaves on disk.
		l.f.Write(frame[:len(frame)/2])
		l.f.Sync()
		return fmt.Errorf("sessionlog: appending delta %d: %w", rec.Seq, err)
	}
	if _, err := l.f.Write(frame); err != nil {
		return fmt.Errorf("sessionlog: appending delta %d: %w", rec.Seq, err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("sessionlog: syncing delta %d: %w", rec.Seq, err)
	}
	l.bytes += int64(len(frame))
	l.sinceCompact++
	return nil
}

func (l *Log) fault(op string) error {
	if l.hook == nil {
		return nil
	}
	return l.hook(op)
}

// Compact checkpoints the converged graph and truncates the log: the
// snapshot is made durable first (atomic temp+fsync+rename), then the log
// is atomically rewritten to contain only the create frame. A crash between
// the two steps leaves delta frames the snapshot already folds in; Open's
// seq-dedup drops them.
func (l *Log) Compact(snap Snapshot) error {
	snap.SchemaVersion = SchemaVersion
	// json.Marshal compacts and HTML-escapes a RawMessage, so the graph is
	// put in that form once and the digest covers exactly the bytes the
	// sidecar holds (tgraph.EncodeSnapshot output is already in that form
	// and comes out unchanged). The graph is the last field: the header is
	// marshalled with a null graph and the graph appended in its place, so
	// the graph is not compacted a second time.
	graph, err := json.Marshal(snap.Graph)
	if err != nil {
		return fmt.Errorf("sessionlog: encoding snapshot graph: %w", err)
	}
	digest := sha256.Sum256(graph)
	snap.SHA256 = hex.EncodeToString(digest[:])
	snap.Graph = nil
	head, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("sessionlog: encoding snapshot: %w", err)
	}
	snapBytes := append(append(bytes.TrimSuffix(head, []byte("null}")), graph...), '}')

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retired || l.f == nil {
		return ErrRetired
	}
	if err := l.fault(OpSnapshotWrite); err != nil {
		return fmt.Errorf("sessionlog: writing snapshot: %w", err)
	}
	if err := store.AtomicWrite(filepath.Join(l.dir, snapName), snapBytes); err != nil {
		return err
	}
	if err := l.fault(OpCompact); err != nil {
		return fmt.Errorf("sessionlog: compacting log: %w", err)
	}
	// Rewrite the log as create-frame-only via the same atomic discipline.
	tmp, err := os.CreateTemp(l.dir, logName+".tmp-*")
	if err != nil {
		return fmt.Errorf("sessionlog: creating compacted log: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(l.createFrame); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("sessionlog: writing compacted log: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("sessionlog: syncing compacted log: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sessionlog: closing compacted log: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(l.dir, logName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("sessionlog: publishing compacted log: %w", err)
	}
	store.SyncDir(l.dir)
	// The old append handle now points at the unlinked file; switch to the
	// compacted one.
	old := l.f
	f, err := os.OpenFile(filepath.Join(l.dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("sessionlog: reopening compacted log: %w", err)
	}
	old.Close()
	l.f = f
	l.bytes = int64(len(l.createFrame))
	l.sinceCompact = 0
	return nil
}

// SizeBytes returns the current log file size (compaction policy input).
func (l *Log) SizeBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// DeltasSinceCompact returns the number of delta frames appended since the
// last compaction (or open).
func (l *Log) DeltasSinceCompact() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceCompact
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Close closes the append handle; further Appends fail with ErrRetired.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// Retire permanently removes the journal (eviction, DELETE): the directory
// is atomically renamed to <id>.retired — the commit point — and then
// deleted. A crash after the rename leaves a stub the next boot cleans up
// instead of resurrecting. Retire is idempotent and safe to race with an
// in-flight Append, which observes ErrRetired.
func (l *Log) Retire() error {
	l.mu.Lock()
	if l.retired {
		l.mu.Unlock()
		return nil
	}
	l.retired = true
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
	l.mu.Unlock()

	retired := l.dir + retiredSuffix
	if err := os.Rename(l.dir, retired); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("sessionlog: retiring %s: %w", l.dir, err)
	}
	store.SyncDir(filepath.Dir(l.dir))
	if err := os.RemoveAll(retired); err != nil {
		return fmt.Errorf("sessionlog: removing retired %s: %w", retired, err)
	}
	return nil
}

// Quarantine renames a session directory to <id>.quarantined, keeping the
// bytes for post-mortem while making sure the next boot does not retry a
// journal that already failed recovery. It returns the new path.
func Quarantine(dir string) (string, error) {
	dst := dir + quarantinedSuffix
	for i := 2; ; i++ {
		if _, err := os.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s%s.%d", dir, quarantinedSuffix, i)
	}
	if err := os.Rename(dir, dst); err != nil {
		return "", fmt.Errorf("sessionlog: quarantining %s: %w", dir, err)
	}
	store.SyncDir(filepath.Dir(dir))
	return dst, nil
}

// Scan lists the recoverable session directories under root, cleaning up
// crash-mid-retire stubs (<id>.retired is past its commit point — finish
// the delete) and skipping quarantined ones. A missing root scans as empty.
func Scan(root string) ([]string, error) {
	entries, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sessionlog: scanning %s: %w", root, err)
	}
	var dirs []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasSuffix(name, retiredSuffix):
			os.RemoveAll(filepath.Join(root, name))
		case strings.Contains(name, quarantinedSuffix):
			// Kept for post-mortem; never replayed.
		default:
			dirs = append(dirs, filepath.Join(root, name))
		}
	}
	return dirs, nil
}
