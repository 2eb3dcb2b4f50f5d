package store

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"sstiming/internal/core"
)

// The journal is the campaign's write-ahead log: one fsynced, CRC-framed
// record per completed cell, appended as soon as the cell's characterisation
// finishes. A SIGKILL mid-campaign therefore costs at most the cell that was
// in flight; everything already journaled replays on -resume.
//
// On-disk layout (<out>.journal/):
//
//	meta.json    — campaign fingerprint (schema version + option hash);
//	               a resume whose options differ is refused with ErrStale.
//	cells.waj    — append-only records:
//	               "waj1 <payload-len> <crc32c-hex>\n" + payload + "\n"
//	               where payload is the compact JSON of one core.CellModel
//	               (health record included). The trailing record may be torn
//	               by a crash; replay verifies length and CRC, keeps the
//	               valid prefix and truncates the tail before new appends.

const (
	journalMetaName  = "meta.json"
	journalCellsName = "cells.waj"
	recordMagic      = "waj1"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fingerprint pins the option set of one characterisation campaign. Two runs
// with equal fingerprints produce byte-identical libraries, so journal
// records are safe to splice between them; anything else is ErrStale.
type Fingerprint struct {
	SchemaVersion int
	Tech          string
	Vdd           float64
	Grid          []float64
	Cells         []string
	TStep         float64
	SkewTol       float64
	SkipPairs     bool
	PaperExactD0  bool
	NCPairs       bool
}

// Hash returns the canonical digest of the fingerprint.
func (fp Fingerprint) Hash() string {
	fp.SchemaVersion = SchemaVersion
	b, err := json.Marshal(fp)
	if err != nil {
		// Fingerprint is plain data; Marshal cannot fail. Keep the
		// signature clean for callers.
		panic("store: marshalling fingerprint: " + err.Error())
	}
	return hashBytes(b)
}

// Journal is an open campaign write-ahead log. Append is safe for concurrent
// use (cell characterisations finish on pool workers).
type Journal struct {
	dir string

	mu sync.Mutex
	f  *os.File
}

// CreateJournal starts a fresh campaign journal at dir, discarding any
// previous journal there (a new campaign invalidates old checkpoints).
func CreateJournal(dir string, fp Fingerprint) (*Journal, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("store: clearing journal %s: %w", dir, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating journal %s: %w", dir, err)
	}
	meta, err := json.MarshalIndent(map[string]any{
		"SchemaVersion": SchemaVersion,
		"Fingerprint":   fp.Hash(),
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("store: encoding journal meta: %w", err)
	}
	if err := writeFileSync(filepath.Join(dir, journalMetaName), append(meta, '\n')); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, journalCellsName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening journal records: %w", err)
	}
	syncDir(dir)
	return &Journal{dir: dir, f: f}, nil
}

// ResumeJournal reopens an existing campaign journal, verifies its
// fingerprint against the requested options, replays every valid record and
// truncates any torn tail so subsequent appends extend the valid prefix.
// The replayed models are keyed by cell name (later records win, though a
// campaign writes each cell at most once).
func ResumeJournal(dir string, fp Fingerprint) (*Journal, map[string]*core.CellModel, error) {
	if err := checkJournalMeta(dir, fp, " (grid/cells/tech/solver settings changed); rerun without -resume"); err != nil {
		return nil, nil, err
	}

	path := filepath.Join(dir, journalCellsName)
	models, validLen, err := replayRecords(path)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: reopening journal records: %w", err)
	}
	// Drop the torn tail (if any) before appending new records after the
	// valid prefix.
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: truncating torn journal tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("store: seeking journal: %w", err)
	}
	return &Journal{dir: dir, f: f}, models, nil
}

// ReplayJournal replays a campaign journal read-only: the meta is verified
// against the fingerprint and every valid record is returned, but the torn
// tail (if any) is left untouched and the journal stays appendable by its
// owner. This is the safe way to salvage the work of a journal another
// writer may still hold — a sharded campaign reassigning a shard whose
// previous worker is merely hung, not dead, must not truncate a file that
// worker could still be appending to.
func ReplayJournal(dir string, fp Fingerprint) (map[string]*core.CellModel, error) {
	if err := checkJournalMeta(dir, fp, ""); err != nil {
		return nil, err
	}
	models, _, err := replayRecords(filepath.Join(dir, journalCellsName))
	return models, err
}

// checkJournalMeta verifies a journal's meta.json against the requested
// fingerprint: unreadable meta and a different fingerprint are ErrStale
// (the latter's message ends in staleHint), invalid JSON ErrCorrupt and
// another schema version ErrSchemaMismatch.
func checkJournalMeta(dir string, fp Fingerprint, staleHint string) error {
	metaBytes, err := os.ReadFile(filepath.Join(dir, journalMetaName))
	if err != nil {
		return fmt.Errorf("%w: journal %s has no readable meta: %v", ErrStale, dir, err)
	}
	var meta struct {
		SchemaVersion int
		Fingerprint   string
	}
	if err := json.Unmarshal(metaBytes, &meta); err != nil {
		return fmt.Errorf("%w: journal meta is not valid JSON: %v", ErrCorrupt, err)
	}
	if meta.SchemaVersion != SchemaVersion {
		return fmt.Errorf("%w: journal schema %d, this build reads %d",
			ErrSchemaMismatch, meta.SchemaVersion, SchemaVersion)
	}
	if meta.Fingerprint != fp.Hash() {
		return fmt.Errorf("%w: journal was written by a campaign with different options%s", ErrStale, staleHint)
	}
	return nil
}

// replayRecords scans the record file via ScanFrames, returning every model
// whose frame verifies (length and CRC) and the byte length of the valid
// prefix. A torn or corrupt frame ends the replay: by the append-then-fsync
// discipline only the final record can be torn, and anything after
// unreadable bytes is unattributable anyway.
func replayRecords(path string) (map[string]*core.CellModel, int64, error) {
	models := make(map[string]*core.CellModel)
	valid, err := ScanFrames(path, func(payload []byte) bool {
		var m core.CellModel
		if err := json.Unmarshal(payload, &m); err != nil || m.Name == "" {
			return false // CRC ok but payload undecodable: writer bug, stop trusting
		}
		if err := m.Validate(); err != nil {
			return false
		}
		models[m.Name] = &m
		return true
	})
	if err != nil {
		return nil, 0, err
	}
	return models, valid, nil
}

// Append journals one completed cell: compact JSON payload framed by a
// length + CRC header, flushed with fsync before returning. Once Append
// returns, the cell survives any crash.
func (j *Journal) Append(m *core.CellModel) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("store: encoding journal record for %q: %w", m.Name, err)
	}
	frame := EncodeFrame(payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("store: journal %s is closed", j.dir)
	}
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("store: appending journal record for %q: %w", m.Name, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: syncing journal record for %q: %w", m.Name, err)
	}
	return nil
}

// Close closes the record file (further Appends fail).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Remove closes the journal and deletes its directory — the campaign
// published its artefact, so the checkpoints are spent.
func (j *Journal) Remove() error {
	if err := j.Close(); err != nil {
		return err
	}
	return os.RemoveAll(j.dir)
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.dir }

// writeFileSync writes bytes to path and fsyncs before closing.
func writeFileSync(path string, b []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: creating %s: %w", path, err)
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: syncing %s: %w", path, err)
	}
	return f.Close()
}

// syncDir fsyncs a directory so renames and creates inside it are durable.
// Best effort: some filesystems refuse directory fsync; the data files
// themselves are already synced.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
