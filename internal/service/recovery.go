package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sstiming/internal/engine"
	"sstiming/internal/sessionlog"
	"sstiming/internal/tgraph"
)

// This file is timingd's restart story: RecoverSessions scans the session
// directory at boot and rebuilds every journaled session byte-identical to
// its pre-crash state — snapshot restore (when a compaction checkpoint
// exists) plus replay of the delta frames that postdate it, through the
// exact code path live deltas take (parseDeltaOps/applyDelta), so a
// replayed edit and the original edit cannot diverge.
//
// Recovery is fail-soft per session: a journal that cannot be trusted
// (torn beyond the CRC prefix, rotten snapshot, library fingerprint
// mismatch, replay failure) is quarantined — the directory is renamed to
// <id>.quarantined for post-mortem and the ID answers a reasoned 404 —
// instead of wedging the whole daemon's startup.

// Quarantine reasons, also the tombstone text behind the reasoned 404.
const (
	// quarCorrupt marks a journal whose bytes cannot be trusted.
	quarCorrupt = "corrupt-journal"
	// quarFingerprint marks a journal written under a different cell
	// library than the one now serving: replaying it would silently
	// produce windows the client never saw.
	quarFingerprint = "library-fingerprint-mismatch"
	// quarReplay marks a journal whose bytes decoded fine but whose
	// edits no longer apply (e.g. a gate budget or netlist semantic
	// changed across versions).
	quarReplay = "replay-failed"
)

// RecoverSessions rebuilds resident sessions from the session directory's
// write-ahead journals. Call it once at boot, after New and before
// serving. With no SessionDir configured it is a no-op. The error return
// is reserved for an unusable session root; per-session failures
// quarantine and count instead.
func (s *Server) RecoverSessions() (recovered, quarantined int, err error) {
	if s.opts.SessionDir == "" {
		return 0, 0, nil
	}
	if err := os.MkdirAll(s.opts.SessionDir, 0o755); err != nil {
		return 0, 0, fmt.Errorf("service: creating session dir: %w", err)
	}
	dirs, err := sessionlog.Scan(s.opts.SessionDir)
	if err != nil {
		return 0, 0, err
	}
	// Deterministic recovery order; session IDs sort by creation order
	// within a boot, so LRU pressure (if the cap shrank) evicts oldest.
	sort.Strings(dirs)
	ls := s.libstate()
	for _, dir := range dirs {
		lg, st, err := sessionlog.Open(dir, sessionlog.Options{FaultHook: s.opts.SessionLogFaultHook})
		if err != nil {
			s.quarantineSession(dir, quarCorrupt, err)
			quarantined++
			continue
		}
		if st.Meta.LibraryFingerprint != ls.fp {
			_ = lg.Close()
			s.quarantineSession(dir, quarFingerprint,
				fmt.Errorf("journal library %s, serving %s", st.Meta.LibraryFingerprint, ls.fp))
			quarantined++
			continue
		}
		sess, err := s.replaySession(st, ls)
		if err != nil {
			_ = lg.Close()
			reason := quarReplay
			if errors.Is(err, sessionlog.ErrCorrupt) || errors.Is(err, tgraph.ErrBadSnapshot) {
				reason = quarCorrupt
			}
			s.quarantineSession(dir, reason, err)
			quarantined++
			continue
		}
		sess.log = lg
		sess.seq = st.LastSeq
		s.sessions.put(sess)
		s.met.Add(engine.SvcSessionRecovered, 1)
		recovered++
	}
	return recovered, quarantined, nil
}

// quarantineSession renames a failed journal out of the recovery scan and
// entombs its ID so lookups answer a 404 naming the reason.
func (s *Server) quarantineSession(dir string, reason string, cause error) {
	id := filepath.Base(dir)
	dst, err := sessionlog.Quarantine(dir)
	if err != nil {
		// The rename failed; the directory will be re-scanned (and
		// presumably re-fail) next boot. Still entomb and count.
		dst = dir
	}
	s.sessions.entombExternal(id, reason)
	s.met.Add(engine.SvcSessionQuarantined, 1)
	log.Printf("service: session %s quarantined (%s) at %s: %v", id, reason, dst, cause)
}

// replaySession rebuilds one session from its journal state: snapshot
// restore or create-record rebuild, then the post-snapshot deltas through
// the live applyDelta path. The rebuilt graph is byte-identical to the
// pre-crash one: snapshots round-trip windows via math.Float64bits, and
// replayed deltas re-run the same pure window arithmetic the originals
// did.
func (s *Server) replaySession(st *sessionlog.State, ls *libState) (*session, error) {
	mode, err := parseMode(st.Create.Mode)
	if err != nil {
		return nil, fmt.Errorf("%w: create record: %v", sessionlog.ErrCorrupt, err)
	}
	topts := tgraph.Options{
		Lib:         ls.lib,
		Mode:        mode,
		NCExtension: st.Create.NCExtension,
		Metrics:     s.met,
	}
	var g *tgraph.Graph
	var edit int64
	if st.Snapshot != nil {
		g, err = tgraph.RestoreSnapshot(st.Snapshot.Graph, topts)
		if err != nil {
			return nil, err
		}
		edit = st.Snapshot.Edit
	} else {
		c, err := parseCircuit(st.Create.Netlist, "bench")
		if err != nil {
			return nil, fmt.Errorf("%w: create netlist: %v", sessionlog.ErrCorrupt, err)
		}
		cube, err := parseCube(st.Create.Cube)
		if err != nil {
			return nil, fmt.Errorf("%w: create cube: %v", sessionlog.ErrCorrupt, err)
		}
		g, err = tgraph.NewWithCube(c, cube, topts)
		if err != nil {
			return nil, err
		}
	}
	for _, rec := range st.Deltas {
		ops, err := parseDeltaOps(rec.Assign, rec.Retract, rec.SetPI, rec.Swap)
		if err != nil {
			return nil, fmt.Errorf("%w: delta %d: %v", sessionlog.ErrCorrupt, rec.Seq, err)
		}
		// Replay runs without a client deadline: the journal only holds
		// edits that completed on the live graph, so each must re-apply.
		if _, _, err := applyDelta(context.Background(), g, ops); err != nil {
			return nil, fmt.Errorf("replaying delta %d: %w", rec.Seq, err)
		}
		if rec.Edit > edit {
			edit = rec.Edit
		}
	}
	sess := &session{
		id:      st.Meta.SessionID,
		circuit: g.Circuit(),
		mode:    mode,
		created: time.Now(),
		graph:   g,
	}
	sess.edits.Store(edit)
	return sess, nil
}
