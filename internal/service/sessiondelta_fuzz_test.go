package service

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"sstiming/internal/sessionlog"
	"sstiming/internal/store"
)

// FuzzSessionDeltaDecode fuzzes the two decode surfaces a delta crosses:
// the /session/{id}/delta JSON wire format (through the same
// parseDeltaOps validation live requests and journal replay share) and
// the journal frame decoder (raw payload, and framed through the CRC
// scanner both as hostile file bytes and as a well-framed hostile
// payload). Neither may panic, and every rejection must be a typed error
// — the journal side always wraps sessionlog.ErrCorrupt, which is what
// keeps recovery's quarantine taxonomy honest. Corpus seeds are the
// bodies the session lifecycle tests exercise.
func FuzzSessionDeltaDecode(f *testing.F) {
	for _, seed := range []string{
		`{"assign":{"1":"01"},"windows":true}`,
		`{"assign":{"1":"1x","7":"x0"},"retract":["2"]}`,
		`{"retract":["1"]}`,
		`{"set_pi":{"net":"1","arrival_early_s":1e-10,"arrival_late_s":3.5e-10,"trans_short_s":1.5e-10,"trans_long_s":4e-10}}`,
		`{"swap_gate":{"net":"10","kind":"nor"}}`,
		`{"swap_gate":{"net":"10","kind":"NOT"}}`,
		`{"swap_gate":{"net":"10","kind":"buf"}}`,
		`{"assign":{"1":"2x"}}`,
		`{"kind":"delta","seq":1,"edit":1,"assign":{"1":"01"}}`,
		`{"kind":"delta","seq":2,"swap_gate":{"net":"10","kind":"nand"}}`,
		`{"kind":"create","seq":0,"netlist":"INPUT(1)\nOUTPUT(2)\n2 = NOT(1)\n","mode":"proposed"}`,
		`{"kind":"create","seq":3}`,
		`{"kind":"???"}`,
		"waj1 4096 0badc0de\n{\"kind\":\"del",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Wire format: whatever unmarshals must validate without panicking.
		var req SessionDeltaRequest
		if err := json.Unmarshal(data, &req); err == nil {
			var setPI *sessionlog.PIRecord
			if req.SetPI != nil {
				setPI = &sessionlog.PIRecord{
					Net:          req.SetPI.Net,
					ArrivalEarly: req.SetPI.ArrivalEarly,
					ArrivalLate:  req.SetPI.ArrivalLate,
					TransShort:   req.SetPI.TransShort,
					TransLong:    req.SetPI.TransLong,
				}
			}
			var swap *sessionlog.SwapRecord
			if req.SwapGate != nil {
				swap = &sessionlog.SwapRecord{Net: req.SwapGate.Net, Kind: req.SwapGate.Kind}
			}
			if ops, err := parseDeltaOps(req.Assign, req.Retract, setPI, swap); err == nil && swap != nil {
				if _, kerr := parseGateKind(swap.Kind); kerr != nil {
					t.Fatalf("parseDeltaOps accepted a gate kind parseGateKind rejects: %q", swap.Kind)
				}
				// The journaled name must parse back to the same kind.
				if k, kerr := parseGateKind(kindName(ops.swapKind)); kerr != nil || k != ops.swapKind {
					t.Fatalf("kindName(%v) = %q does not parse back: %v, %v", ops.swapKind, kindName(ops.swapKind), k, kerr)
				}
			}
		}

		// Journal frame payload: typed rejection, never a panic.
		if _, err := sessionlog.DecodeRecord(data); err != nil && !errors.Is(err, sessionlog.ErrCorrupt) {
			t.Fatalf("DecodeRecord returned an untyped error: %v", err)
		}

		// The bytes as a hostile journal file: the CRC scanner must treat
		// anything undecodable as a torn tail, not an IO failure.
		dir := t.TempDir()
		path := filepath.Join(dir, "log.waj")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		valid, err := store.ScanFrames(path, func(payload []byte) bool {
			_, derr := sessionlog.DecodeRecord(payload)
			return derr == nil
		})
		if err != nil {
			t.Fatalf("ScanFrames over hostile bytes: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("ScanFrames trusted %d bytes of a %d-byte file", valid, len(data))
		}

		// The bytes as a well-framed hostile payload: the frame must scan
		// (CRC is over these exact bytes) and decoding must stay typed.
		// Empty payloads are out of scope: the frame format rejects
		// zero-length payloads by design (journal records are JSON objects).
		if len(data) == 0 {
			return
		}
		framed := store.EncodeFrame(data)
		if err := os.WriteFile(path, framed, 0o644); err != nil {
			t.Fatal(err)
		}
		scanned := false
		valid, err = store.ScanFrames(path, func(payload []byte) bool {
			scanned = true
			_, derr := sessionlog.DecodeRecord(payload)
			return derr == nil || errors.Is(derr, sessionlog.ErrCorrupt)
		})
		if err != nil {
			t.Fatalf("ScanFrames over a framed payload: %v", err)
		}
		if !scanned || valid != int64(len(framed)) {
			t.Fatalf("framed payload did not scan whole: visited=%v valid=%d want %d", scanned, valid, len(framed))
		}
	})
}
