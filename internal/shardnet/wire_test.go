package shardnet

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"sstiming/internal/shard"
)

// wireMessageSet returns one fresh instance of every protocol message, so
// decode checks sweep the whole wire surface.
func wireMessageSet() []wireMessage {
	return []wireMessage{
		&CampaignInfo{}, &LeaseRequest{}, &LeaseGrant{}, &LeaseReply{},
		&HeartbeatRequest{}, &HeartbeatReply{},
		&CompleteRequest{}, &CompleteReply{}, &FailRequest{}, &OKReply{},
		&StatusReply{}, &ErrorReply{},
	}
}

// validWireMessages returns one fully-populated valid instance of every
// message type — the fuzz seed corpus and the encode round-trip fixtures.
func validWireMessages() []wireMessage {
	return []wireMessage{
		&CampaignInfo{SchemaVersion: WireVersion, Fingerprint: "abc123", Shards: []shard.Spec{
			{ID: "s00", Index: 0, Cells: []string{"INV"}},
			{ID: "s01", Index: 1, Cells: []string{"NAND2", "NOR2"}},
		}},
		&LeaseRequest{Worker: "w0", IdempotencyKey: "w0-l000001"},
		&LeaseGrant{ShardID: "s00", Index: 0, Attempt: 2, LeaseTTLMs: 800},
		&LeaseReply{Grant: &LeaseGrant{ShardID: "s01", Index: 1, Attempt: 1, LeaseTTLMs: 500}},
		&LeaseReply{Done: true},
		&LeaseReply{RetryAfterMs: 40},
		&HeartbeatRequest{ShardID: "s00", Attempt: 1},
		&HeartbeatReply{Held: true},
		&CompleteRequest{ShardID: "s00", Attempt: 1, Artifact: []byte(`{"SchemaVersion":1}`),
			SHA256: strings.Repeat("ab", 32), IdempotencyKey: "w0-c-s00-a1"},
		&CompleteReply{Status: "accepted"},
		&CompleteReply{Status: "rejected", Reason: "artifact digest mismatch"},
		&FailRequest{ShardID: "s02", Attempt: 3, Reason: "solver diverged"},
		&OKReply{OK: true},
		&StatusReply{Resolved: true, Report: &shard.Report{Shards: 3, Completed: 3}},
		&ErrorReply{Error: "overloaded", Kind: "shed", RetryAfterMs: 50},
	}
}

// checkWireDecode is the fuzz property: for every message type, arbitrary
// peer bytes either decode into a valid message whose canonical re-encoding
// round-trips byte-stably, or fail with an ErrBadMessage-typed error. They
// must never panic and never yield an unvalidated message.
func checkWireDecode(t *testing.T, data []byte) {
	t.Helper()
	for _, msg := range wireMessageSet() {
		err := DecodeMessage(data, msg)
		if err != nil {
			if !errors.Is(err, ErrBadMessage) {
				t.Fatalf("%T: decode error is not ErrBadMessage-typed: %v", msg, err)
			}
			continue
		}
		if verr := msg.Validate(); verr != nil {
			t.Fatalf("%T: DecodeMessage returned a message failing its own Validate: %v", msg, verr)
		}
		enc, eerr := EncodeMessage(msg)
		if eerr != nil {
			t.Fatalf("%T: valid decoded message does not re-encode: %v", msg, eerr)
		}
		fresh := reflect.New(reflect.TypeOf(msg).Elem()).Interface().(wireMessage)
		if derr := DecodeMessage(enc, fresh); derr != nil {
			t.Fatalf("%T: canonical encoding does not decode: %v", msg, derr)
		}
		enc2, eerr := EncodeMessage(fresh)
		if eerr != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("%T: canonical encoding is not byte-stable (%v)", msg, eerr)
		}
	}
}

// malformedWireSeeds are byte patterns that historically trip hand-rolled
// decoders: empty, wrong JSON kinds, unknown fields, truncations, framing
// garbage, and binary junk.
func malformedWireSeeds() [][]byte {
	seeds := [][]byte{
		nil,
		[]byte(""),
		[]byte("{}"),
		[]byte("null"),
		[]byte("[]"),
		[]byte(`"string"`),
		[]byte("42"),
		[]byte(`{"unknown_field":1}`),
		[]byte(`{"worker":"w0","idempotency_key":"k"}{"worker":"w1"}`),
		[]byte(`{"worker":"w0","idempotency_key":"k"} trailing`),
		[]byte(`{"shard_id":"s00","attempt":1e2}`),
		[]byte(`{"shard_id":"s00","attempt":-1}`),
		[]byte(`{"status":"maybe"}`),
		[]byte(`{"shard_id":"s00","attempt":1,"size":512,"sha256":"` + strings.Repeat("ab", 32) + `","idempotency_key":"k"}`),
		[]byte(`{"shard_id":"s00","attempt":1,"artifact":"!not base64!","sha256":"` + strings.Repeat("ab", 32) + `","idempotency_key":"k"}`),
		[]byte(`{"shard_id":"s00","attempt":1,"artifact":"","sha256":"` + strings.Repeat("ab", 32) + `","idempotency_key":"k"}`),
		[]byte(`{"shard_id":"s00","attempt":1,"artifact":null,"sha256":"` + strings.Repeat("ab", 32) + `","idempotency_key":"k"}`),
		[]byte(`{"done":true,"grant":{"shard_id":"s00","index":0,"attempt":1,"lease_ttl_ms":1}}`),
		[]byte(`{"schema_version":99,"fingerprint":"x","shards":[{"ID":"s00","Index":0,"Cells":["INV"]}]}`),
		[]byte("\x00\x01\x02\xff"),
	}
	for _, m := range validWireMessages() {
		b, err := EncodeMessage(m)
		if err != nil {
			panic(err)
		}
		seeds = append(seeds, b)
		if len(b) > 4 {
			seeds = append(seeds, b[:len(b)/2]) // truncated mid-message
		}
	}
	return seeds
}

// FuzzShardWireDecode fuzzes the strict wire decoder across every message
// type: malformed peer bytes must produce typed errors, never panics
// (satellite: wire-protocol fuzz coverage).
func FuzzShardWireDecode(f *testing.F) {
	for _, s := range malformedWireSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireDecode(t, data)
	})
}

// TestWireFuzzSeedsDirect runs the fuzz property over the whole seed corpus
// in ordinary test runs, so the guarantees hold without -fuzz.
func TestWireFuzzSeedsDirect(t *testing.T) {
	for _, s := range malformedWireSeeds() {
		checkWireDecode(t, s)
	}
}

// TestWireRoundTrip: every valid message encodes and decodes back without
// loss, through the same strict path peers use.
func TestWireRoundTrip(t *testing.T) {
	for _, m := range validWireMessages() {
		b, err := EncodeMessage(m)
		if err != nil {
			t.Fatalf("%T: encode: %v", m, err)
		}
		fresh := reflect.New(reflect.TypeOf(m).Elem()).Interface().(wireMessage)
		if err := DecodeMessage(b, fresh); err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, fresh) {
			t.Fatalf("%T: round-trip mismatch:\n  sent %+v\n  got  %+v", m, m, fresh)
		}
	}
}

// TestWireDecodeStrictness: unknown fields, trailing bytes, and contract
// violations are all rejected with the ErrBadMessage taxonomy.
func TestWireDecodeStrictness(t *testing.T) {
	cases := []struct {
		name string
		data string
		into wireMessage
	}{
		{"unknown field", `{"worker":"w0","idempotency_key":"k","extra":1}`, &LeaseRequest{}},
		{"trailing bytes", `{"worker":"w0","idempotency_key":"k"}{}`, &LeaseRequest{}},
		{"missing worker", `{"idempotency_key":"k"}`, &LeaseRequest{}},
		{"zero attempt", `{"shard_id":"s00","attempt":0}`, &HeartbeatRequest{}},
		{"short sha", `{"shard_id":"s00","attempt":1,"artifact":"e30=","sha256":"ab","idempotency_key":"k"}`, &CompleteRequest{}},
		{"bad status", `{"status":"perhaps"}`, &CompleteReply{}},
		{"done and granted", `{"done":true,"grant":{"shard_id":"s","index":0,"attempt":1,"lease_ttl_ms":1}}`, &LeaseReply{}},
		{"wrong schema", `{"schema_version":1,"fingerprint":"x","shards":[{"ID":"s00","Index":0,"Cells":["INV"]}]}`, &CampaignInfo{}},
		{"status without report", `{"resolved":true,"report":null}`, &StatusReply{}},
	}
	for _, c := range cases {
		err := DecodeMessage([]byte(c.data), c.into)
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
			continue
		}
		if !errors.Is(err, ErrBadMessage) {
			t.Errorf("%s: error not ErrBadMessage-typed: %v", c.name, err)
		}
	}
}
