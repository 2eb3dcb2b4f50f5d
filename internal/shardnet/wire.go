// Package shardnet is the HTTP transport for sharded characterisation
// campaigns (internal/shard): a coordinator serves the campaign's lease
// state machine over a small JSON wire protocol, and remote workers pull
// shards, characterise them locally, and send verified artefacts back.
//
// The transport adds no correctness of its own — it forwards everything
// through the shard.Tracker's verify-before-accept path — but it must stay
// trustworthy over a lossy network (DESIGN.md §15):
//
//   - every client call retries with jittered exponential backoff under a
//     per-attempt deadline and a bounded budget, classifying failures as
//     retryable (network errors, 5xx, 429, 409, undecodable replies), fatal
//     (plan mismatch, other 4xx) or lease-lost;
//   - requests carry idempotency keys: a retried lease request re-receives
//     its original grant instead of burning a second lease, and a retried
//     completion whose first acknowledgement was lost re-receives its
//     original resolution;
//   - completing a shard is one exchange: the claim carries the artefact
//     bytes beside their SHA-256, a claim whose bytes do not match the
//     digest is answered 409 without reaching the tracker (the worker
//     re-sends it), and a matching one goes straight to the tracker, which
//     verifies and promotes it atomically;
//   - the coordinator sheds load with 429 + Retry-After (the shared
//     service.Gate) and expires vanished remote workers exactly as
//     in-process leases expire;
//   - a coordinator restart resumes from the campaign directory: promoted
//     artefacts are re-verified, every grant's attempt directory is on disk
//     before the grant is answered, so attempt generations advance past
//     everything handed out, and still-live workers' in-flight leases
//     simply expire and re-grant.
//
// Everything on the wire decodes strictly (unknown fields rejected) into
// validated messages with the ErrBadMessage taxonomy — malformed peer bytes
// produce typed errors, never panics (FuzzShardWireDecode).
package shardnet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"sstiming/internal/shard"
)

// WireVersion is the wire-protocol schema version; every message embeds it
// implicitly through the /shard/v2/ path prefix, so a worker and a
// coordinator of different versions part at the campaign fetch.
const WireVersion = 2

// PathPrefix is the URL prefix all coordinator endpoints live under.
const PathPrefix = "/shard/v2"

// ErrBadMessage marks wire bytes that do not decode into a valid protocol
// message: malformed JSON, unknown fields, or field values violating the
// message's contract. It is the transport-level sibling of store.ErrCorrupt.
var ErrBadMessage = errors.New("shardnet: malformed wire message")

// CampaignInfo advertises the campaign: GET /shard/v2/campaign. Workers
// verify it against their own derived plan (shard.ComparePlan) before any
// work happens.
type CampaignInfo struct {
	SchemaVersion int          `json:"schema_version"`
	Fingerprint   string       `json:"fingerprint"`
	Shards        []shard.Spec `json:"shards"`
}

// Validate checks the message contract.
func (m *CampaignInfo) Validate() error {
	if m.SchemaVersion != WireVersion {
		return fmt.Errorf("%w: campaign schema %d, this build speaks %d", ErrBadMessage, m.SchemaVersion, WireVersion)
	}
	if m.Fingerprint == "" {
		return fmt.Errorf("%w: campaign info without fingerprint", ErrBadMessage)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("%w: campaign info without shards", ErrBadMessage)
	}
	for i, s := range m.Shards {
		if s.ID == "" || s.Index != i || len(s.Cells) == 0 {
			return fmt.Errorf("%w: campaign shard %d is malformed", ErrBadMessage, i)
		}
	}
	return nil
}

// LeaseRequest asks for the next available shard: POST /shard/v2/lease.
// The idempotency key makes the request safe to retry or duplicate: the
// coordinator answers a replayed key with the original grant while that
// grant's lease is live, instead of burning a second lease.
type LeaseRequest struct {
	Worker         string `json:"worker"`
	IdempotencyKey string `json:"idempotency_key"`
}

// Validate checks the message contract.
func (m *LeaseRequest) Validate() error {
	if m.Worker == "" {
		return fmt.Errorf("%w: lease request without worker", ErrBadMessage)
	}
	if m.IdempotencyKey == "" {
		return fmt.Errorf("%w: lease request without idempotency key", ErrBadMessage)
	}
	return nil
}

// LeaseGrant is one granted lease inside a LeaseReply.
type LeaseGrant struct {
	ShardID    string `json:"shard_id"`
	Index      int    `json:"index"`
	Attempt    int    `json:"attempt"`
	LeaseTTLMs int64  `json:"lease_ttl_ms"`
}

// Validate checks the message contract.
func (m *LeaseGrant) Validate() error {
	if m.ShardID == "" || m.Index < 0 || m.Attempt < 1 || m.LeaseTTLMs <= 0 {
		return fmt.Errorf("%w: malformed lease grant %+v", ErrBadMessage, *m)
	}
	return nil
}

// LeaseReply answers a lease request: exactly one of Done (campaign
// resolved, stop asking), Grant (work), or neither (nothing grantable right
// now; retry after RetryAfterMs).
type LeaseReply struct {
	Done         bool        `json:"done,omitempty"`
	RetryAfterMs int64       `json:"retry_after_ms,omitempty"`
	Grant        *LeaseGrant `json:"grant,omitempty"`
}

// Validate checks the message contract.
func (m *LeaseReply) Validate() error {
	if m.Done && m.Grant != nil {
		return fmt.Errorf("%w: lease reply both done and granted", ErrBadMessage)
	}
	if m.Grant != nil {
		return m.Grant.Validate()
	}
	if !m.Done && m.RetryAfterMs < 0 {
		return fmt.Errorf("%w: lease reply with negative retry-after", ErrBadMessage)
	}
	return nil
}

// HeartbeatRequest renews one lease: POST /shard/v2/heartbeat. Naturally
// idempotent — renewing twice is renewing.
type HeartbeatRequest struct {
	ShardID string `json:"shard_id"`
	Attempt int    `json:"attempt"`
}

// Validate checks the message contract.
func (m *HeartbeatRequest) Validate() error {
	if m.ShardID == "" || m.Attempt < 1 {
		return fmt.Errorf("%w: malformed heartbeat %+v", ErrBadMessage, *m)
	}
	return nil
}

// HeartbeatReply reports whether the lease is still held at that attempt.
// Held=false is the lease-lost signal: the worker's result can at best
// become a late, idempotently-absorbed completion.
type HeartbeatReply struct {
	Held bool `json:"held"`
}

// Validate checks the message contract (any value is valid).
func (m *HeartbeatReply) Validate() error { return nil }

// CompleteRequest claims completion of one attempt:
// POST /shard/v2/complete. It carries the artefact itself beside the
// worker's SHA-256 of it; the coordinator hands the bytes to the tracker's
// verify-before-accept path only if they match the digest. The idempotency
// key makes the claim safe to retry after a lost acknowledgement.
type CompleteRequest struct {
	ShardID        string `json:"shard_id"`
	Attempt        int    `json:"attempt"`
	Artifact       []byte `json:"artifact"`
	SHA256         string `json:"sha256"`
	IdempotencyKey string `json:"idempotency_key"`
}

// Validate checks the message contract.
func (m *CompleteRequest) Validate() error {
	if m.ShardID == "" || m.Attempt < 1 {
		return fmt.Errorf("%w: malformed completion claim for shard %q attempt %d", ErrBadMessage, m.ShardID, m.Attempt)
	}
	if len(m.Artifact) == 0 {
		return fmt.Errorf("%w: completion claim without artifact", ErrBadMessage)
	}
	if len(m.SHA256) != 64 {
		return fmt.Errorf("%w: completion claim with %d-char sha256", ErrBadMessage, len(m.SHA256))
	}
	if m.IdempotencyKey == "" {
		return fmt.Errorf("%w: completion claim without idempotency key", ErrBadMessage)
	}
	return nil
}

// CompleteReply resolves a completion claim with the tracker's
// CompleteStatus taxonomy: "accepted" (this claim won the shard),
// "duplicate" (already resolved — success for a retrying client), or
// "rejected" (verification failed; Reason says why).
type CompleteReply struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
}

// Validate checks the message contract.
func (m *CompleteReply) Validate() error {
	switch m.Status {
	case "accepted", "duplicate", "rejected":
		return nil
	}
	return fmt.Errorf("%w: completion status %q", ErrBadMessage, m.Status)
}

// FailRequest reports a worker-side attempt failure (the worker is alive
// but produced no artefact): POST /shard/v2/fail. Idempotent: a stale or
// replayed report of an already-expired lease is absorbed.
type FailRequest struct {
	ShardID string `json:"shard_id"`
	Attempt int    `json:"attempt"`
	Reason  string `json:"reason"`
}

// Validate checks the message contract.
func (m *FailRequest) Validate() error {
	if m.ShardID == "" || m.Attempt < 1 {
		return fmt.Errorf("%w: malformed failure report %+v", ErrBadMessage, *m)
	}
	return nil
}

// OKReply is the generic success acknowledgement for requests with no
// richer answer (fail reports).
type OKReply struct {
	OK bool `json:"ok"`
}

// Validate checks the message contract (any value is valid).
func (m *OKReply) Validate() error { return nil }

// StatusReply summarises campaign progress: GET /shard/v2/status.
type StatusReply struct {
	Resolved bool          `json:"resolved"`
	Report   *shard.Report `json:"report"`
}

// Validate checks the message contract.
func (m *StatusReply) Validate() error {
	if m.Report == nil {
		return fmt.Errorf("%w: status reply without report", ErrBadMessage)
	}
	return nil
}

// ErrorReply is the error body every endpoint answers on non-2xx. Kind is
// a stable machine-readable label ("shed", "bad-message", "unknown-shard",
// "internal"); RetryAfterMs is set on 429.
type ErrorReply struct {
	Error        string `json:"error"`
	Kind         string `json:"kind"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// Validate checks the message contract.
func (m *ErrorReply) Validate() error {
	if m.Error == "" {
		return fmt.Errorf("%w: error reply without message", ErrBadMessage)
	}
	return nil
}

// wireMessage is implemented by every protocol message, so decoding is one
// generic strict path.
type wireMessage interface{ Validate() error }

// DecodeMessage strictly decodes wire bytes into msg: JSON with unknown
// fields rejected, exactly one value, then the message's own Validate.
// Every failure is ErrBadMessage-typed; malformed peer bytes can never
// panic or produce a half-valid message.
func DecodeMessage(b []byte, msg wireMessage) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(msg); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	// Trailing garbage after the value is a framing error, not a message.
	if dec.More() {
		return fmt.Errorf("%w: trailing bytes after message", ErrBadMessage)
	}
	if err := msg.Validate(); err != nil {
		return err
	}
	return nil
}

// EncodeMessage serialises a protocol message (one JSON value, newline
// terminated).
func EncodeMessage(msg wireMessage) ([]byte, error) {
	b, err := json.Marshal(msg)
	if err != nil {
		return nil, fmt.Errorf("shardnet: encoding %T: %w", msg, err)
	}
	return append(b, '\n'), nil
}
