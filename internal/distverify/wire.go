package distverify

// This file is the wire contract of distributed range verification: the
// JSON request/response envelope of planserver's POST /v1/ranges/verify
// endpoint, documented (and executed) in docs/FORMAT.md. Planserver
// imports these types to serve the endpoint; the coordinator in this
// package speaks them as a client. The conversion helpers round-trip
// linecomm values exactly — violation kinds travel by their canonical
// names and are parsed back into the same ViolationKind, vertex sets
// travel as order-bit bitmaps — so a Report merged from responses is
// byte-identical to a local verification.

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"sparsehypercube/internal/bitvec"
	"sparsehypercube/internal/linecomm"
)

// RangeRequest asks a worker to run the open-range stream validator
// (linecomm.ValidateStreamOpen) over one contiguous round range of a
// plan. Exactly one of PlanID and Plan must be set: PlanID names a plan
// previously uploaded to the worker's plan cache (POST /v1/plans); Plan
// carries the range inline, nothing pre-shared.
type RangeRequest struct {
	// PlanID addresses a cached indexed plan on the worker; the range is
	// read from the worker's copy via its round index.
	PlanID string `json:"plan_id,omitempty"`
	// Plan carries the range inline for workers holding nothing.
	Plan *InlinePlan `json:"plan,omitempty"`

	// StartRound and EndRound delimit the absolute round range
	// [start_round, end_round) being verified.
	StartRound int `json:"start_round"`
	EndRound   int `json:"end_round"`

	// SpanCRC is the CRC-32 (IEEE) the coordinator expects of the
	// range's encoded byte span. A worker whose bytes disagree refuses
	// with 409 rather than verifying the wrong bytes.
	SpanCRC uint32 `json:"span_crc"`
}

// InlinePlan is the self-contained form of a range: the cube the plan
// binds to, the broadcast source, and the raw encoded byte span of the
// requested rounds (schedio round encoding, as extracted by
// PlanAt.RangeBytes; base64 in JSON).
type InlinePlan struct {
	K      int    `json:"k"`
	Dims   []int  `json:"dims"`
	Source uint64 `json:"source"`
	Span   []byte `json:"span"`
}

// WireViolation is one validator finding on the wire. Round and Call
// are the 0-based indices of linecomm.Violation (absolute rounds); Kind
// is the kind's canonical name (linecomm.ViolationKind.String).
type WireViolation struct {
	Round int    `json:"round"`
	Call  int    `json:"call"`
	Kind  string `json:"kind"`
	Msg   string `json:"msg"`
}

// RangeResponse is a worker's verdict on one range: the echoed range
// bounds and span CRC, so a coordinator can reject a response that
// answers a different question than it asked, and the range's
// linecomm.OpenRange — its Result and the two vertex sets
// MergeOpenRanges checks.
type RangeResponse struct {
	StartRound int    `json:"start_round"`
	EndRound   int    `json:"end_round"`
	SpanCRC    uint32 `json:"span_crc"`
	// Informed counts the range's own informed set, source included;
	// InformedPerRound is that count after each of its rounds.
	Informed         uint64   `json:"informed"`
	InformedPerRound []uint64 `json:"informed_per_round"`
	MaxCallLength    int      `json:"max_call_length"`
	// InformedBits is the range's own informed set, source included, and
	// AssumedBits the callers it assumed informed by earlier rounds —
	// absent at start_round 0. Each is an order-bit bitmap: ⌈order/64⌉
	// little-endian 64-bit words, vertex v at bit v%64 of word v/64
	// (base64 in JSON).
	InformedBits []byte          `json:"informed_bits,omitempty"`
	AssumedBits  []byte          `json:"assumed_bits,omitempty"`
	Violations   []WireViolation `json:"violations,omitempty"`
}

// ResponseFromOpenRange wraps a range's open validation for the wire.
func ResponseFromOpenRange(part *linecomm.OpenRange, startRound, endRound int, spanCRC uint32) RangeResponse {
	res := part.Result()
	out := RangeResponse{
		StartRound:       startRound,
		EndRound:         endRound,
		SpanCRC:          spanCRC,
		Informed:         res.Informed,
		InformedPerRound: res.InformedPerRound,
		MaxCallLength:    res.MaxCallLength,
		InformedBits:     encodeBits(part.Informed()),
		AssumedBits:      encodeBits(part.Assumed()),
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, WireViolation{
			Round: v.Round, Call: v.Call, Kind: v.Kind.String(), Msg: v.Msg,
		})
	}
	return out
}

// OpenRange rebuilds the worker's linecomm.OpenRange for a cube of the
// given order. Its Result is the exact one the worker computed — kinds
// parsed back from their names, so every Violation.String comes out
// byte-identical; an unknown kind name is an error, since a response
// this code cannot represent must be rejected, not guessed at.
// informed_bits must be present and count exactly informed;
// assumed_bits must be present exactly when start_round is past 0; each
// must be an order-bit bitmap with no bit at or beyond the order.
// Anything else is an error: the response is malformed.
func (r *RangeResponse) OpenRange(order uint64) (*linecomm.OpenRange, error) {
	res := &linecomm.Result{
		Informed:         r.Informed,
		InformedPerRound: r.InformedPerRound,
		MaxCallLength:    r.MaxCallLength,
	}
	for _, v := range r.Violations {
		kind, ok := linecomm.ParseViolationKind(v.Kind)
		if !ok {
			return nil, fmt.Errorf("distverify: unknown violation kind %q", v.Kind)
		}
		res.Violations = append(res.Violations, linecomm.Violation{
			Round: v.Round, Call: v.Call, Kind: kind, Msg: v.Msg,
		})
	}
	informed, err := decodeBits("informed_bits", r.InformedBits, order)
	if err != nil {
		return nil, err
	}
	if n := uint64(informed.Count()); n != r.Informed {
		return nil, fmt.Errorf("distverify: informed_bits holds %d vertices, informed is %d", n, r.Informed)
	}
	var assumed *bitvec.Set
	switch {
	case r.StartRound == 0 && r.AssumedBits != nil:
		return nil, fmt.Errorf("distverify: assumed_bits sent for a range at round 0")
	case r.StartRound > 0:
		if assumed, err = decodeBits("assumed_bits", r.AssumedBits, order); err != nil {
			return nil, err
		}
	}
	return linecomm.NewOpenRange(res, informed, assumed), nil
}

// encodeBits lays a vertex set out as a wire bitmap; nil for a nil set.
func encodeBits(s *bitvec.Set) []byte {
	if s == nil {
		return nil
	}
	words := s.Words()
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// decodeBits checks the wire bitmap field name against a cube of the
// given order and returns its set. A missing bitmap, one of the wrong
// length, or one with a bit at or beyond the order is an error.
func decodeBits(name string, b []byte, order uint64) (*bitvec.Set, error) {
	n := int((order + 63) / 64)
	switch {
	case b == nil:
		return nil, fmt.Errorf("distverify: %s missing", name)
	case len(b) != 8*n:
		return nil, fmt.Errorf("distverify: %s holds %d bytes, an order-%d bitmap is %d", name, len(b), order, 8*n)
	}
	s := bitvec.New(int(order))
	words := s.Words()
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if tail := order % 64; tail != 0 && words[n-1]>>tail != 0 {
		high := uint64(64*(n-1) + bits.Len64(words[n-1]) - 1)
		return nil, fmt.Errorf("distverify: %s sets bit %d outside [0,%d)", name, high, order)
	}
	return s, nil
}
