package distverify

// This file is the wire contract of distributed range verification: the
// JSON request/response envelope of planserver's POST /v1/ranges/verify
// endpoint, documented (and executed) in docs/FORMAT.md. Planserver
// imports these types to serve the endpoint; the coordinator in this
// package speaks them as a client. The conversion helpers round-trip
// linecomm values exactly — violation kinds travel by their canonical
// names and are parsed back into the same ViolationKind — so a Report
// stitched from responses is byte-identical to a local verification.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"sparsehypercube/internal/linecomm"
)

// RangeRequest asks a worker to run the seeded stream validator over
// one contiguous round range of a plan. Exactly one of PlanID and Plan
// must be set: PlanID names a plan previously uploaded to the worker's
// plan cache (POST /v1/plans); Plan carries the range inline, nothing
// pre-shared.
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

	// Seed lists the vertices (beyond the source) informed by rounds
	// [0, start_round) — the coordinator's structural pass output,
	// exactly what linecomm.CollectInformedStream returns for them.
	Seed []uint64 `json:"seed,omitempty"`
	// SeedBits is the same informed set as an order-bit bitmap:
	// ⌈order/64⌉ little-endian 64-bit words, vertex v at bit v%64 of
	// word v/64 (base64 in JSON). At most one of Seed and SeedBits may
	// be set. The coordinator sends every non-empty seed in this form,
	// at most ⌈order/6⌉ bytes however many vertices it holds; workers
	// accept both.
	SeedBits []byte `json:"seed_bits,omitempty"`

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

// ResolveSeed checks the request's seed, in whichever form it came,
// against a cube of the given order and returns the seed list
// linecomm.ValidateStreamSeeded takes, plus the informed count when
// start_round begins: |seed ∪ {source}|, the SeedInformed echo. The
// source must be below order. Carrying both forms, a bitmap of the
// wrong length or with a bit at or beyond order, and a listed vertex
// outside the cube are errors: the request is malformed. Nothing is
// sized by order before the bitmap's length is checked, so memory stays
// bounded by the request, however large the cube.
func (r *RangeRequest) ResolveSeed(order, source uint64) ([]uint64, uint64, error) {
	switch {
	case r.Seed != nil && r.SeedBits != nil:
		return nil, 0, errors.New("at most one of seed and seed_bits may be set")
	case r.SeedBits != nil:
		n := seedWords(order)
		if len(r.SeedBits) != 8*n {
			return nil, 0, fmt.Errorf("seed_bits holds %d bytes, an order-%d bitmap is %d", len(r.SeedBits), order, 8*n)
		}
		words := make([]uint64, n)
		for i := range words {
			words[i] = binary.LittleEndian.Uint64(r.SeedBits[8*i:])
		}
		if tail := order % 64; tail != 0 && words[n-1]>>tail != 0 {
			high := uint64(64*(n-1) + bits.Len64(words[n-1]) - 1)
			return nil, 0, fmt.Errorf("seed_bits sets bit %d outside [0,%d)", high, order)
		}
		return seedList(words), informedWith(words, source), nil
	}
	for _, v := range r.Seed {
		// The validator's bit-set state seeds by index; an out-of-range
		// vertex is a malformed request, not a violation to report.
		if v >= order {
			return nil, 0, fmt.Errorf("seed vertex %d outside [0,%d)", v, order)
		}
	}
	return r.Seed, listInformed(r.Seed, source), nil
}

// seedWords returns the number of 64-bit words in an order-bit seed
// bitmap.
func seedWords(order uint64) int { return int((order + 63) / 64) }

// setSeedBits adds the vertices vs to the seed bitmap words.
func setSeedBits(words, vs []uint64) {
	for _, v := range vs {
		words[v/64] |= 1 << (v % 64)
	}
}

// encodeSeedBits lays a seed bitmap out as the seed_bits bytes.
func encodeSeedBits(words []uint64) []byte {
	out := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(out[8*i:], w)
	}
	return out
}

// seedList expands a seed bitmap into its ascending vertex list.
func seedList(words []uint64) []uint64 {
	out := make([]uint64, 0, popCount(words))
	for i, w := range words {
		for ; w != 0; w &= w - 1 {
			out = append(out, uint64(64*i+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// informedWith is the seed_informed count of a seed bitmap:
// |words ∪ {source}|.
func informedWith(words []uint64, source uint64) uint64 {
	n := popCount(words)
	if words[source/64]&(1<<(source%64)) == 0 {
		n++
	}
	return n
}

// listInformed is the seed_informed count of a seed list, which may
// repeat vertices: |list ∪ {source}|.
func listInformed(list []uint64, source uint64) uint64 {
	set := append(make([]uint64, 0, len(list)+1), list...)
	set = append(set, source)
	slices.Sort(set)
	return uint64(len(slices.Compact(set)))
}

func popCount(words []uint64) uint64 {
	var n int
	for _, w := range words {
		n += bits.OnesCount64(w)
	}
	return uint64(n)
}

// RangeResponse is a worker's verdict on one range: the
// linecomm.Result of the seeded validator, plus the echoed range
// bounds, span CRC and seeded informed count, so a coordinator can
// reject a response that answers a different question than it asked.
type RangeResponse struct {
	StartRound int    `json:"start_round"`
	EndRound   int    `json:"end_round"`
	SpanCRC    uint32 `json:"span_crc"`
	// SeedInformed is the informed count when start_round begins,
	// |seed ∪ {source}|, always at least 1. A worker that dropped the
	// seed — one predating seed_bits ignores the field — echoes a
	// different count (or none), and the coordinator rejects it.
	SeedInformed     uint64          `json:"seed_informed"`
	Informed         uint64          `json:"informed"`
	InformedPerRound []uint64        `json:"informed_per_round"`
	MaxCallLength    int             `json:"max_call_length"`
	Violations       []WireViolation `json:"violations,omitempty"`
}

// ResponseFromResult wraps a seeded range validation result for the
// wire.
func ResponseFromResult(res *linecomm.Result, startRound, endRound int, spanCRC uint32, seedInformed uint64) RangeResponse {
	out := RangeResponse{
		StartRound:       startRound,
		EndRound:         endRound,
		SpanCRC:          spanCRC,
		SeedInformed:     seedInformed,
		Informed:         res.Informed,
		InformedPerRound: res.InformedPerRound,
		MaxCallLength:    res.MaxCallLength,
	}
	for _, v := range res.Violations {
		out.Violations = append(out.Violations, WireViolation{
			Round: v.Round, Call: v.Call, Kind: v.Kind.String(), Msg: v.Msg,
		})
	}
	return out
}

// Result reconstructs the exact linecomm.Result the worker computed —
// kinds parsed back from their names, so every Violation.String comes
// out byte-identical. Complete and MinimumTime are whole-schedule
// judgements and stay false, as ValidateStreamSeeded leaves them; the
// coordinator's MergeRangeResults computes them. An unknown kind name
// is an error: a response this code cannot represent must be rejected,
// not guessed at.
func (r *RangeResponse) Result() (*linecomm.Result, error) {
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
	return res, nil
}
