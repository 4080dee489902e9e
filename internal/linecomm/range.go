package linecomm

// This file is the range half of the streaming validator: the pieces
// that let one schedule be validated as W contiguous round ranges by W
// independent workers and merged back into the exact Result the serial
// ValidateStream produces.
//
// The informed set is the only state that crosses a round boundary, and
// its evolution is purely structural: a call informs its receiver
// exactly when the call itself is well formed (two or more vertices,
// all in range, no repeats, every hop an edge) — whether the caller was
// informed, the call too long, or a disjointness constraint violated
// never changes that. So a parallel verification runs in two passes:
//
//  1. CollectInformedStream scans each range and returns the receivers
//     its rounds inform — no seed needed, ranges are independent;
//  2. prefix-union those deltas to get the informed set at each range
//     boundary, then ValidateStreamSeeded runs the full validator on
//     each range seeded with its boundary set;
//
// and MergeRangeResults concatenates the per-range Results in order.
// Violations, counts, and messages come out identical to one serial
// pass because every per-round decision sees exactly the state the
// serial validator would have seen.

import (
	"fmt"
	"iter"
	"slices"
)

// CollectInformedStream scans a round stream and returns the receivers
// informed by it: the last path vertex of every structurally well-formed
// call, in call order, duplicates preserved. This is the seed-building
// pass of parallel range verification — the returned slice, unioned
// with the informed set at the stream's start, is the informed set at
// its end, independent of what that starting set was.
func CollectInformedStream(net Network, rounds iter.Seq[Round]) []uint64 {
	order := net.Order()
	var out []uint64
	for round := range rounds {
		out = slices.Grow(out, len(round))
		for _, c := range round {
			if callInforms(net, order, c) {
				out = append(out, c.Path[len(c.Path)-1])
			}
		}
	}
	return out
}

// callInforms reports whether a call reaches its receiver under the
// model: the exact condition for the streaming validator's full stage
// (checkCall returning stageFull), which is the only stage that informs.
func callInforms(net Network, order uint64, c Call) bool {
	if len(c.Path) < 2 {
		return false
	}
	for _, u := range c.Path {
		if u >= order {
			return false
		}
	}
	if hasRepeatedVertex(c.Path) {
		return false
	}
	for i := 1; i < len(c.Path); i++ {
		if !net.HasEdge(c.Path[i-1], c.Path[i]) {
			return false
		}
	}
	return true
}

// hasRepeatedVertex is the boolean form of appendRepeatViolations: a
// quadratic scan for the short paths real schedules have, a map beyond.
func hasRepeatedVertex(path []uint64) bool {
	if len(path) <= 32 {
		for i, u := range path {
			for _, w := range path[:i] {
				if w == u {
					return true
				}
			}
		}
		return false
	}
	seen := make(map[uint64]bool, len(path))
	for _, u := range path {
		if seen[u] {
			return true
		}
		seen[u] = true
	}
	return false
}

// ValidateStreamSeeded validates rounds as the contiguous slice of a
// larger streamed schedule that starts at round index startRound, where
// seed lists the vertices (beyond source) informed by the earlier
// rounds — as produced by CollectInformedStream over them. Violations
// carry absolute round indices and InformedPerRound absolute cumulative
// counts, so the per-range Results of a partition stitch together with
// MergeRangeResults into exactly the serial ValidateStream Result.
//
// Complete and MinimumTime are whole-schedule judgements and are left
// false here; MergeRangeResults computes them. Informed is the count at
// the end of the range (seed included), even when the range is empty.
//
// The validator runs on the calling goroutine, one pass per call; a
// parallel caller gets its parallelism from the range split.
func ValidateStreamSeeded(net Network, k int, source uint64, seed []uint64, startRound int, rounds iter.Seq[Round], opts Options) *Result {
	if opts.EdgeCapacity < 1 || opts.ReceiverCapacity < 1 {
		panic("linecomm: capacities must be >= 1")
	}
	res := &Result{}
	order := net.Order()
	if source >= order {
		res.Violations = append(res.Violations, Violation{
			Round: -1, Call: -1, Kind: VertexOutOfRange,
			Msg: fmt.Sprintf("source %d outside [0,%d)", source, order),
		})
		return res
	}
	st := newRoundState(net, order, source, opts)
	st.seedInformed(seed)
	v := newStreamValidator(net, k, order, opts, st, res)
	ri := startRound
	for round := range rounds {
		v.validateRound(ri, round)
		ri++
	}
	res.Informed = st.informedCount()
	return res
}

// MergeRangeResults stitches the per-range Results of ValidateStreamSeeded
// — contiguous ranges covering the whole schedule, in order, at least
// one — into the Result serial ValidateStream returns on the full
// stream.
func MergeRangeResults(order uint64, parts []*Result) *Result {
	out := &Result{}
	for _, p := range parts {
		out.Violations = append(out.Violations, p.Violations...)
		out.InformedPerRound = append(out.InformedPerRound, p.InformedPerRound...)
		if p.MaxCallLength > out.MaxCallLength {
			out.MaxCallLength = p.MaxCallLength
		}
		out.Informed = p.Informed
	}
	out.Complete = order > 0 && out.Informed == order
	out.MinimumTime = out.Complete && len(out.InformedPerRound) == MinimumRounds(order)
	return out
}
