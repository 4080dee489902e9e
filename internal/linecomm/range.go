package linecomm

// This file is the range half of the streaming validator: the pieces
// that let one schedule be validated as W contiguous round ranges by W
// independent workers and merged back into the exact Result the serial
// ValidateStream produces.
//
// The informed set is the only state that crosses a round boundary. A
// range needs it for two decisions only: whether a caller was informed
// (CallerUninformed) and whether a receiver already was
// (ReceiverInformed); every other check depends on the round alone.
// Local verification (Plan.Verify) runs one pass per range and checks
// the boundary afterwards:
//
//  1. ValidateStreamOpen runs the full validator on each range without
//     a seed. A range starting after round 0 has an open boundary: a
//     caller it has not itself informed is assumed informed earlier
//     (and recorded), a receiver it has not itself informed is assumed
//     fresh (its own informed set records those);
//  2. MergeOpenRanges walks the ranges in order with S, the union of
//     the informed sets before each, checks every assumption against S
//     with word-wide set operations, shifts the informed counts by |S|
//     and concatenates the Results — or reports that an assumption
//     failed, and the caller validates serially instead.
//
// A distributed coordinator cannot ship informed sets back cheaply, so
// it seeds its remote ranges instead, in two passes:
//
//  1. CollectInformedStream scans each range and returns the receivers
//     its rounds inform — informing is purely structural (a call
//     informs its receiver exactly when it is well formed), so no seed
//     is needed and ranges are independent;
//  2. prefix-union those deltas to get the informed set at each range
//     boundary, then ValidateStreamSeeded runs the full validator on
//     each range seeded with its boundary set;
//
// and MergeRangeResults concatenates the per-range Results in order.
// Either way violations, counts, and messages come out identical to one
// serial pass, because every per-round decision sees — or is checked
// against — exactly the state the serial validator would have seen.

import (
	"fmt"
	"iter"
	"slices"

	"sparsehypercube/internal/bitvec"
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
// (checkCall returning stageFull), which is the only stage that informs
// (the clean-call kernel takes only calls that reach it).
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
// parallel caller gets its parallelism from the range split. A network
// the CSR engine cannot index, numbered or not, is refused: the Result
// holds one SimulationCapExceeded violation and no round is consumed.
func ValidateStreamSeeded(net Network, k int, source uint64, seed []uint64, startRound int, rounds iter.Seq[Round], opts Options) *Result {
	res, _, _ := validateRange(net, k, source, seed, startRound, rounds, opts, false)
	return res
}

// validateRange is the body of ValidateStreamSeeded and
// ValidateStreamOpen: one stream validator over rounds, from seed, in
// open mode when open. It returns the run's state and assumed set (nil
// when not open) for the merge. The state is nil, and no round is
// consumed, when the network is refused (streamRefusal) or source is
// out of range; res then reports which.
func validateRange(net Network, k int, source uint64, seed []uint64, startRound int, rounds iter.Seq[Round], opts Options, open bool) (*Result, *csrState, *bitvec.Set) {
	if opts.EdgeCapacity < 1 || opts.ReceiverCapacity < 1 {
		panic("linecomm: capacities must be >= 1")
	}
	res := &Result{}
	order := net.Order()
	sn, ok := slottedFor(net, order, opts)
	if !ok {
		res.Violations = append(res.Violations, streamRefusal(net, order))
		return res, nil, nil
	}
	if source >= order {
		res.Violations = append(res.Violations, Violation{
			Round: -1, Call: -1, Kind: VertexOutOfRange,
			Msg: fmt.Sprintf("source %d outside [0,%d)", source, order),
		})
		return res, nil, nil
	}
	st := newCSRState(sn, order, source, opts)
	st.seedInformed(seed)
	v := &streamValidator{net: net, k: k, order: order, opts: opts, st: st, res: res}
	if open {
		v.assumed = bitvec.New(int(order))
	}
	ri := startRound
	for round := range rounds {
		v.validateRound(ri, round)
		ri++
	}
	v.finish()
	res.Informed = st.count
	return res, st, v.assumed
}

// OpenRange is one range's share of a one-pass range validation
// (ValidateStreamOpen), consumed by MergeOpenRanges.
type OpenRange struct {
	res      *Result     // counts local to the range: source plus its own informs
	informed *bitvec.Set // the range's own informed set, source included; nil: unmergeable
	assumed  *bitvec.Set // callers assumed informed by earlier ranges; nil at round 0
}

// ValidateStreamOpen validates rounds as the contiguous slice of a
// larger streamed schedule that starts at round index startRound,
// without knowing what the earlier rounds informed. From round 0 it is
// ValidateStreamSeeded with no seed. Later, the boundary is open: a
// caller the range has not itself informed is assumed informed by the
// earlier rounds, and a receiver it has not itself informed is assumed
// fresh. MergeOpenRanges checks both assumptions once every range has
// run; when they hold, the range's violations are exactly those
// ValidateStreamSeeded would report from the true boundary set.
//
// Violations carry absolute round indices. On a network the seeded
// validator refuses, or from a source out of range, it consumes nothing
// and returns a part MergeOpenRanges rejects, so the caller's fallback
// reports the refusal.
func ValidateStreamOpen(net Network, k int, source uint64, startRound int, rounds iter.Seq[Round], opts Options) *OpenRange {
	res, st, assumed := validateRange(net, k, source, nil, startRound, rounds, opts, startRound > 0)
	if st == nil {
		return &OpenRange{res: res}
	}
	return &OpenRange{res: res, informed: st.informed, assumed: assumed}
}

// MergeOpenRanges stitches the parts of ValidateStreamOpen — contiguous
// ranges covering the whole schedule from source, in order, at least
// one — into the Result serial ValidateStream returns on the full
// stream, and reports true. Walking the ranges in order with S, the
// vertices informed before range i (the source and every earlier
// range's informed set), it checks that every caller range i assumed
// informed is in S, and that no vertex range i informed but the source
// is: the exact conditions under which each of the range's caller and
// receiver decisions matches the seeded validator's. Then the range's
// informed counts are its own plus |S| - 1. When a check fails, or a
// part is unmergeable, it reports false and the schedule needs a
// seeded or serial validation instead. The parts are consumed.
func MergeOpenRanges(order, source uint64, parts []*OpenRange) (*Result, bool) {
	if len(parts) == 0 || source >= order ||
		slices.ContainsFunc(parts, func(p *OpenRange) bool { return p.informed == nil }) {
		return nil, false
	}
	before := bitvec.New(int(order))
	before.Set(int(source))
	known := uint64(1) // |before|
	results := make([]*Result, len(parts))
	for i, p := range parts {
		if p.assumed != nil && !before.ContainsAll(p.assumed) {
			return nil, false
		}
		p.informed.Clear(int(source))
		if before.Intersects(p.informed) {
			return nil, false
		}
		before.UnionWith(p.informed)
		shift := known - 1
		for r := range p.res.InformedPerRound {
			p.res.InformedPerRound[r] += shift
		}
		p.res.Informed += shift
		known = p.res.Informed
		results[i] = p.res
	}
	return MergeRangeResults(order, results), true
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
