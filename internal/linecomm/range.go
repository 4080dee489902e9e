package linecomm

// This file is the range half of the streaming validator: the pieces
// that let one schedule be validated as W contiguous round ranges by W
// independent workers — goroutines of Plan.Verify, or planserver
// workers behind a distverify coordinator — and merged back into the
// exact Result the serial ValidateStream produces.
//
// The informed set is the only state that crosses a round boundary. A
// range needs it for two decisions only: whether a caller was informed
// (CallerUninformed) and whether a receiver already was
// (ReceiverInformed); every other check depends on the round alone. So
// each range runs once and the boundary is checked afterwards:
//
//  1. ValidateStreamOpen runs the full validator on each range without
//     knowing the earlier rounds. A range starting after round 0 has an
//     open boundary: a caller it has not itself informed is assumed
//     informed earlier (and recorded), a receiver it has not itself
//     informed is assumed fresh (its own informed set records those);
//  2. MergeOpenRanges walks the ranges in order with S, the union of
//     the informed sets before each, checks every assumption against S
//     with word-wide set operations, shifts the informed counts by |S|
//     and concatenates the Results — or reports that an assumption
//     failed, and the caller validates serially instead.
//
// A range's part is its Result plus two order-bit sets, so it can cross
// a process boundary: NewOpenRange rebuilds a part from what a remote
// worker computed, and the accessors read one back for the wire. When
// the merge accepts, violations, counts, and messages come out
// identical to one serial pass, because every per-round decision is
// checked against exactly the state the serial validator would have
// seen.

import (
	"fmt"
	"iter"
	"slices"

	"sparsehypercube/internal/bitvec"
)

// validateRange is the body of ValidateStream and ValidateStreamOpen:
// one stream validator over rounds, in open mode when open. It returns
// the run's state and assumed set (nil when not open) for the merge.
// The state is nil, and no round is consumed, when the network is
// refused (streamRefusal) or source is out of range; res then reports
// which.
func validateRange(net Network, k int, source uint64, startRound int, rounds iter.Seq[Round], opts Options, open bool) (*Result, *csrState, *bitvec.Set) {
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
	st := newCSRState(sn, order, opts)
	st.trackKnowledge(source)
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

// NewOpenRange rebuilds a part from its three pieces, as a remote
// worker computed them: the range's Result, its informed set (the
// source included) and, for a range after round 0, the callers it
// assumed informed earlier (nil at round 0). Both sets must span the
// network's order; MergeOpenRanges rejects a part whose sets do not.
func NewOpenRange(res *Result, informed, assumed *bitvec.Set) *OpenRange {
	return &OpenRange{res: res, informed: informed, assumed: assumed}
}

// Result returns the range's Result: absolute round indices, informed
// counts local to the range (the source plus its own informs), and
// Complete and MinimumTime false until the merge judges the schedule.
func (p *OpenRange) Result() *Result { return p.res }

// Informed returns the range's own informed set, the source included;
// nil when the range was refused and cannot be merged.
func (p *OpenRange) Informed() *bitvec.Set { return p.informed }

// Assumed returns the callers the range assumed informed by earlier
// rounds; nil for a range that starts at round 0 or was refused.
func (p *OpenRange) Assumed() *bitvec.Set { return p.assumed }

// ValidateStreamOpen validates rounds as the contiguous slice of a
// larger streamed schedule that starts at round index startRound,
// without knowing what the earlier rounds informed. From round 0 it is
// ValidateStream without the whole-schedule judgements. Later, the
// boundary is open: a caller the range has not itself informed is
// assumed informed by the earlier rounds, and a receiver it has not
// itself informed is assumed fresh. MergeOpenRanges checks both
// assumptions once every range has run; when they hold, the range's
// violations are exactly those a serial pass reports for its rounds.
//
// Violations carry absolute round indices. On a network the CSR engine
// refuses, or from a source out of range, it consumes nothing and
// returns a part MergeOpenRanges rejects, so the caller's fallback
// reports the refusal.
func ValidateStreamOpen(net Network, k int, source uint64, startRound int, rounds iter.Seq[Round], opts Options) *OpenRange {
	res, st, assumed := validateRange(net, k, source, startRound, rounds, opts, startRound > 0)
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
// receiver decisions matches the serial validator's. Then the range's
// informed counts are its own plus |S| - 1. When a check fails, or a
// part is unmergeable, it reports false and the schedule needs a
// serial validation instead. The parts are consumed.
func MergeOpenRanges(order, source uint64, parts []*OpenRange) (*Result, bool) {
	if len(parts) == 0 || source >= order || slices.ContainsFunc(parts, func(p *OpenRange) bool {
		return p.informed == nil || p.informed.Len() != int(order) ||
			p.assumed != nil && p.assumed.Len() != int(order)
	}) {
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
	return mergeRangeResults(order, results), true
}

// mergeRangeResults concatenates the per-range Results of contiguous
// ranges covering the whole schedule, in order, at least one, whose
// informed counts are already absolute, and judges the whole schedule.
func mergeRangeResults(order uint64, parts []*Result) *Result {
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
