package linecomm

import (
	"fmt"
	"iter"
	"sync/atomic"

	"sparsehypercube/internal/bitvec"
)

// This file is the streaming half of the validator: ValidateStream
// consumes rounds as a producer (core.ScheduleRounds, a network feed, a
// decoder) emits them, so a schedule never has to be materialised to be
// checked. Its state is csrState (csr.go), the flat slot-indexed
// engine, on any network with an edge-slot numbering, generalised
// capacities included. Materialised graphs (SlottedNetwork) bring their
// own numbering; hypercube-family networks (DimensionedNetwork) get the
// dimension-major closed form dim*order + lower, so a round's hops on
// one dimension share one order-bit window of the edge sets.
//
// Each call takes one pass, in call order. It first meets the
// clean-call kernel (cleanCall): one straight-line function that runs
// every check against the call and the round so far — its hop half,
// claimHops (csr.go), is gossip's too — and, when none fails, commits
// the call's state changes directly. Every call the kernel declines
// (any that would report something) takes the exact path
// (validateCall): first the structural checks that depend on the call
// alone (checkCall, which the gossip validators share), then the checks
// against the state the round has built so far (caller knowledge,
// duplicate callers, edge conflicts, receiver conflicts), so the
// produced Result is byte-for-byte identical to the sequential
// Validate. The exact path is the only source of violations, and the
// kernel commits exactly what it would on a clean call, so the split
// cannot change a Result.
//
// A network the engine cannot index (slottedFor) is refused before a
// round is consumed: the Result holds one SimulationCapExceeded
// violation at round -1. That covers numberings past the size caps (a
// cube at n >= 27, say) and a DimensionedNetwork whose order exceeds
// its address width. A network with no numbering at all is refused by
// the open range entry point too; ValidateStream and ValidateStreamOpts
// materialise its rounds and return the serial ValidateOpts Result
// instead.

// DimensionedNetwork is a Network whose vertices are n-bit addresses and
// whose edges each connect vertices differing in exactly one bit:
// hypercubes and their spanning subgraphs (the sparse hypercube, Q_n
// itself). The property lets the validator number edge slots as
// dim*order + lower (dimSlots) instead of hashing edge keys:
// dimension-major, so the hops of one round along one dimension stay in
// one order-bit window of the slot sets.
type DimensionedNetwork interface {
	Network
	// N returns the address width in bits; Order() <= 1 << N().
	N() int
	// HasEdgeDim reports whether the edge along dimension d (1-based:
	// it flips bit d-1) is present at vertex u < Order(), d <= N().
	HasEdgeDim(u uint64, d int) bool
}

// maxStreamBits caps every bit-set universe of the CSR engines (order
// bits, and NumEdgeSlots bits — order * n on dimensioned networks), so
// one set takes at most 256 MiB; larger instances are refused.
const maxStreamBits = 1 << 31

// Call stages decided by checkCall, mirroring the serial validators'
// early-continue points.
const (
	stageSkip uint8 = iota // too short or out of range: no further checks
	stageBad               // repeated vertex or missing edge: length counted; only broadcast caller checks follow
	stageFull              // all cross-call checks apply
)

// ValidateStream checks a streamed schedule from source against the
// classic k-line model (Definition 1) on net. It consumes rounds as they
// are produced — yielded rounds may reuse storage between iterations —
// and returns the same Result, violation for violation, that Validate
// returns on the materialised schedule.
func ValidateStream(net Network, k int, source uint64, rounds iter.Seq[Round]) *Result {
	return ValidateStreamOpts(net, k, source, rounds, DefaultOptions())
}

// ValidateStreamOpts is ValidateStream under the generalised model of
// ValidateOpts.
func ValidateStreamOpts(net Network, k int, source uint64, rounds iter.Seq[Round], opts Options) *Result {
	if !numbered(net) {
		// No slot numbering to stream on: the serial oracle judges the
		// materialised rounds.
		//lint:allow streamdiscipline a network with no edge-slot numbering has no streaming engine; the serial validator needs the schedule, and every numbered network (all cubes, all graph.Graphs) streams
		s := &Schedule{Source: source}
		for r := range rounds {
			s.Rounds = append(s.Rounds, CloneRound(r))
		}
		return ValidateOpts(net, k, s, opts)
	}
	res, _, _ := validateRange(net, k, source, 0, rounds, opts, false)
	order := net.Order()
	// An order-0 network is never "complete" (the source-out-of-range
	// violation is already in res), and the guard keeps MinimumRounds —
	// undefined at 0 — from being evaluated.
	res.Complete = order > 0 && res.Informed == order
	res.MinimumTime = res.Complete && len(res.InformedPerRound) == MinimumRounds(order)
	return res
}

// streamValidator runs the per-call pass and owns the reusable buffers,
// so steady-state validation of a valid schedule allocates (amortised)
// nothing per call.
type streamValidator struct {
	net   Network
	k     int
	order uint64
	opts  Options
	st    *csrState
	res   *Result
	callCounter

	// assumed is non-nil in open mode (ValidateStreamOpen): a caller the
	// run has not itself informed is recorded here, assumed informed by
	// earlier rounds, instead of reported as CallerUninformed.
	assumed *bitvec.Set
}

// callCounter counts the calls one validation run's clean-call kernel
// accepted and the calls its exact path took.
type callCounter struct{ kernelCalls, exactCalls int }

// callPaths accumulates callCounter over every finished validation run
// in the process; see CallPaths.
var callPaths [2]atomic.Int64

// CallPaths returns how many calls, over every broadcast and gossip
// validation run the process has finished on the CSR engine, the
// clean-call kernels accepted and how many they declined to the exact
// path. The split never changes a Result; it is what the kernel-coverage
// gates pin, since a kernel that declines everything only runs slower.
func CallPaths() (kernel, exact int64) {
	return callPaths[0].Load(), callPaths[1].Load()
}

// finish adds the run's call counts to CallPaths.
func (n callCounter) finish() {
	callPaths[0].Add(int64(n.kernelCalls))
	callPaths[1].Add(int64(n.exactCalls))
}

func (v *streamValidator) validateRound(ri int, round Round) {
	v.st.beginRound(round)
	for ci, call := range round {
		if v.cleanCall(call) {
			v.kernelCalls++
			continue
		}
		v.exactCalls++
		v.validateCall(ri, ci, call)
	}
	v.res.InformedPerRound = append(v.res.InformedPerRound, v.st.endRound())
}

// cleanCall is broadcast's clean-call kernel: in one straight-line
// pass, every check of validateCall — an unclaimed in-range caller, an
// in-range receiver under its capacity and, by default, uninformed, an
// informed caller (or, in open mode, one to assume), then the hop half
// (claimHops: path length, vertex range, distinct vertices, each hop an
// edge with a free slot). Only when every check passes does the hop half
// claim the hops and cleanCall commit the rest of what validateCall
// commits on such a call, and report true. A declined call has changed
// nothing: validateCall, the only source of violations, takes it.
func (v *streamValidator) cleanCall(call Call) bool {
	c := v.st
	p := call.Path
	if len(p) < 2 {
		return false
	}
	from, to := p[0], p[len(p)-1]
	if from >= v.order || to >= v.order || c.callerUsed.Get(int(from)) {
		return false
	}
	if c.recvCnt == nil {
		if c.recvUsed.Get(int(to)) {
			return false
		}
	} else if int(c.recvCnt[to]) >= v.opts.ReceiverCapacity {
		return false
	}
	if !v.opts.AllowInformedReceiver && c.informed.Get(int(to)) {
		return false
	}
	callerKnown := c.informed.Get(int(from))
	if !callerKnown && v.assumed == nil {
		return false
	}
	if !c.claimHops(p, v.k) {
		return false
	}

	if l := len(p) - 1; l > v.res.MaxCallLength {
		v.res.MaxCallLength = l
	}
	if !callerKnown {
		v.assumed.Set(int(from))
	}
	c.callerUsed.Set(int(from))
	c.recvUsed.Set(int(to))
	if c.recvCnt != nil {
		c.recvCnt[to]++
	}
	return true
}

// validateCall is the exact path: checkCall's structural section, then
// the caller, edge and receiver checks against the round so far, in
// Validate's violation order.
func (v *streamValidator) validateCall(ri, ci int, call Call) {
	var stage uint8
	stage, v.res.Violations = checkCall(v.net, v.k, v.order, ri, ci, call, v.res.Violations)
	if stage == stageSkip {
		return
	}
	if l := call.Length(); l > v.res.MaxCallLength {
		v.res.MaxCallLength = l
	}
	from := call.Path[0]
	if !v.st.isInformed(from) {
		if v.assumed != nil {
			v.assumed.Set(int(from))
		} else {
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, CallerUninformed,
				fmt.Sprintf("caller %d not informed", from)})
		}
	}
	if prev, dup := v.st.callerClaim(from, ci); dup {
		v.res.Violations = append(v.res.Violations, Violation{ri, ci, CallerDuplicate,
			fmt.Sprintf("caller %d already placed call %d", from, prev)})
	}
	if stage != stageFull {
		return
	}
	for h := 1; h < len(call.Path); h++ {
		if v.st.edgeUse(call.Path[h-1], call.Path[h]) {
			e := mkEdge(call.Path[h-1], call.Path[h])
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, EdgeConflict,
				fmt.Sprintf("edge {%d,%d} used %d times, capacity %d",
					e.u, e.v, v.opts.EdgeCapacity+1, v.opts.EdgeCapacity)})
		}
	}
	to := call.Path[len(call.Path)-1]
	if v.st.recvUse(to) {
		v.res.Violations = append(v.res.Violations, Violation{ri, ci, ReceiverConflict,
			fmt.Sprintf("receiver %d targeted %d times, capacity %d",
				to, v.opts.ReceiverCapacity+1, v.opts.ReceiverCapacity)})
	}
	if v.st.isInformed(to) && !v.opts.AllowInformedReceiver {
		v.res.Violations = append(v.res.Violations, Violation{ri, ci, ReceiverInformed,
			fmt.Sprintf("receiver %d already informed", to)})
	}
}

// checkCall is the per-call structural section of both streaming
// validators and of the serial ValidateGossip: path shape, vertex range,
// repeated vertices, edge existence (HasEdge) and the length bound, in
// exactly that order, as Validate's own section. It depends on the call
// alone.
func checkCall(net Network, k int, order uint64, ri, ci int, call Call, out []Violation) (uint8, []Violation) {
	if len(call.Path) < 2 {
		return stageSkip, append(out, Violation{ri, ci, PathInvalid,
			fmt.Sprintf("path has %d vertices", len(call.Path))})
	}
	bad := false
	for _, u := range call.Path {
		if u >= order {
			out = append(out, Violation{ri, ci, VertexOutOfRange,
				fmt.Sprintf("vertex %d outside [0,%d)", u, order)})
			bad = true
		}
	}
	if bad {
		return stageSkip, out
	}
	out, bad = appendRepeatViolations(out, ri, ci, call.Path)
	for i := 1; i < len(call.Path); i++ {
		if !net.HasEdge(call.Path[i-1], call.Path[i]) {
			out = append(out, Violation{ri, ci, PathInvalid,
				fmt.Sprintf("no edge {%d,%d}", call.Path[i-1], call.Path[i])})
			bad = true
		}
	}
	if call.Length() > k {
		out = append(out, Violation{ri, ci, PathTooLong,
			fmt.Sprintf("length %d > k = %d", call.Length(), k)})
	}
	if bad {
		return stageBad, out
	}
	return stageFull, out
}

// appendRepeatViolations reports every path vertex equal to an earlier
// one. Paths are short (<= k+1 hops in real schedules), so a quadratic
// scan beats a hash map; pathological inputs fall back to a map.
func appendRepeatViolations(out []Violation, ri, ci int, path []uint64) ([]Violation, bool) {
	bad := false
	if len(path) <= 32 {
		for i, u := range path {
			for _, w := range path[:i] {
				if w == u {
					out = append(out, Violation{ri, ci, PathInvalid,
						fmt.Sprintf("vertex %d repeated on path", u)})
					bad = true
					break
				}
			}
		}
		return out, bad
	}
	seen := make(map[uint64]bool, len(path))
	for _, u := range path {
		if seen[u] {
			out = append(out, Violation{ri, ci, PathInvalid,
				fmt.Sprintf("vertex %d repeated on path", u)})
			bad = true
		}
		seen[u] = true
	}
	return out, bad
}
