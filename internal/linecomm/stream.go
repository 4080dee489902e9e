package linecomm

import (
	"fmt"
	"iter"

	"sparsehypercube/internal/bitvec"
	"sparsehypercube/internal/graph"
)

// This file is the streaming half of the validator: ValidateStream
// consumes rounds as a producer (core.ScheduleRounds, a network feed, a
// decoder) emits them, so a schedule never has to be materialised to be
// checked. Each call takes one pass, in call order: first the
// structural checks that depend on the call alone (path shape, vertex
// range, edge existence, length bound; checkCall), then the checks
// against the state the round has built so far (caller knowledge,
// duplicate callers, edge conflicts, receiver conflicts), so the
// produced Result is byte-for-byte identical to the sequential Validate.
//
// The state is one of two disjointness engines (newRoundState): on any
// network with an edge-slot numbering, the flat slot-indexed csrState
// in csr.go, generalised capacities included. Materialised graphs
// (SlottedNetwork) bring their own numbering; hypercube-family networks
// (DimensionedNetwork) get the dimension-major closed form
// dim*order + lower, so a round's hops on one dimension share one
// order-bit window of the edge sets. For everything else the same
// per-round maps the sequential validator uses (mapState, the
// differential suite's reference engine), still streamed.

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
}

// maxStreamBits caps every bit-set universe of the flat engines (order
// bits, and NumEdgeSlots bits — order * n on dimensioned networks);
// larger instances use the map engine.
const maxStreamBits = 1 << 31

// call stages decided by checkCall, mirroring the sequential
// validator's early-continue points.
const (
	stageSkip   uint8 = iota // too short or out of range: no further checks
	stageCaller              // structurally bad: caller checks only
	stageFull                // all cross-call checks apply
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
	res := ValidateStreamSeeded(net, k, source, nil, 0, rounds, opts)
	order := net.Order()
	// An order-0 network is never "complete" (the source-out-of-range
	// violation is already in res), and the guard keeps MinimumRounds —
	// undefined at 0 — from being evaluated.
	res.Complete = order > 0 && res.Informed == order
	res.MinimumTime = res.Complete && len(res.InformedPerRound) == MinimumRounds(order)
	return res
}

// newRoundState picks the disjointness engine for one validation run:
// the slot-indexed CSR engine on any network with an edge-slot
// numbering (generalised capacities included), the per-round reference
// maps otherwise.
func newRoundState(net Network, order, source uint64, opts Options) roundState {
	if sn, ok := slottedFor(net, order, opts); ok {
		return newCSRState(sn, order, source, opts)
	}
	return newMapState(source, opts)
}

// roundState tracks the informed set and the per-round disjointness
// constraints of one validation run, driven by one goroutine in call
// order. isInformed answers for the informed set as of the round's
// start: inform only buffers until endRound.
type roundState interface {
	isInformed(v uint64) bool
	// beginRound resets per-round tracking; r is retained until endRound
	// (the CSR engine scans it to recover duplicate-caller indices and
	// to clear its caller bits).
	beginRound(r Round)
	// callerClaim registers call ci as placed by v. When v already placed
	// a call this round it reports that call's index instead.
	callerClaim(v uint64, ci int) (prev int, dup bool)
	// edgeUse registers one use of edge {u,v} and reports whether this
	// use is the first beyond capacity (true exactly once per edge).
	edgeUse(u, v uint64) bool
	// recvUse registers one call targeting v, same contract as edgeUse.
	// Every recvUse is followed by inform(v) for the same call.
	recvUse(v uint64) bool
	// inform buffers v as newly informed; applied at endRound, matching
	// the model's end-of-round knowledge update.
	inform(v uint64)
	// endRound applies buffered informs, clears round state and returns
	// the informed count.
	endRound() uint64
	informedCount() uint64
	// seedInformed marks vs informed before any round runs — the range
	// validator's way of entering mid-schedule. Duplicates (and the
	// source) are fine; counting stays exact.
	seedInformed(vs []uint64)
	// informedSet returns the informed set as an order-bit set, for the
	// open-range merge; the caller may modify it.
	informedSet(order uint64) *bitvec.Set
}

// streamValidator runs the per-call pass and owns the reusable buffers,
// so steady-state validation of a valid schedule allocates (amortised)
// nothing per call.
type streamValidator struct {
	net   Network
	k     int
	order uint64
	opts  Options
	st    roundState
	res   *Result

	// Slot-indexed fast path: cs is st when st is the csrState, called
	// directly rather than through the interface. checkCall resolves
	// each hop's edge slot into hopSlots — EdgeSlot doubles as the edge
	// check, by the SlottedNetwork contract — and the edge checks
	// consume them.
	cs       *csrState
	gg       *graph.Graph // devirtualised slot source when cs.net is a GraphNetwork
	hopSlots []int32

	// assumed is non-nil in open mode (ValidateStreamOpen): a caller the
	// run has not itself informed is recorded here, assumed informed by
	// earlier rounds, instead of reported as CallerUninformed.
	assumed *bitvec.Set
}

func newStreamValidator(net Network, k int, order uint64, opts Options, st roundState, res *Result) *streamValidator {
	v := &streamValidator{net: net, k: k, order: order, opts: opts, st: st, res: res}
	if cs, ok := st.(*csrState); ok {
		v.cs = cs
		if gn, ok := cs.net.(GraphNetwork); ok {
			v.gg = gn.G
		}
	}
	return v
}

func (v *streamValidator) validateRound(ri int, round Round) {
	v.st.beginRound(round)
	for ci, call := range round {
		v.validateCall(ri, ci, call)
	}
	v.res.InformedPerRound = append(v.res.InformedPerRound, v.st.endRound())
}

// validateCall checks one call: checkCall's structural section, then
// the caller, edge and receiver checks against the round so far, in
// Validate's violation order.
func (v *streamValidator) validateCall(ri, ci int, call Call) {
	var stage uint8
	stage, v.res.Violations = v.checkCall(ri, ci, call, v.res.Violations)
	if stage == stageSkip {
		return
	}
	if l := call.Length(); l > v.res.MaxCallLength {
		v.res.MaxCallLength = l
	}
	from := call.Path[0]
	if !v.isInformed(from) {
		if v.assumed != nil {
			v.assumed.Set(int(from))
		} else {
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, CallerUninformed,
				fmt.Sprintf("caller %d not informed", from)})
		}
	}
	if prev, dup := v.callerClaim(from, ci); dup {
		v.res.Violations = append(v.res.Violations, Violation{ri, ci, CallerDuplicate,
			fmt.Sprintf("caller %d already placed call %d", from, prev)})
	}
	if stage != stageFull {
		return
	}
	for h := 1; h < len(call.Path); h++ {
		var over bool
		if v.cs != nil {
			over = v.cs.edgeUseSlot(int(v.hopSlots[h-1]))
		} else {
			over = v.st.edgeUse(call.Path[h-1], call.Path[h])
		}
		if over {
			e := mkEdge(call.Path[h-1], call.Path[h])
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, EdgeConflict,
				fmt.Sprintf("edge {%d,%d} used %d times, capacity %d",
					e.u, e.v, v.opts.EdgeCapacity+1, v.opts.EdgeCapacity)})
		}
	}
	to := call.Path[len(call.Path)-1]
	if v.recvUse(to) {
		v.res.Violations = append(v.res.Violations, Violation{ri, ci, ReceiverConflict,
			fmt.Sprintf("receiver %d targeted %d times, capacity %d",
				to, v.opts.ReceiverCapacity+1, v.opts.ReceiverCapacity)})
	}
	if v.isInformed(to) && !v.opts.AllowInformedReceiver {
		v.res.Violations = append(v.res.Violations, Violation{ri, ci, ReceiverInformed,
			fmt.Sprintf("receiver %d already informed", to)})
	}
	v.inform(to)
}

// isInformed, callerClaim, recvUse and inform call the CSR engine
// directly when it runs, and the interface otherwise.

func (v *streamValidator) isInformed(u uint64) bool {
	if v.cs != nil {
		return v.cs.isInformed(u)
	}
	return v.st.isInformed(u)
}

func (v *streamValidator) callerClaim(u uint64, ci int) (int, bool) {
	if v.cs != nil {
		return v.cs.callerClaim(u, ci)
	}
	return v.st.callerClaim(u, ci)
}

func (v *streamValidator) recvUse(u uint64) bool {
	if v.cs != nil {
		return v.cs.recvUse(u)
	}
	return v.st.recvUse(u)
}

func (v *streamValidator) inform(u uint64) {
	if v.cs != nil {
		v.cs.inform(u)
		return
	}
	v.st.inform(u)
}

// checkCall mirrors the sequential validator's per-call structural
// section, including its violation order and early-exit points; it
// depends on the call alone. On the CSR engine v.hopSlots receives each
// hop's resolved edge slot (valid whenever the returned stage is
// stageFull).
func (v *streamValidator) checkCall(ri, ci int, call Call, out []Violation) (uint8, []Violation) {
	if len(call.Path) < 2 {
		return stageSkip, append(out, Violation{ri, ci, PathInvalid,
			fmt.Sprintf("path has %d vertices", len(call.Path))})
	}
	bad := false
	for _, u := range call.Path {
		if u >= v.order {
			out = append(out, Violation{ri, ci, VertexOutOfRange,
				fmt.Sprintf("vertex %d outside [0,%d)", u, v.order)})
			bad = true
		}
	}
	if bad {
		return stageSkip, out
	}
	out, bad = appendRepeatViolations(out, ri, ci, call.Path)
	if v.cs != nil {
		// EdgeSlot is the edge-existence check on slotted networks; the
		// resolved slot is kept for the edge checks. Path vertices are
		// already known in range, so the devirtualised graph call is safe.
		if len(call.Path) > len(v.hopSlots)+1 {
			v.hopSlots = make([]int32, len(call.Path)-1)
		}
		for i := 1; i < len(call.Path); i++ {
			var s int
			var ok bool
			if v.gg != nil {
				s, ok = v.gg.EdgeSlot(int(call.Path[i-1]), int(call.Path[i]))
			} else {
				s, ok = v.cs.net.EdgeSlot(call.Path[i-1], call.Path[i])
			}
			if !ok {
				out = append(out, Violation{ri, ci, PathInvalid,
					fmt.Sprintf("no edge {%d,%d}", call.Path[i-1], call.Path[i])})
				bad = true
				continue
			}
			v.hopSlots[i-1] = int32(s)
		}
	} else {
		for i := 1; i < len(call.Path); i++ {
			if !v.net.HasEdge(call.Path[i-1], call.Path[i]) {
				out = append(out, Violation{ri, ci, PathInvalid,
					fmt.Sprintf("no edge {%d,%d}", call.Path[i-1], call.Path[i])})
				bad = true
			}
		}
	}
	if call.Length() > v.k {
		out = append(out, Violation{ri, ci, PathTooLong,
			fmt.Sprintf("length %d > k = %d", call.Length(), v.k)})
	}
	if bad {
		return stageCaller, out
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

// mapState is the general-purpose round state: the same per-round hash
// maps the sequential validator uses, for networks that carry no edge
// numbering (or exceed the CSR engine's size caps). It doubles as the
// reference engine the differential suite crosschecks csrState against.
// The maps are allocated once and cleared — not remade — between
// rounds, so a steady-state round costs no allocations.
type mapState struct {
	opts     Options
	informed map[uint64]bool
	edges    map[edgeKey]int
	recvs    map[uint64]int
	callers  map[uint64]int
	newly    []uint64
}

func newMapState(source uint64, opts Options) *mapState {
	return &mapState{
		opts:     opts,
		informed: map[uint64]bool{source: true},
		edges:    make(map[edgeKey]int),
		recvs:    make(map[uint64]int),
		callers:  make(map[uint64]int),
	}
}

func (m *mapState) isInformed(v uint64) bool { return m.informed[v] }

func (m *mapState) seedInformed(vs []uint64) {
	for _, v := range vs {
		m.informed[v] = true
	}
}

func (m *mapState) beginRound(r Round) {
	clear(m.edges)
	clear(m.recvs)
	clear(m.callers)
	m.newly = m.newly[:0]
}

func (m *mapState) callerClaim(v uint64, ci int) (int, bool) {
	if prev, dup := m.callers[v]; dup {
		return prev, true
	}
	m.callers[v] = ci
	return 0, false
}

func (m *mapState) edgeUse(u, v uint64) bool {
	e := mkEdge(u, v)
	m.edges[e]++
	return m.edges[e] == m.opts.EdgeCapacity+1
}

func (m *mapState) recvUse(v uint64) bool {
	m.recvs[v]++
	return m.recvs[v] == m.opts.ReceiverCapacity+1
}

func (m *mapState) inform(v uint64) { m.newly = append(m.newly, v) }

func (m *mapState) endRound() uint64 {
	for _, v := range m.newly {
		m.informed[v] = true
	}
	return uint64(len(m.informed))
}

func (m *mapState) informedCount() uint64 { return uint64(len(m.informed)) }

func (m *mapState) informedSet(order uint64) *bitvec.Set {
	set := bitvec.New(int(order))
	for v := range m.informed {
		set.Set(int(v))
	}
	return set
}
