package linecomm

import (
	"fmt"
	"iter"
	"runtime"
	"sync"

	"sparsehypercube/internal/graph"
)

// This file is the streaming half of the validator: ValidateStream
// consumes rounds as a producer (core.ScheduleRounds, a network feed, a
// decoder) emits them, so a schedule never has to be materialised to be
// checked. Per round it runs in two phases:
//
//  1. fill — the structural checks that are independent between calls
//     (path shape, vertex range, edge existence, length bound, caller
//     knowledge) are sharded across a pool of goroutines;
//  2. merge — the cross-call disjointness checks (duplicate callers,
//     edge conflicts, receiver conflicts) run serially over the phase-1
//     records, in call order, so the produced Result is byte-for-byte
//     identical to the sequential Validate.
//
// The merge phase picks one of two disjointness engines (newRoundState):
// on any network with an edge-slot numbering, the flat slot-indexed
// csrState in csr.go, generalised capacities included. Materialised
// graphs (SlottedNetwork) bring their own numbering; hypercube-family
// networks (DimensionedNetwork) get the dimension-major closed form
// dim*order + lower, so a round's hops on one dimension share one
// order-bit window of the edge sets. For everything else the same
// per-round maps the sequential validator uses (mapState, the
// differential suite's reference engine), still streamed and still
// sharded in phase 1.

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

const (
	// maxStreamBits caps every bit-set universe of the flat engines
	// (order bits, and NumEdgeSlots bits — order * n on dimensioned
	// networks); larger instances use the map engine.
	maxStreamBits = 1 << 31
	// streamShardChunk is the minimum number of calls worth handing to a
	// structural-check goroutine.
	streamShardChunk = 1024
)

// streamBlock is the number of calls checked per fill/merge cycle. It
// bounds the validator's extra memory at O(streamBlock) records
// regardless of round width. A variable so tests can shrink it to cover
// the multi-block merge path with narrow rounds.
var streamBlock = 1 << 16

// call stages decided by the fill phase, mirroring the sequential
// validator's early-continue points.
const (
	stageSkip   uint8 = iota // too short or out of range: no further checks
	stageCaller              // structurally bad: duplicate-caller check only
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
	res := ValidateStreamSeeded(net, k, source, nil, 0, rounds, opts, 0)
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
// constraints. All methods are called from the serial merge phase except
// isInformed, which the fill phase reads concurrently; implementations
// must not mutate state visible to isInformed between beginRound and
// endRound.
type roundState interface {
	isInformed(v uint64) bool
	// beginRound resets per-round tracking; r is retained until endRound
	// (the CSR engine scans it to recover duplicate-caller indices).
	beginRound(r Round)
	// callerClaim registers call ci as placed by v. When v already placed
	// a call this round it reports that call's index instead.
	callerClaim(v uint64, ci int) (prev int, dup bool)
	// edgeUse registers one use of edge {u,v} and reports whether this
	// use is the first beyond capacity (true exactly once per edge).
	edgeUse(u, v uint64) bool
	// recvUse registers one call targeting v, same contract as edgeUse.
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
}

// streamValidator drives the fill/merge cycle and owns the reusable
// buffers, so steady-state validation of a valid schedule allocates
// (amortised) nothing per call.
type streamValidator struct {
	net        Network
	k          int
	order      uint64
	opts       Options
	st         roundState
	res        *Result
	fillShards int // fill-phase goroutine budget; <= 0 means GOMAXPROCS

	stages     []uint8
	shardViols [][]Violation
	violBuf    []Violation

	// Slot-indexed fast path (csrState only): the fill phase resolves
	// each hop's edge slot once — EdgeSlot doubles as the edge check, by
	// the SlottedNetwork contract — and the merge phase consumes it.
	// hopOff[i] indexes call i of the current block into slots.
	slotInit bool
	cs       *csrState
	gg       *graph.Graph // devirtualised slot source when cs.net is a GraphNetwork
	hopOff   []int32
	slots    []int32
}

func (v *streamValidator) validateRound(ri int, round Round) {
	if !v.slotInit {
		v.slotInit = true
		if v.fillShards <= 0 {
			// Resolved once: GOMAXPROCS takes a runtime lock, and this
			// sits on the per-round path of many-round schedules.
			v.fillShards = runtime.GOMAXPROCS(0)
		}
		if cs, ok := v.st.(*csrState); ok {
			v.cs = cs
			if gn, ok := cs.net.(GraphNetwork); ok {
				v.gg = gn.G
			}
		}
	}
	v.st.beginRound(round)
	for base := 0; base < len(round); base += streamBlock {
		blk := round[base:min(base+streamBlock, len(round))]
		stages, viols := v.fillBlock(ri, base, blk)
		v.mergeBlock(ri, base, blk, stages, viols)
	}
	v.res.InformedPerRound = append(v.res.InformedPerRound, v.st.endRound())
}

// fillBlock runs the structural checks for one block of calls, sharded
// across goroutines. It returns the per-call stages and the structural
// violations sorted by call index (workers own contiguous ascending
// chunks, so concatenating their buffers in worker order is sorted).
func (v *streamValidator) fillBlock(ri, base int, blk Round) ([]uint8, []Violation) {
	if cap(v.stages) < len(blk) {
		v.stages = make([]uint8, len(blk))
	}
	stages := v.stages[:len(blk)]

	if v.cs != nil {
		// Prefix-sum the hop counts so fill workers write resolved slots
		// into disjoint regions of one flat buffer.
		if cap(v.hopOff) < len(blk)+1 {
			v.hopOff = make([]int32, len(blk)+1)
		}
		v.hopOff = v.hopOff[:len(blk)+1]
		total := int32(0)
		for i, c := range blk {
			v.hopOff[i] = total
			if h := len(c.Path) - 1; h > 0 {
				total += int32(h)
			}
		}
		v.hopOff[len(blk)] = total
		if cap(v.slots) < int(total) {
			v.slots = make([]int32, total)
		}
		v.slots = v.slots[:total]
	}

	workers := v.fillShards
	if w := (len(blk) + streamShardChunk - 1) / streamShardChunk; w < workers {
		workers = w
	}
	for len(v.shardViols) < max(workers, 1) {
		v.shardViols = append(v.shardViols, nil)
	}
	if workers <= 1 {
		v.shardViols[0] = v.checkCalls(ri, base, blk, 0, len(blk), stages, v.shardViols[0][:0])
		return stages, v.shardViols[0]
	}

	chunk := (len(blk) + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(blk))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			v.shardViols[w] = v.checkCalls(ri, base, blk, lo, hi, stages, v.shardViols[w][:0])
		}(w, lo, hi)
	}
	wg.Wait()
	v.violBuf = v.violBuf[:0]
	for w := 0; w < workers; w++ {
		v.violBuf = append(v.violBuf, v.shardViols[w]...)
	}
	return stages, v.violBuf
}

// checkCalls is the fill-phase worker body for calls [lo, hi) of blk.
func (v *streamValidator) checkCalls(ri, base int, blk Round, lo, hi int, stages []uint8, out []Violation) []Violation {
	for i := lo; i < hi; i++ {
		var hopSlots []int32
		if v.cs != nil {
			hopSlots = v.slots[v.hopOff[i]:v.hopOff[i+1]]
		}
		stages[i], out = v.checkCall(ri, base+i, blk[i], hopSlots, out)
	}
	return out
}

// checkCall mirrors the sequential validator's per-call structural
// section, including its violation order and early-exit points. On
// the CSR engine hopSlots receives each hop's resolved edge slot
// (valid whenever the returned stage is stageFull).
func (v *streamValidator) checkCall(ri, ci int, call Call, hopSlots []int32, out []Violation) (uint8, []Violation) {
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
		// resolved slot is kept for the merge phase. Path vertices are
		// already known in range, so the devirtualised graph call is safe.
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
			hopSlots[i-1] = int32(s)
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
	if !v.st.isInformed(call.Path[0]) {
		out = append(out, Violation{ri, ci, CallerUninformed,
			fmt.Sprintf("caller %d not informed", call.Path[0])})
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

// mergeBlock interleaves the fill-phase violations with the cross-call
// disjointness checks, in call order, reproducing Validate's sequence.
func (v *streamValidator) mergeBlock(ri, base int, blk Round, stages []uint8, viols []Violation) {
	vi := 0
	for i, call := range blk {
		ci := base + i
		for vi < len(viols) && viols[vi].Call == ci {
			v.res.Violations = append(v.res.Violations, viols[vi])
			vi++
		}
		if stages[i] == stageSkip {
			continue
		}
		if l := call.Length(); l > v.res.MaxCallLength {
			v.res.MaxCallLength = l
		}
		if prev, dup := v.st.callerClaim(call.Path[0], ci); dup {
			v.res.Violations = append(v.res.Violations, Violation{ri, ci, CallerDuplicate,
				fmt.Sprintf("caller %d already placed call %d", call.Path[0], prev)})
		}
		if stages[i] != stageFull {
			continue
		}
		if v.cs != nil {
			hs := v.slots[v.hopOff[i]:v.hopOff[i+1]]
			for h := 1; h < len(call.Path); h++ {
				if v.cs.edgeUseSlot(int(hs[h-1])) {
					e := mkEdge(call.Path[h-1], call.Path[h])
					v.res.Violations = append(v.res.Violations, Violation{ri, ci, EdgeConflict,
						fmt.Sprintf("edge {%d,%d} used %d times, capacity %d",
							e.u, e.v, v.opts.EdgeCapacity+1, v.opts.EdgeCapacity)})
				}
			}
		} else {
			for h := 1; h < len(call.Path); h++ {
				if v.st.edgeUse(call.Path[h-1], call.Path[h]) {
					e := mkEdge(call.Path[h-1], call.Path[h])
					v.res.Violations = append(v.res.Violations, Violation{ri, ci, EdgeConflict,
						fmt.Sprintf("edge {%d,%d} used %d times, capacity %d",
							e.u, e.v, v.opts.EdgeCapacity+1, v.opts.EdgeCapacity)})
				}
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
		v.st.inform(to)
	}
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
