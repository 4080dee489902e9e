package linecomm

import (
	"fmt"
	"math/bits"
	"slices"

	"sparsehypercube/internal/bitvec"
	"sparsehypercube/internal/graph"
)

// This file is the one engine of the streaming validators: csrState,
// the round state of broadcast and of gossip alike. Every per-round
// disjointness set is indexed by an edge-slot id the network supplies
// (SlottedNetwork.EdgeSlot — for materialised graphs, backed by the CSR
// arrays) or, on hypercube-family networks without a numbering of their
// own, by the dimension-major closed form dim*order + lower (dimSlots),
// which keeps the hops of one round on one dimension inside one
// order-bit window of each set. Bit sets hold receivers, busy endpoints
// (broadcast callers, both gossip endpoints) and capacity-1 edges;
// small per-slot counters hold generalised capacities
// (Options.EdgeCapacity/ReceiverCapacity > 1). Everything a round sets
// is cleared before the next, by the round's size: a round with at
// least one call per word of the order-bit vertex sets is dense, and
// ends word-wide — its receiver set is unioned into the informed set
// with a popcount of the new bits, and the vertex sets reset whole —
// while a sparser round (a k-tree broadcast's rounds of a few calls)
// clears element by element through its calls. Edge slots follow a
// touch list of their own by the same rule: up to one recorded slot per
// word of the set, past which the round resets the whole set instead
// (see touchList). So the engine allocates once per validation run and
// nothing per round. Gossip tracks no knowledge here (informed is nil):
// its token exchanges are logged and decided in gossipstream.go.
//
// The serial validators, Validate and ValidateGossip, stay as the
// independent references the differential suites crosscheck the
// engine against. A network slottedFor rejects is refused
// (streamRefusal), never validated another way on the stream.

// maxCSRSlots caps the universes held as per-slot counters (generalised
// capacities). Counters are 4 bytes per slot where bit sets are 1 bit,
// so the cap is maxStreamBits/32: the same 256 MiB worst-case footprint
// per array, admitting graphs up to 2^26 vertices and 2^25 edges (a
// graph.Graph numbers its edges by adjacency position, two slots per
// edge). Bit-set universes keep the maxStreamBits cap.
const maxCSRSlots = maxStreamBits / 32

// slottedFor reports whether net can drive the CSR engine under opts'
// capacities. net must carry a slot numbering — its own, or the closed
// form of a DimensionedNetwork — and each universe must fit the cap of
// the storage opts selects for it: maxStreamBits for bit sets,
// maxCSRSlots for counters. Streaming entry points refuse every other
// network (streamRefusal).
func slottedFor(net Network, order uint64, opts Options) (SlottedNetwork, bool) {
	sn, ok := net.(SlottedNetwork)
	if !ok {
		dn, ok := net.(DimensionedNetwork)
		// Reject inconsistent widths (Order beyond 1<<N would alias edge
		// slots) and universes past the bit-set cap before order*n can
		// overflow.
		if !ok || dn.N() < 1 || order > uint64(1)<<uint(dn.N()) ||
			order > maxStreamBits/uint64(dn.N()) {
			return nil, false
		}
		sn = dimSlots{dn, dn.N(), int(order)}
	}
	universeCap := func(capacity int) uint64 {
		if capacity == 1 {
			return maxStreamBits
		}
		return maxCSRSlots
	}
	if order > universeCap(opts.ReceiverCapacity) ||
		uint64(sn.NumEdgeSlots()) > universeCap(opts.EdgeCapacity) {
		return nil, false
	}
	return sn, true
}

// numbered reports whether net carries an edge-slot numbering, its own
// or the closed form of a DimensionedNetwork, whatever its size.
func numbered(net Network) bool {
	switch net.(type) {
	case SlottedNetwork, DimensionedNetwork:
		return true
	}
	return false
}

// streamRefusal is what a streaming entry point reports, before it
// consumes a round, for a network slottedFor rejects: the schedule is
// not judged invalid, it cannot be checked on the stream.
func streamRefusal(net Network, order uint64) Violation {
	msg := "network carries no edge-slot numbering to stream on"
	if numbered(net) {
		msg = fmt.Sprintf("order %d exceeds the streamed validator's edge-slot caps (bit sets <= %d bits, counters <= %d slots, order <= 2^N)",
			order, maxStreamBits, maxCSRSlots)
	}
	return Violation{Round: -1, Call: -1, Kind: SimulationCapExceeded, Msg: msg}
}

// dimSlots numbers the edges of a DimensionedNetwork in closed form:
// edge {u, v} with u < v takes slot d*order + u, d the 0-based bit they
// differ in. Dimension-major order keeps each dimension's edges in one
// order-bit window of the slot sets, so a round's hops on one dimension
// (most of a broadcast round's hops share one) touch that window —
// order/8 bytes, 32 KiB at n = 18 — rather than the whole order*n-bit
// set. On spanning subgraphs of Q_n (the sparse hypercube) the
// numbering has holes, which csrState tolerates: it never scans the
// slot universe.
type dimSlots struct {
	DimensionedNetwork
	n     int // N(), read once
	order int // Order(), read once
}

// NumEdgeSlots implements SlottedNetwork.
func (d dimSlots) NumEdgeSlots() int { return d.order * d.n }

// EdgeSlot implements SlottedNetwork. One XOR gives the dimension: u and
// v must differ in exactly one bit, and the network then decides
// whether that dimension is present at the lower endpoint.
func (d dimSlots) EdgeSlot(u, v uint64) (int, bool) {
	x, lo := u^v, min(u, v)
	if x == 0 || x&(x-1) != 0 || max(u, v) >= uint64(d.order) {
		return 0, false
	}
	dim := bits.TrailingZeros64(x)
	if !d.HasEdgeDim(lo, dim+1) {
		return 0, false
	}
	return dim*d.order + int(lo), true
}

// csrState is the slot-indexed round state of both streaming
// validators, generalised capacities included. Under the default
// capacity-1 model edge and receiver uses are used/dup bit-set pairs
// (two bits per slot, cache-resident even for million-edge graphs; the
// dup shadow reproduces the serial validator's
// report-once-at-capacity+1 contract), and under generalised capacities
// they are per-slot counters with the same contract. Busy endpoints are
// a bit set; the rare duplicate recovers the first claimer's index by
// scanning the round's earlier calls. A gossip state has no knowledge
// step: informed, recvUsed and the receiver storage stay nil.
//
// Both validators' clean-call kernels read and write these sets
// directly, through claimHops for the hops; the exact paths go through
// the methods below. isInformed answers for the
// informed set as of the round's start: a round's receivers are
// informed only at endRound.
type csrState struct {
	net   SlottedNetwork
	gg    *graph.Graph // devirtualised slot source when net is a GraphNetwork
	dims  *dimSlots    // devirtualised slot source when net is the closed form
	opts  Options
	order uint64
	count uint64

	informed *bitvec.Set // order bits; nil in a gossip state

	// recvUsed holds the round's receivers (order bits) under every
	// model: the capacity-1 use set, and beside the generalised
	// counters the set a dense round folds into informed.
	recvUsed *bitvec.Set
	// Capacity-1 storage (nil when the capacity is generalised). The
	// dup shadows stay nil until the run's first conflict (markDups): a
	// valid schedule never needs them.
	edgeUsed, edgeDup *bitvec.Set // NumEdgeSlots bits each
	recvDup           *bitvec.Set // order bits
	// Generalised-capacity storage (nil under capacity 1).
	edgeCnt []int32 // NumEdgeSlots counters
	recvCnt []int32 // order counters

	callerUsed *bitvec.Set // order bits: broadcast callers, both gossip endpoints

	round        Round
	touchedEdges touchList
	// dups records that the round set a dup-shadow bit, so endRound
	// clears edgeDup and recvDup only after a round with a conflict.
	dups bool

	hopSlots []int32 // claimHops' resolved edge slots for one call
}

// touchList records the edge slots one round sets in a bit set (or a
// counter array) so endRound can clear just those. Once the list holds
// one slot per word of the set, clearing the whole set costs no more
// than replaying the list, so the list stops growing and the round
// resets the set wholesale: a dense round allocates at most a word
// count of slots, and a sparse one keeps the per-slot clear.
type touchList struct {
	slots []int32
	limit int  // the set's word count
	full  bool // a touch went unrecorded: reset the whole set
}

func newTouchList(universe int) touchList { return touchList{limit: (universe + 63) / 64} }

func (t *touchList) add(slot int32) {
	switch {
	case len(t.slots) == t.limit:
		t.full = true
		return
	case len(t.slots) == cap(t.slots):
		// Double, but never past the limit.
		t.slots = slices.Grow(t.slots, min(max(len(t.slots), 64), t.limit-len(t.slots)))
	}
	t.slots = append(t.slots, slot)
}

// clearSets clears the round's touches from each set and empties the
// list.
func (t *touchList) clearSets(sets ...*bitvec.Set) {
	for _, set := range sets {
		if t.full {
			set.Reset()
			continue
		}
		for _, s := range t.slots {
			set.Clear(int(s))
		}
	}
	t.slots, t.full = t.slots[:0], false
}

// clearCounts is clearSets for per-slot counters.
func (t *touchList) clearCounts(cnt []int32) {
	if t.full {
		clear(cnt)
	} else {
		for _, s := range t.slots {
			cnt[s] = 0
		}
	}
	t.slots, t.full = t.slots[:0], false
}

// newCSRState builds a round state of busy endpoints and edges under
// opts with no knowledge step, as gossip runs it; trackKnowledge adds
// broadcast's.
func newCSRState(sn SlottedNetwork, order uint64, opts Options) *csrState {
	st := &csrState{
		net:          sn,
		opts:         opts,
		order:        order,
		callerUsed:   bitvec.New(int(order)),
		touchedEdges: newTouchList(sn.NumEdgeSlots()),
	}
	switch n := sn.(type) {
	case GraphNetwork:
		st.gg = n.G
	case dimSlots:
		st.dims = &n
	}
	if opts.EdgeCapacity == 1 {
		st.edgeUsed = bitvec.New(sn.NumEdgeSlots())
	} else {
		st.edgeCnt = make([]int32, sn.NumEdgeSlots())
	}
	return st
}

// trackKnowledge gives the state broadcast's knowledge step: source is
// informed, and each round informs the receivers it registers.
func (c *csrState) trackKnowledge(source uint64) {
	c.informed = bitvec.New(int(c.order))
	c.recvUsed = bitvec.New(int(c.order))
	if c.opts.ReceiverCapacity > 1 {
		c.recvCnt = make([]int32, int(c.order))
	}
	c.informed.Set(int(source))
	c.count = 1
}

func (c *csrState) isInformed(v uint64) bool { return c.informed.Get(int(v)) }

// beginRound retains r until endRound, which clears a sparse round's
// endpoints through it; the duplicate-claim recoveries scan it for the
// first claimer.
func (c *csrState) beginRound(r Round) { c.round = r }

// denseRound reports whether a round of the given number of calls sets
// at least one bit per word of a vertex set over universe: then ending
// it word-wide costs no more than clearing its bits one by one.
func denseRound(calls int, universe uint64) bool {
	return uint64(calls) >= (universe+63)/64
}

// callerClaim registers call ci as placed by v. When v already placed a
// call this round it reports that call's index instead.
func (c *csrState) callerClaim(v uint64, ci int) (int, bool) {
	if !c.callerUsed.TestAndSet(int(v)) {
		return 0, false
	}
	// Duplicate (rare — only on an actual violation): the first claimer
	// is the first earlier call from v that reached the caller checks,
	// which every call with two or more in-range vertices does.
	for idx, call := range c.round[:ci] {
		if len(call.Path) >= 2 && call.Path[0] == v && !slices.ContainsFunc(call.Path, func(u uint64) bool { return u >= c.order }) {
			return idx, true
		}
	}
	return 0, true // unreachable: a set caller bit implies a claim
}

// edgeSlot resolves the edge {a, b}, both in range, calling the graph
// or the closed form directly when the network is one of those.
func (c *csrState) edgeSlot(a, b uint64) (int, bool) {
	switch {
	case c.gg != nil:
		return c.gg.EdgeSlot(int(a), int(b))
	case c.dims != nil:
		return c.dims.EdgeSlot(a, b)
	}
	return c.net.EdgeSlot(a, b)
}

// maxKernelPath bounds the paths the kernels take: their repeated-vertex
// scan is quadratic, as appendRepeatViolations' is up to this length.
const maxKernelPath = 32

// claimHops is the hop half of both clean-call kernels, which call it
// last, once the call's endpoints have passed their checks: a path of at
// most k+1 distinct in-range vertices, at most maxKernelPath, whose
// every hop is an edge (EdgeSlot is the edge check) with a free slot
// under the edge capacity. Only when all of that holds does it claim
// each hop's slot and report true; otherwise it changes nothing.
func (c *csrState) claimHops(p []uint64, k int) bool {
	if len(p)-1 > k || len(p) > maxKernelPath {
		return false
	}
	for i, u := range p {
		if u >= c.order {
			return false
		}
		for _, w := range p[:i] {
			if w == u {
				return false
			}
		}
	}
	if len(p) > len(c.hopSlots)+1 {
		c.hopSlots = make([]int32, len(p)-1)
	}
	hops := c.hopSlots[:len(p)-1]
	for i := range hops {
		s, ok := c.edgeSlot(p[i], p[i+1])
		if !ok {
			return false
		}
		if c.edgeUsed != nil {
			if c.edgeUsed.Get(s) {
				return false
			}
		} else if int(c.edgeCnt[s]) >= c.opts.EdgeCapacity {
			return false
		}
		hops[i] = int32(s)
	}
	for _, s := range hops {
		if c.edgeUsed != nil {
			c.edgeUsed.Set(int(s))
			c.touchedEdges.add(s)
		} else if c.edgeCnt[s]++; c.edgeCnt[s] == 1 {
			c.touchedEdges.add(s)
		}
	}
	return true
}

// edgeReuse registers a gossip use of edge {u,v} and reports whether the
// round already used it: gossip reports every reuse, where edgeUse
// reports only the first beyond capacity.
func (c *csrState) edgeReuse(u, v uint64) bool {
	slot, ok := c.edgeSlot(u, v)
	if !ok {
		return false
	}
	if !c.edgeUsed.TestAndSet(slot) {
		c.touchedEdges.add(int32(slot))
		return false
	}
	return true
}

// edgeUse registers one use of edge {u,v} and reports whether this use
// is the first beyond capacity (true exactly once per edge and round).
func (c *csrState) edgeUse(u, v uint64) bool {
	// Only well-formed hops reach here, so EdgeSlot succeeds by the
	// SlottedNetwork contract.
	slot, ok := c.edgeSlot(u, v)
	if !ok {
		return false
	}
	if c.edgeUsed != nil {
		if !c.edgeUsed.TestAndSet(slot) {
			c.touchedEdges.add(int32(slot))
			return false
		}
		c.markDups()
		return !c.edgeDup.TestAndSet(slot)
	}
	c.edgeCnt[slot]++
	if c.edgeCnt[slot] == 1 {
		c.touchedEdges.add(int32(slot))
	}
	return int(c.edgeCnt[slot]) == c.opts.EdgeCapacity+1
}

// markDups notes a conflict in the round, allocating the capacity-1 dup
// shadows on the run's first.
func (c *csrState) markDups() {
	c.dups = true
	if c.edgeUsed != nil && c.edgeDup == nil {
		c.edgeDup = bitvec.New(c.edgeUsed.Len())
	}
	if c.recvCnt == nil && c.recvDup == nil {
		c.recvDup = bitvec.New(c.recvUsed.Len())
	}
}

// recvUse registers one call targeting v, same contract as edgeUse.
// Only a call that informs v registers it, so the round's receivers are
// exactly the vertices it informs.
func (c *csrState) recvUse(v uint64) bool {
	used := c.recvUsed.TestAndSet(int(v))
	if c.recvCnt != nil {
		c.recvCnt[v]++
		return int(c.recvCnt[v]) == c.opts.ReceiverCapacity+1
	}
	if !used {
		return false
	}
	c.markDups()
	return !c.recvDup.TestAndSet(int(v))
}

// endRound informs the round's receivers and clears what the round
// set, and returns the informed count. recvUsed holds exactly the
// vertices the round informs (only a call that informs its receiver
// registers it). A dense round unions it into informed word-wide,
// counting the new bits, and resets the vertex sets whole. A sparse
// round walks its calls instead, clearing both endpoints' busy bits
// (for broadcast, the receiver's is reset at round end anyway) and each
// receiver it registered, informing the latter. A gossip state, with no
// informed set, only clears. Edge slots follow their own touch list
// either way.
func (c *csrState) endRound() uint64 {
	if denseRound(len(c.round), c.order) {
		if c.informed != nil {
			c.count += uint64(c.informed.UnionWithCount(c.recvUsed))
			c.recvUsed.Reset()
			if c.recvCnt != nil {
				clear(c.recvCnt)
			} else if c.dups {
				c.recvDup.Reset()
			}
		}
		c.callerUsed.Reset()
	} else {
		for _, call := range c.round {
			if len(call.Path) == 0 {
				continue
			}
			from, to := call.Path[0], call.Path[len(call.Path)-1]
			if from < c.order {
				c.callerUsed.Clear(int(from))
			}
			if to >= c.order {
				continue
			}
			c.callerUsed.Clear(int(to))
			if c.informed == nil || !c.recvUsed.Get(int(to)) {
				continue
			}
			c.recvUsed.Clear(int(to))
			if !c.informed.TestAndSet(int(to)) {
				c.count++
			}
			if c.recvCnt != nil {
				c.recvCnt[to] = 0
			} else if c.dups {
				c.recvDup.Clear(int(to))
			}
		}
	}
	switch {
	case c.edgeUsed == nil:
		c.touchedEdges.clearCounts(c.edgeCnt)
	case c.dups:
		c.touchedEdges.clearSets(c.edgeUsed, c.edgeDup)
	default:
		c.touchedEdges.clearSets(c.edgeUsed)
	}
	c.round = nil
	c.dups = false
	return c.count
}
