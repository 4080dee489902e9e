package linecomm

import (
	"fmt"
	"math/bits"
	"slices"

	"sparsehypercube/internal/bitvec"
	"sparsehypercube/internal/graph"
)

// This file is the one engine of the streaming validators: csrState for
// broadcast and gossipCsrState for gossip. Every per-round disjointness
// set is indexed by an edge-slot id the network supplies
// (SlottedNetwork.EdgeSlot — for materialised graphs, backed by the CSR
// arrays) or, on hypercube-family networks without a numbering of their
// own, by the dimension-major closed form dim*order + lower (dimSlots),
// which keeps the hops of one round on one dimension inside one
// order-bit window of each set. Bit sets hold receivers, callers and
// capacity-1 edges; small per-slot counters hold generalised capacities
// (Options.EdgeCapacity/ReceiverCapacity > 1). Everything a round sets
// is cleared before the next, by the round's size: a round with at
// least one call per word of the order-bit vertex sets is dense, and
// ends word-wide — its receiver set is unioned into the informed set
// with a popcount of the new bits, and the receiver and caller sets
// reset whole — while a sparser round (a k-tree broadcast's rounds of
// a few calls) clears element by element through its receiver list and
// its calls. Edge slots follow a touch list of their own by the same
// rule: up to one recorded slot per word of the set, past which the
// round resets the whole set instead (see touchList). So the engine
// allocates once per validation run and nothing per round.
//
// The serial validators, Validate and ValidateGossip, stay as the
// independent references the differential suites crosscheck both
// engines against. A network slottedFor rejects is refused
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

// EdgeSlot implements SlottedNetwork.
func (d dimSlots) EdgeSlot(u, v uint64) (int, bool) {
	if !d.HasEdge(u, v) {
		return 0, false
	}
	return bits.TrailingZeros64(u^v)*d.order + int(min(u, v)), true
}

// csrState is the slot-indexed round state: the disjointness engine of
// ValidateStream on any SlottedNetwork (dimSlots included), generalised
// capacities included. Under the default capacity-1 model
// edge and receiver uses are used/dup bit-set pairs (two bits per slot,
// cache-resident even for million-edge graphs; the dup shadow
// reproduces the serial validator's report-once-at-capacity+1
// contract), and under generalised capacities they are per-slot
// counters with the same contract. Callers are a bit set; the rare duplicate recovers the first
// claimer's index by scanning the round's earlier calls.
//
// The validator's clean-call kernel (streamValidator.cleanCall) reads
// and writes these sets directly; the exact path goes through the
// methods below. isInformed answers for the informed set as of the
// round's start: a round's receivers are informed only at endRound.
type csrState struct {
	net   SlottedNetwork
	gg    *graph.Graph // devirtualised slot source when net is a GraphNetwork
	opts  Options
	order uint64
	count uint64

	informed *bitvec.Set // order bits

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

	callerUsed *bitvec.Set // order bits

	round        Round
	touchedEdges touchList
	// dups records that the round set a dup-shadow bit, so endRound
	// clears edgeDup and recvDup only after a round with a conflict.
	dups bool

	hopSlots []int32 // the kernel's resolved edge slots for one call
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

func newCSRState(sn SlottedNetwork, order, source uint64, opts Options) *csrState {
	st := &csrState{
		net:          sn,
		opts:         opts,
		order:        order,
		count:        1,
		informed:     bitvec.New(int(order)),
		recvUsed:     bitvec.New(int(order)),
		callerUsed:   bitvec.New(int(order)),
		touchedEdges: newTouchList(sn.NumEdgeSlots()),
	}
	if gn, ok := sn.(GraphNetwork); ok {
		st.gg = gn.G
	}
	if opts.EdgeCapacity == 1 {
		st.edgeUsed = bitvec.New(sn.NumEdgeSlots())
	} else {
		st.edgeCnt = make([]int32, sn.NumEdgeSlots())
	}
	if opts.ReceiverCapacity > 1 {
		st.recvCnt = make([]int32, int(order))
	}
	st.informed.Set(int(source))
	return st
}

func (c *csrState) isInformed(v uint64) bool { return c.informed.Get(int(v)) }

// beginRound retains r until endRound, which clears a sparse round's
// callers and receivers through it; callerClaim scans it to recover a
// duplicate caller's first call.
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
// directly when the network is a GraphNetwork.
func (c *csrState) edgeSlot(a, b uint64) (int, bool) {
	if c.gg != nil {
		return c.gg.EdgeSlot(int(a), int(b))
	}
	return c.net.EdgeSlot(a, b)
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
// round walks its calls instead, clearing each caller and each receiver
// it registered, and informing the latter. Edge slots follow their own
// touch list either way.
func (c *csrState) endRound() uint64 {
	if denseRound(len(c.round), c.order) {
		c.count += uint64(c.informed.UnionWithCount(c.recvUsed))
		c.recvUsed.Reset()
		if c.recvCnt != nil {
			clear(c.recvCnt)
		} else if c.dups {
			c.recvDup.Reset()
		}
		c.callerUsed.Reset()
	} else {
		for _, call := range c.round {
			if len(call.Path) == 0 {
				continue
			}
			if from := call.Path[0]; from < c.order {
				c.callerUsed.Clear(int(from))
			}
			to := call.Path[len(call.Path)-1]
			if to >= c.order || !c.recvUsed.Get(int(to)) {
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

// gossipCsrState is the slot-indexed telephone-model round state. Gossip
// reports every edge reuse (not just the first), so a plain bit per slot
// suffices; endpoint occupancy is a bit per vertex, and the rare
// duplicate endpoint recovers the first occupying call by rescanning the
// round, as csrState does for callers.
type gossipCsrState struct {
	sn    SlottedNetwork
	k     int
	order uint64

	edgeUsed *bitvec.Set // NumEdgeSlots bits
	busyUsed *bitvec.Set // order bits

	round        Round
	touchedEdges touchList
	scanSlots    []int32 // checkGossipCall scratch for the duplicate rescan
}

func newGossipCSRState(sn SlottedNetwork, k int, order uint64) *gossipCsrState {
	return &gossipCsrState{
		sn:           sn,
		k:            k,
		order:        order,
		edgeUsed:     bitvec.New(sn.NumEdgeSlots()),
		busyUsed:     bitvec.New(int(order)),
		touchedEdges: newTouchList(sn.NumEdgeSlots()),
	}
}

// beginRound retains r until endRound, as csrState.beginRound does.
func (g *gossipCsrState) beginRound(r Round) { g.round = r }

// busyClaim registers call ci as occupying endpoint v. When v is already
// busy this round it reports the occupying call's index.
func (g *gossipCsrState) busyClaim(v uint64, ci int) (int, bool) {
	if !g.busyUsed.TestAndSet(int(v)) {
		return 0, false
	}
	// Duplicate (rare — only on a violation): only calls that pass the
	// structural checks claim endpoints, both of theirs, so the occupier
	// is the first earlier such call with v as an endpoint.
	for idx, call := range g.round[:ci] {
		if call.From() != v && call.To() != v {
			continue
		}
		if len(call.Path) > len(g.scanSlots)+1 {
			g.scanSlots = make([]int32, len(call.Path)-1)
		}
		if stage, _ := checkGossipCall(nil, g.sn, g.k, g.order, 0, idx, call, g.scanSlots, nil); stage == gossipFull {
			return idx, true
		}
	}
	return 0, true // unreachable: a set busy bit implies an earlier claim
}

// edgeUse registers one use of the edge in slot, which the structural
// pass resolved (EdgeSlot doubled as the edge check there, so no hop is
// looked up twice), and reports whether the edge was already used this
// round. Gossip reports every reuse, not just the first.
func (g *gossipCsrState) edgeUse(slot int32) bool {
	if !g.edgeUsed.TestAndSet(int(slot)) {
		g.touchedEdges.add(slot)
		return false
	}
	return true
}

// endRound clears the round's sets. Every busy bit was set by an
// endpoint of one of the round's calls, so a sparse round clears both
// in-range endpoints of each call; a round with at least one call per
// word of the set resets it whole instead, as csrState does.
func (g *gossipCsrState) endRound() {
	g.touchedEdges.clearSets(g.edgeUsed)
	if denseRound(len(g.round), g.order) {
		g.busyUsed.Reset()
	} else {
		for _, c := range g.round {
			for _, v := range [2]uint64{c.From(), c.To()} {
				if v < g.order {
					g.busyUsed.Clear(int(v))
				}
			}
		}
	}
	g.round = nil
}
