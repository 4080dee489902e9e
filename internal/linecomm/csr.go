package linecomm

import (
	"math/bits"
	"slices"

	"sparsehypercube/internal/bitvec"
)

// This file is the flat engine of the streaming validators: csrState for
// broadcast and gossipCsrState for gossip. Every per-round disjointness
// set is indexed by an edge-slot id the network supplies
// (SlottedNetwork.EdgeSlot — for materialised graphs, backed by the CSR
// arrays) or, on hypercube-family networks without a numbering of their
// own, by the dimension-major closed form dim*order + lower (dimSlots),
// which keeps the hops of one round on one dimension inside one
// order-bit window of each set. Bit sets hold receivers, callers and
// capacity-1 edges; small per-slot counters hold generalised capacities
// (Options.EdgeCapacity/ReceiverCapacity > 1). Everything a round sets
// is cleared before the next: receivers and callers through the
// per-call lists the round keeps anyway (its newly informed receivers,
// its claiming calls), edge slots through a touch list of their own —
// up to one recorded slot per word of the set, past which the round
// resets the whole set instead (see touchList). So the engine allocates
// once per validation run and nothing per round.
//
// mapState stays as the reference engine — it is what the differential
// suite crosschecks csrState against, and the fallback for networks
// that carry no slot numbering or exceed the size caps.

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
// maxCSRSlots for counters.
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
// reproduces mapState's report-once-at-capacity+1 contract), and under
// generalised capacities they are per-slot counters with the same
// contract. Callers are a bit set; the rare duplicate recovers the first
// claimer's index by scanning the registered claims.
type csrState struct {
	net   SlottedNetwork
	opts  Options
	count uint64

	informed *bitvec.Set // order bits

	// Capacity-1 storage (nil when the capacity is generalised). The
	// dup shadows stay nil until the run's first conflict (markDups): a
	// valid schedule never needs them.
	edgeUsed, edgeDup *bitvec.Set // NumEdgeSlots bits each
	recvUsed, recvDup *bitvec.Set // order bits each
	// Generalised-capacity storage (nil under capacity 1).
	edgeCnt []int32 // NumEdgeSlots counters
	recvCnt []int32 // order counters

	callerUsed *bitvec.Set // order bits

	round        Round
	claimed      []int    // call indices that registered a caller, in order; clears callerUsed
	newly        []uint64 // receivers, one per recvUse; clears the receiver storage
	touchedEdges touchList
	// dups records that the round set a dup-shadow bit, so endRound
	// clears edgeDup and recvDup only after a round with a conflict.
	dups bool
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
		count:        1,
		informed:     bitvec.New(int(order)),
		callerUsed:   bitvec.New(int(order)),
		touchedEdges: newTouchList(sn.NumEdgeSlots()),
	}
	if opts.EdgeCapacity == 1 {
		st.edgeUsed = bitvec.New(sn.NumEdgeSlots())
	} else {
		st.edgeCnt = make([]int32, sn.NumEdgeSlots())
	}
	if opts.ReceiverCapacity == 1 {
		st.recvUsed = bitvec.New(int(order))
	} else {
		st.recvCnt = make([]int32, int(order))
	}
	st.informed.Set(int(source))
	return st
}

func (c *csrState) isInformed(v uint64) bool { return c.informed.Get(int(v)) }

func (c *csrState) seedInformed(vs []uint64) {
	for _, v := range vs {
		if !c.informed.TestAndSet(int(v)) {
			c.count++
		}
	}
}

// beginRound sizes the per-call lists for the whole round up front:
// rounds double in a broadcast, and growing the lists call by call
// would allocate several times their final size.
func (c *csrState) beginRound(r Round) {
	c.round = r
	c.claimed = slices.Grow(c.claimed, len(r))
	c.newly = slices.Grow(c.newly, len(r))
}

func (c *csrState) callerClaim(v uint64, ci int) (int, bool) {
	if !c.callerUsed.TestAndSet(int(v)) {
		c.claimed = append(c.claimed, ci)
		return 0, false
	}
	// Duplicate: recover the first claiming call's index by scanning the
	// registered claims (rare — only on an actual violation).
	for _, idx := range c.claimed {
		if c.round[idx].Path[0] == v {
			return idx, true
		}
	}
	return 0, true // unreachable: a set caller bit implies a claim
}

// edgeUseSlot is edgeUse for a slot checkCall already resolved:
// EdgeSlot doubles as the edge check there, so no hop is searched twice.
func (c *csrState) edgeUseSlot(slot int) bool {
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
	if c.recvUsed != nil && c.recvDup == nil {
		c.recvDup = bitvec.New(c.recvUsed.Len())
	}
}

func (c *csrState) edgeUse(u, v uint64) bool {
	// Interface completeness: the validator prefers edgeUseSlot, but any
	// caller without a resolved slot (only stageFull hops reach here, so
	// EdgeSlot succeeds by the SlottedNetwork contract) still works.
	slot, ok := c.net.EdgeSlot(u, v)
	if !ok {
		return false
	}
	return c.edgeUseSlot(slot)
}

func (c *csrState) recvUse(v uint64) bool {
	if c.recvUsed != nil {
		if !c.recvUsed.TestAndSet(int(v)) {
			return false
		}
		c.markDups()
		return !c.recvDup.TestAndSet(int(v))
	}
	c.recvCnt[v]++
	return int(c.recvCnt[v]) == c.opts.ReceiverCapacity+1
}

func (c *csrState) inform(v uint64) { c.newly = append(c.newly, v) }

// endRound applies the round's informs and clears what it set: every
// receiver use belongs to a call that informs it, so newly clears the
// receiver storage, and claimed the caller bits.
func (c *csrState) endRound() uint64 {
	for _, v := range c.newly {
		if !c.informed.TestAndSet(int(v)) {
			c.count++
		}
	}
	if c.recvUsed != nil {
		for _, v := range c.newly {
			c.recvUsed.Clear(int(v))
		}
		if c.dups {
			for _, v := range c.newly {
				c.recvDup.Clear(int(v))
			}
		}
	} else {
		for _, v := range c.newly {
			c.recvCnt[v] = 0
		}
	}
	for _, idx := range c.claimed {
		c.callerUsed.Clear(int(c.round[idx].Path[0]))
	}
	switch {
	case c.edgeUsed == nil:
		c.touchedEdges.clearCounts(c.edgeCnt)
	case c.dups:
		c.touchedEdges.clearSets(c.edgeUsed, c.edgeDup)
	default:
		c.touchedEdges.clearSets(c.edgeUsed)
	}
	c.newly = c.newly[:0]
	c.claimed = c.claimed[:0]
	c.round = nil
	c.dups = false
	return c.count
}

func (c *csrState) informedCount() uint64 { return c.count }

func (c *csrState) informedSet(uint64) *bitvec.Set { return c.informed }

// gossipCsrState is the slot-indexed telephone-model round state. Gossip
// reports every edge reuse (not just the first), so a plain bit per slot
// suffices; endpoint occupancy is a bit per vertex with the same
// first-claim recovery scan.
type gossipCsrState struct {
	edgeUsed *bitvec.Set // NumEdgeSlots bits
	busyUsed *bitvec.Set // order bits

	round        Round
	claimed      []int // calls that registered at least one endpoint, ascending; clears busyUsed
	touchedEdges touchList
}

func newGossipCSRState(sn SlottedNetwork, order uint64) *gossipCsrState {
	return &gossipCsrState{
		edgeUsed:     bitvec.New(sn.NumEdgeSlots()),
		busyUsed:     bitvec.New(int(order)),
		touchedEdges: newTouchList(sn.NumEdgeSlots()),
	}
}

func (g *gossipCsrState) beginRound(r Round) { g.round = r }

func (g *gossipCsrState) busyClaim(v uint64, ci int) (int, bool) {
	if !g.busyUsed.TestAndSet(int(v)) {
		if len(g.claimed) == 0 || g.claimed[len(g.claimed)-1] != ci {
			g.claimed = append(g.claimed, ci)
		}
		return 0, false
	}
	// Duplicate: recover the first occupying call by scanning the calls
	// that registered endpoints, in order (rare — only on a violation).
	// The first claimed call whose endpoint matches v is the occupier: any
	// non-claiming match would itself have been preceded by the claimer.
	for _, idx := range g.claimed {
		if c := g.round[idx]; c.From() == v || c.To() == v {
			return idx, true
		}
	}
	return 0, true // unreachable: a set busy bit implies a registered claim
}

// edgeUse takes the slot the structural pass resolved: EdgeSlot doubled
// as the edge check there, so no hop is looked up twice.
func (g *gossipCsrState) edgeUse(_, _ uint64, slot int32) bool {
	if !g.edgeUsed.TestAndSet(int(slot)) {
		g.touchedEdges.add(slot)
		return false
	}
	return true
}

// endRound clears the round's sets. Every busy bit was set by an
// endpoint of a claimed call, so clearing both endpoints of each claimed
// call clears them all.
func (g *gossipCsrState) endRound() {
	g.touchedEdges.clearSets(g.edgeUsed)
	for _, idx := range g.claimed {
		c := g.round[idx]
		g.busyUsed.Clear(int(c.From()))
		g.busyUsed.Clear(int(c.To()))
	}
	g.claimed = g.claimed[:0]
	g.round = nil
}
