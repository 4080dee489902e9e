package linecomm

import (
	"fmt"

	"sparsehypercube/internal/bitvec"
	"sparsehypercube/internal/intmath"
)

// This file models k-line gossiping — the all-to-all analogue of the
// paper's broadcast problem (§5). Every vertex starts with its own token;
// a call between two vertices exchanges all tokens both ways (the
// telephone convention); calls placed in the same round must be
// edge-disjoint, of length at most k, and each vertex may be an endpoint
// of at most one call per round (pass-through switching remains free, as
// in the line model).
//
// ValidateGossip is the serial reference validator: it materialises a
// full token-set matrix (one bit row per vertex) and applies exchanges
// round by round. ValidateGossipStream (gossipstream.go) is the streamed
// form crosschecked against it: a hub certificate, with a sharded token
// simulation as its fallback.
//
// Two materialised schemes live here too: HypercubeExchange, the
// minimum-time dimension exchange on Q_n, and FromBroadcast, which lifts
// any broadcast into a 2x-length gather-scatter gossip. The sparse
// hypercube's streamed gather-scatter (core.ScheduleGossipRounds) is
// pinned round for round against FromBroadcast.

// MaxGossipSimulateOrder caps the serial validator's full token-set
// simulation (an order x order bit matrix). The streamed validator shards
// the matrix and reaches larger instances; see MaxGossipSimulateCells.
const MaxGossipSimulateOrder = 1 << 14

// GossipResult reports gossip validation.
type GossipResult struct {
	Violations []Violation
	// Complete: every vertex knows every token at the end.
	Complete bool
	// MinKnown is the smallest token count over vertices at the end.
	MinKnown int
	// Rounds is the schedule length.
	Rounds int
	// MinimumTime: complete in exactly ceil(log2 N) rounds.
	MinimumTime bool
	// MaxCallLength is the longest call seen among those with in-range,
	// non-degenerate paths (calls with other structural defects, such as
	// a missing edge, still count — their length is well defined).
	MaxCallLength int
	// Simulated reports that the knowledge half — Complete and MinKnown
	// — was decided exactly, by the streamed validator's hub certificate
	// or by simulating the tokens. It is false when neither could run (in
	// which case a SimulationCapExceeded violation is present and
	// Complete/MinKnown are meaningless zeros) or the source list was
	// rejected.
	Simulated bool
}

// Valid reports whether no violations were found.
func (r *GossipResult) Valid() bool { return len(r.Violations) == 0 }

// Err mirrors Result.Err.
func (r *GossipResult) Err() error {
	if r.Valid() {
		return nil
	}
	return fmt.Errorf("gossip: %d violations, first: %s", len(r.Violations), r.Violations[0])
}

// GossipMinimumRounds returns the gossip lower bound ceil(log2 N): each
// round at most doubles the spread of any single token.
func GossipMinimumRounds(order uint64) int { return intmath.CeilLog2(order) }

// HypercubeExchange returns the classic dimension-exchange gossip on Q_n:
// in the round for dimension i every vertex exchanges with its dimension-i
// neighbor (2^(n-1) disjoint edges). Completes in n = ceil(log2 N) rounds
// with k = 1 — minimum time, but on a degree-n graph.
func HypercubeExchange(n int) (*Schedule, error) {
	if n < 1 || n > 14 {
		return nil, fmt.Errorf("gossip: dimension %d out of [1,14]", n)
	}
	order := uint64(1) << uint(n)
	s := &Schedule{}
	for d := 1; d <= n; d++ {
		var round Round
		bit := uint64(1) << uint(d-1)
		for u := uint64(0); u < order; u++ {
			if u&bit == 0 {
				round = append(round, Call{Path: []uint64{u, u | bit}})
			}
		}
		s.Rounds = append(s.Rounds, round)
	}
	return s, nil
}

// FromBroadcast lifts ANY valid broadcast schedule into a gossip schedule
// of twice the length: the broadcast run backwards (reversed rounds,
// reversed paths) gathers every token at the source — each vertex sends
// to the vertex that informed it, strictly before that vertex sends on,
// because broadcast informs parents before children — then the original
// broadcast scatters the full token set. Edge-disjointness per round and
// the one-call-per-vertex gossip constraint are inherited from the
// broadcast rounds (callers and receivers of a valid broadcast round are
// disjoint sets). This turns every broadcast scheme in the repository —
// Broadcast_k, the tri-tree schemes, tree planners — into a
// 2*ceil(log2 N)-round gossip scheme on the same graph.
func FromBroadcast(bc *Schedule) *Schedule {
	out := &Schedule{Source: bc.Source}
	for ri := len(bc.Rounds) - 1; ri >= 0; ri-- {
		var round Round
		for _, call := range bc.Rounds[ri] {
			rev := make([]uint64, len(call.Path))
			for i, v := range call.Path {
				rev[len(call.Path)-1-i] = v
			}
			round = append(round, Call{Path: rev})
		}
		out.Rounds = append(out.Rounds, round)
	}
	out.Rounds = append(out.Rounds, bc.Rounds...)
	return out
}

// ValidateGossip checks a schedule under the k-line gossip model on net
// and simulates token propagation with a full per-vertex token-set
// matrix. Schedule.Source is ignored (gossip has no distinguished
// originator). Orders beyond MaxGossipSimulateOrder report a
// SimulationCapExceeded violation; ValidateGossipStream shards the
// simulation and reaches far larger instances.
func ValidateGossip(net Network, k int, s *Schedule) *GossipResult {
	res := &GossipResult{Rounds: len(s.Rounds)}
	order := net.Order()
	if order > MaxGossipSimulateOrder {
		res.Violations = append(res.Violations, Violation{
			Round: -1, Call: -1, Kind: SimulationCapExceeded,
			Msg: fmt.Sprintf("order %d exceeds serial simulation cap %d (ValidateGossipStream shards up to %d vertex-token cells)",
				order, MaxGossipSimulateOrder, MaxGossipSimulateCells),
		})
		return res
	}
	n := int(order)
	know := make([]*bitvec.Set, n)
	for v := 0; v < n; v++ {
		know[v] = bitvec.New(n)
		know[v].Set(v)
	}
	// Per-round state is allocated once and cleared between rounds, so a
	// valid schedule validates at O(order) total allocations (the token
	// matrix), independent of round and call counts.
	var (
		usedEdge = make(map[edgeKey]bool)
		busy     = make(map[uint64]int)
		merges   []uint64 // flat (from, to) pairs of the current round
	)
	for ri, round := range s.Rounds {
		clear(usedEdge)
		clear(busy)
		merges = merges[:0]
		for ci, call := range round {
			var stage uint8
			stage, res.Violations = checkCall(net, k, order, ri, ci, call, res.Violations)
			if stage == stageSkip {
				continue
			}
			if l := call.Length(); l > res.MaxCallLength {
				res.MaxCallLength = l
			}
			if stage != stageFull {
				continue
			}
			from, to := call.From(), call.To()
			for _, endpoint := range [2]uint64{from, to} {
				if prev, dup := busy[endpoint]; dup {
					res.Violations = append(res.Violations, Violation{ri, ci, CallerDuplicate,
						fmt.Sprintf("vertex %d already in call %d this round", endpoint, prev)})
				} else {
					busy[endpoint] = ci
				}
			}
			for i := 1; i < len(call.Path); i++ {
				e := mkEdge(call.Path[i-1], call.Path[i])
				if usedEdge[e] {
					res.Violations = append(res.Violations, Violation{ri, ci, EdgeConflict,
						fmt.Sprintf("edge {%d,%d} reused", e.u, e.v)})
				}
				usedEdge[e] = true
			}
			merges = append(merges, from, to)
		}
		// Apply the round's exchanges: both endpoints end up with the
		// union of their token sets. In a violation-free round the pairs
		// are vertex-disjoint, so application order does not matter (the
		// synchronous-round semantics); with busy-vertex violations the
		// exchanges chain in call order, which is what the streamed
		// validator reproduces.
		for p := 0; p < len(merges); p += 2 {
			a, b := know[merges[p]], know[merges[p+1]]
			a.UnionWith(b)
			b.CopyFrom(a)
		}
	}
	res.Simulated = true
	res.MinKnown = n
	res.Complete = true
	for v := 0; v < n; v++ {
		c := know[v].Count()
		if c < res.MinKnown {
			res.MinKnown = c
		}
		if c != n {
			res.Complete = false
		}
	}
	res.MinimumTime = res.Complete && len(s.Rounds) == GossipMinimumRounds(order)
	return res
}
