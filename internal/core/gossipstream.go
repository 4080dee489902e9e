package core

import (
	"iter"

	"sparsehypercube/internal/linecomm"
)

// This file generalises the streaming schedule engine (stream.go) from
// broadcast to gather-scatter gossip. The obstacle to streaming the
// gather phase is that it is the broadcast run backwards: its first round
// is the broadcast's last — the one round a forward frontier walk reaches
// only after producing every other round. The naive answer materialises
// one full broadcast schedule.
//
// The engine instead precomputes the frontier array: the informed vertex
// list of the full broadcast, laid out so that the prefix of length 2^r
// is exactly the informed set after r rounds (callers occupy [0, 2^r),
// their receivers land at the mirrored offsets [2^r, 2^{r+1}) — one shard
// per sub-cube of the recursion, written at deterministic offsets by a
// worker pool, so the merged frontier is byte-identical regardless of
// worker count). Any broadcast round can then be rebuilt independently:
// round r's calls are CallPath(frontier[i], d) for i < 2^r. The gather
// phase replays rounds n-1..0 with reversed paths, the scatter phase
// rounds 0..n-1 forward — 2n rounds, byte-identical to
// linecomm.FromBroadcast(BroadcastSchedule(root)), at O(N) words peak
// (the frontier plus one round's arena) instead of the full
// O(N*n*k)-word schedule.

// callEndpoint returns the final vertex of CallPath(u, d) without
// building the path: the frontier precomputation needs only receivers.
func (s *SparseHypercube) callEndpoint(u uint64, d int) uint64 {
	r := &s.routes[d]
	if r.table != nil {
		if helper := int(r.table[(u>>r.shift)&r.mask]); helper != 0 {
			u = s.callEndpoint(u, helper)
		}
	}
	return u ^ (1 << uint(d-1))
}

// GossipFrontier returns the broadcast frontier array from root: a
// permutation of the vertex set whose prefix of length 2^r is the
// informed set after r broadcast rounds, in the engine's canonical order
// (frontier[2^r + i] is the receiver of frontier[i]'s round-r call).
func (s *SparseHypercube) GossipFrontier(root uint64) []uint64 {
	s.checkVertex(root)
	return s.gossipFrontier(root)
}

func (s *SparseHypercube) gossipFrontier(root uint64) []uint64 {
	frontier := make([]uint64, s.Order())
	frontier[0] = root
	for r := 0; r < s.n; r++ {
		d := s.n - r
		f := 1 << uint(r)
		callers, receivers := frontier[:f], frontier[f:2*f]
		forChunks(f, func(lo, hi int) {
			s.fillEndpoints(d, callers, receivers, lo, hi)
		})
	}
	return frontier
}

// fillEndpoints is the frontier worker body: receivers[i] is the
// endpoint of callers[i]'s dimension-d call, written at the fixed
// mirrored offset (the deterministic merge of the shard outputs).
func (s *SparseHypercube) fillEndpoints(d int, callers, receivers []uint64, lo, hi int) {
	if s.dimLevel[d] == 1 {
		bit := uint64(1) << uint(d-1)
		for i := lo; i < hi; i++ {
			receivers[i] = callers[i] ^ bit
		}
		return
	}
	for i := lo; i < hi; i++ {
		receivers[i] = s.callEndpoint(callers[i], d)
	}
}

// ScheduleGossipRounds generates the same 2n-round gather-scatter gossip
// scheme as linecomm.FromBroadcast(s.BroadcastSchedule(root)) but as a
// round iterator off the precomputed frontier: the gather phase emits
// the broadcast rounds in reverse order with reversed paths (each vertex
// returns its tokens along the call that informed it), the scatter phase
// re-emits them forward. Peak memory is the O(N)-word frontier plus one
// round's arena — the doubled schedule is never materialised. Call paths
// within a round are built in parallel across a worker pool,
// arena-backed like ScheduleRounds.
//
// The yielded round and every call path inside it are only valid until
// the next iteration step: the engine reuses their backing storage. Use
// linecomm.CloneRound to retain a round. Feed the iterator to
// linecomm.ValidateGossipStream (or ValidateMultiSourceStream) to check
// the telephone-model gossip constraints without materialising anything.
func (s *SparseHypercube) ScheduleGossipRounds(root uint64) iter.Seq[linecomm.Round] {
	s.checkVertex(root)
	return func(yield func(linecomm.Round) bool) {
		maxPath := s.params.K + 1
		frontier := s.gossipFrontier(root)
		var (
			round linecomm.Round
			arena []uint64
		)
		emit := func(r int, reversed bool) bool {
			d := s.n - r
			f := 1 << uint(r)
			if cap(round) < f {
				round = make(linecomm.Round, f)
			}
			round = round[:f]
			if cap(arena) < f*maxPath {
				arena = make([]uint64, f*maxPath)
			}
			s.buildGossipRound(d, frontier[:f], round, arena, maxPath, reversed)
			return yield(round)
		}
		// Gather: rounds n-1 .. 0, paths reversed (receiver calls its
		// informer). The widest round comes first, so the arena and round
		// buffers are right-sized once.
		for r := s.n - 1; r >= 0; r-- {
			if !emit(r, true) {
				return
			}
		}
		// Scatter: the broadcast itself, rounds 0 .. n-1.
		for r := 0; r < s.n; r++ {
			if !emit(r, false) {
				return
			}
		}
	}
}

// buildGossipRound fills round[i] with callers[i]'s dimension-d call
// (path reversed for the gather phase), fanning the frontier out over a
// worker pool exactly like the broadcast engine's buildRound.
func (s *SparseHypercube) buildGossipRound(d int, callers []uint64, round linecomm.Round, arena []uint64, maxPath int, reversed bool) {
	forChunks(len(callers), func(lo, hi int) {
		s.buildGossipRoundChunk(d, callers, round, arena, maxPath, lo, hi, reversed)
	})
}

// buildGossipRoundChunk is the worker body for callers [lo, hi). Each
// call path is carved from its own fixed arena slot and, for the gather
// phase, reversed in place.
func (s *SparseHypercube) buildGossipRoundChunk(d int, callers []uint64, round linecomm.Round, arena []uint64, maxPath, lo, hi int, reversed bool) {
	if s.dimLevel[d] == 1 {
		// Base dimension: every call is the direct hop u -> u^2^(d-1).
		bit := uint64(1) << uint(d-1)
		for i := lo; i < hi; i++ {
			off := i * maxPath
			u := callers[i]
			var p []uint64
			if reversed {
				p = append(arena[off:off:off+maxPath], u^bit, u)
			} else {
				p = append(arena[off:off:off+maxPath], u, u^bit)
			}
			round[i] = linecomm.Call{Path: p}
		}
		return
	}
	for i := lo; i < hi; i++ {
		off := i * maxPath
		p := append(arena[off:off:off+maxPath], callers[i])
		p = s.extendPath(p, d)
		if reversed {
			for a, b := 0, len(p)-1; a < b; a, b = a+1, b-1 {
				p[a], p[b] = p[b], p[a]
			}
		}
		round[i] = linecomm.Call{Path: p}
	}
}
