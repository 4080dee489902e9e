package core

import (
	"iter"
	"runtime"
	"sync"

	"sparsehypercube/internal/linecomm"
)

// The streamed validators number a SparseHypercube's edge slots in
// closed form (dim*order + lower) only while it is a
// DimensionedNetwork.
var _ linecomm.DimensionedNetwork = (*SparseHypercube)(nil)

// streamChunk is the minimum number of call paths worth handing to a
// worker goroutine; smaller frontiers are built serially.
const streamChunk = 2048

// forChunks fans body out over [0, f) in contiguous ascending chunks
// across a GOMAXPROCS-bounded worker pool, running serially when f is
// below streamChunk. Every parallel stage of the schedule engines
// (broadcast rounds, the gossip frontier, gossip rounds) shares this
// fan-out, so worker sizing is tuned in one place.
func forChunks(f int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if w := (f + streamChunk - 1) / streamChunk; w < workers {
		workers = w
	}
	if workers <= 1 {
		body(0, f)
		return
	}
	chunk := (f + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, f)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// AppendCallPath appends CallPath(u, d) onto dst and returns the extended
// slice. It is the allocation-free form of CallPath used by the streaming
// schedule generator, which carves paths out of a per-round arena.
func (s *SparseHypercube) AppendCallPath(dst []uint64, u uint64, d int) []uint64 {
	s.checkDim(d)
	s.checkVertex(u)
	return s.extendPath(append(dst, u), d)
}

// ScheduleRounds generates the same broadcast scheme as BroadcastSchedule
// but as a round iterator: the round for dimension d is built from the
// informed-set frontier and yielded immediately, so peak memory is
// O(frontier) — the current round's calls plus the informed vertex list —
// instead of the full schedule's O(N * n * k) words. Call paths within a
// round are independent, so they are constructed in parallel across a
// worker pool sized by GOMAXPROCS.
//
// The round, path arena and frontier storage grow in steps of 8x, sized
// by frontierCap, not on every doubling of the frontier: a full
// generation allocates at most 8/7 of its final round's storage, and a
// consumer that stops after any round holds less than 8x that round's.
//
// The yielded round and every call path inside it are only valid until
// the next iteration step: the engine reuses their backing storage. Use
// linecomm.CloneRound to retain a round. Feed the iterator to
// linecomm.ValidateStream to machine-check Theorems 4 and 6 without ever
// materialising the schedule.
func (s *SparseHypercube) ScheduleRounds(source uint64) iter.Seq[linecomm.Round] {
	s.checkVertex(source)
	return func(yield func(linecomm.Round) bool) {
		maxPath := s.params.K + 1
		var (
			round    linecomm.Round
			arena    []uint64
			informed = []uint64{source}
		)
		for d := s.n; d >= 1; d-- {
			// Grow the frontier in place: callers occupy [0, f), their
			// receivers land in [f, 2f) (each informed vertex places
			// exactly one call, and in a valid scheme every receiver is
			// new, so the informed set doubles each round).
			f := len(informed)
			if cap(round) < f {
				c := frontierCap(f, s.Order()/2)
				round = make(linecomm.Round, c)
				arena = make([]uint64, c*maxPath)
				informed = append(make([]uint64, 0, 2*c), informed...)
			}
			round = round[:f]
			informed = informed[:2*f]
			s.buildRound(d, informed[:f], informed[f:2*f], round, arena, maxPath)
			if !yield(round) {
				return
			}
		}
	}
}

// frontierCap is the call capacity ScheduleRounds allocates when a
// frontier of f calls outgrows its storage: last, the final round's
// call count, divided by the largest power of 8 that keeps the result
// at least f. The result lies in [f, 8f), and the capacities a full
// generation steps through are last/8^j, which sum to under 8/7 of last.
func frontierCap(f int, last uint64) int {
	c := last
	for c/8 >= uint64(f) {
		c /= 8
	}
	return int(c)
}

// buildRound fills round[i] with callers[i]'s call across dimension d and
// records its receiver, fanning the frontier out over a worker pool.
func (s *SparseHypercube) buildRound(d int, callers, receivers []uint64, round linecomm.Round, arena []uint64, maxPath int) {
	forChunks(len(callers), func(lo, hi int) {
		s.buildRoundChunk(d, callers, receivers, round, arena, maxPath, lo, hi)
	})
}

// buildRoundChunk is the worker body for callers [lo, hi). Each call's
// path is carved from its own fixed arena slot (capacity maxPath >= the
// paper's k+1 length bound), so path construction never allocates.
func (s *SparseHypercube) buildRoundChunk(d int, callers, receivers []uint64, round linecomm.Round, arena []uint64, maxPath, lo, hi int) {
	if s.dimLevel[d] == 1 {
		// Base dimension: the edge is always present, so every call in
		// the round is the direct hop u -> u^2^(d-1). These are the low
		// dimensions, i.e. exactly the widest rounds of the broadcast.
		bit := uint64(1) << uint(d-1)
		for i := lo; i < hi; i++ {
			off := i * maxPath
			u := callers[i]
			p := append(arena[off:off:off+maxPath], u, u^bit)
			round[i] = linecomm.Call{Path: p}
			receivers[i] = u ^ bit
		}
		return
	}
	for i := lo; i < hi; i++ {
		off := i * maxPath
		p := append(arena[off:off:off+maxPath], callers[i])
		p = s.extendPath(p, d)
		round[i] = linecomm.Call{Path: p}
		receivers[i] = p[len(p)-1]
	}
}
