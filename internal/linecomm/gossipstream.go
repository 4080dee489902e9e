package linecomm

import (
	"fmt"
	"iter"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the streaming half of the gossip validator:
// ValidateGossipStream consumes rounds as a producer
// (core.ScheduleGossipRounds, a schedio decoder, a network feed) emits
// them, so the doubled gather-scatter schedule is never materialised.
// Its round state is broadcast's csrState (csr.go) without the
// knowledge step: busy endpoints and edges only. Each exchange first
// meets gossip's clean-call kernel (cleanExchange: both endpoints free,
// then broadcast's hop half, claimHops); every exchange it
// declines takes the exact path (validateExchange), the only source of
// violations, in ValidateGossip's order. Only the (from, to) exchange
// pairs are retained — two 32-bit ids per call instead of the full
// paths. A network without an edge-slot numbering within the bit-set
// caps is refused before a round is consumed, as in the broadcast
// validator.
//
// Knowledge tracking is the part that does not fit in memory at n >= 20:
// a full token matrix is order^2 bits (128 GiB at n = 20). The streamed
// validator first tries the hub certificate (certifyGossip): a few
// linear reachability replays of the log from the schedule's origin,
// which accept gather-scatter schedules — the paper's §5 gossip —
// outright. Only logs it rejects reach the token simulation, which
// shards the token axis: each shard owns a slice of
// the token universe and replays the retained exchange pairs over it,
// and shards run across a worker pool, folding per-vertex counts into a
// shared count vector under a lock. Within a shard every vertex carries
// a one-byte row state — zero, partial or full — and only partial rows
// hold words in the worker's order x shardTokens matrix. An exchange
// with an empty or a full row changes states only; partial with partial
// ORs one row of at most a cache line. Gather-scatter keeps most rows
// empty until the root fills, and full after it, so most replays never
// touch the matrix, which is written only as rows turn partial and is
// never cleared. Per-worker memory is bounded by gossipSimBudgetBytes
// regardless of order, and the counts are exactly those of the serial
// simulation because token exchange is union-only (shards never
// interact, and union with an empty or a full row needs no words).
//
// The same machinery validates multi-source dissemination
// (ValidateMultiSourceStream): only the listed sources hold tokens, so
// the token axis is len(sources) wide and instances far beyond the
// all-source cap still simulate exactly.

const (
	// MaxGossipSimulateCells caps order x tokens, the total knowledge
	// matrix size the streamed validator is willing to fill (across all
	// shards). 2^40 cells admits full gossip at n = 20 and, e.g., 2^20
	// sampled sources at n = 20; time scales with cells / word size.
	MaxGossipSimulateCells = uint64(1) << 40
	// MaxGossipSimulateVertices caps order alone: the count vector and
	// every shard's matrix have one row per vertex no matter how narrow
	// the token shard is.
	MaxGossipSimulateVertices = uint64(1) << 26
	// MaxGossipCertifyExchanges caps the exchange log kept for the hub
	// certificate past the simulation caps: 2^23 exchanges, 64 MiB of
	// 32-bit pairs, enough for gather-scatter through n = 22.
	MaxGossipCertifyExchanges = 1 << 23
)

// gossipSimBudgetBytes bounds the simulation's resident matrix memory
// (all workers together). A variable so tests can shrink it to force
// many narrow shards.
var gossipSimBudgetBytes = 512 << 20

// ValidateGossipStream checks a streamed schedule under the k-line
// gossip model on net — every vertex starts with its own token — and
// returns the same GossipResult, violation for violation, that
// ValidateGossip returns on the materialised schedule whenever both run
// (order <= MaxGossipSimulateOrder). hub is the schedule's origin (the
// gather-scatter root): the hub certificate tries to decide completeness
// through it in a few linear replays of the exchange log. It never
// changes a result, since a rejected certificate falls back to the
// token simulation; a hub outside the network certifies nothing. The
// simulation shards the token matrix up to MaxGossipSimulateCells /
// MaxGossipSimulateVertices; past those caps only the certificate can
// decide, over logs of at most MaxGossipCertifyExchanges exchanges.
// Every structural check runs regardless, and an undecided knowledge
// half is reported as a SimulationCapExceeded violation. A network the
// CSR engine cannot index (slottedFor under Definition 1's capacities)
// gets that violation alone, at round -1, and no round is consumed.
func ValidateGossipStream(net Network, k int, hub uint64, rounds iter.Seq[Round]) *GossipResult {
	return ValidateMultiSourceStream(net, k, hub, nil, rounds)
}

// ValidateMultiSourceStream is ValidateGossipStream for multi-source
// dissemination: only sources hold tokens at the start (nil or empty
// means every vertex, i.e. gossip), and completion means every vertex
// ends up knowing every source's token. The narrower token axis is what
// makes exact simulation feasible at orders where all-source gossip
// exceeds the cell cap. Sources must be distinct and in range; offenders
// are reported as violations and disable the knowledge half.
func ValidateMultiSourceStream(net Network, k int, hub uint64, sources []uint64, rounds iter.Seq[Round]) *GossipResult {
	res := &GossipResult{}
	order := net.Order()
	// The gossip state holds bit sets only: Definition 1 storage caps.
	sn, ok := slottedFor(net, order, DefaultOptions())
	if !ok {
		res.Violations = append(res.Violations, streamRefusal(net, order))
		return res
	}
	if len(sources) == 0 {
		sources = nil // empty and nil both mean all-source, everywhere below
	}
	m, srcOK := countGossipTokens(res, order, sources)
	simulate := srcOK && order > 0 &&
		order <= MaxGossipSimulateVertices &&
		uint64(m) <= MaxGossipSimulateCells/order
	// The certificate needs the same log; past the simulation caps it is
	// the only use of the log, which is then held to
	// MaxGossipCertifyExchanges.
	certify := srcOK && hub < order && order <= MaxGossipSimulateVertices
	g := &gossipValidator{net: net, k: k, order: order, res: res,
		st: newCSRState(sn, order, DefaultOptions()), keepLog: simulate || certify, logLimit: math.MaxInt}
	if !simulate {
		g.logLimit = 2 * MaxGossipCertifyExchanges
	}
	for round := range rounds {
		g.validateRound(res.Rounds, round)
		res.Rounds++
	}
	g.finish()

	switch {
	case g.keepLog && certify && certifyGossip(order, hub, sources, g.pairs, g.ends):
		// Every vertex knows every token: exactly what the simulation
		// would count.
		res.Simulated, res.Complete, res.MinKnown = true, true, m
	case simulate:
		counts := simulateTokens(order, sources, g.pairs)
		res.Simulated = true
		res.MinKnown = m
		res.Complete = true
		for _, c := range counts {
			if int(c) < res.MinKnown {
				res.MinKnown = int(c)
			}
			if int(c) != m {
				res.Complete = false
			}
		}
	case srcOK:
		res.Violations = slices.Insert(res.Violations, 0, Violation{
			Round: -1, Call: -1, Kind: SimulationCapExceeded,
			Msg: fmt.Sprintf("order %d with %d tokens exceeds streamed simulation caps (order <= %d, order*tokens <= %d)",
				order, m, MaxGossipSimulateVertices, MaxGossipSimulateCells),
		})
	}
	res.MinimumTime = res.Complete && res.Rounds == GossipMinimumRounds(order)
	return res
}

// gossipValidator runs the gossip per-call pass on a csrState without
// knowledge, and keeps the exchange log.
type gossipValidator struct {
	net   Network
	k     int
	order uint64
	st    *csrState
	res   *GossipResult
	callCounter

	// keepLog: the knowledge half needs the flat (from, to) exchange log
	// pairs, ends[r] exchanges long after round r. Kept orders are capped
	// at MaxGossipSimulateVertices = 2^26, so ids fit 32 bits.
	keepLog  bool
	pairs    []uint32
	ends     []int
	logLimit int
}

func (g *gossipValidator) validateRound(ri int, round Round) {
	g.st.beginRound(round)
	if g.keepLog {
		g.pairs = growLog(g.pairs, 2*len(round), g.logLimit)
	}
	for ci, call := range round {
		if g.cleanExchange(call) {
			g.kernelCalls++
			continue
		}
		g.exactCalls++
		g.validateExchange(ri, ci, call)
	}
	g.st.endRound()
	if g.keepLog {
		g.ends = append(g.ends, len(g.pairs)/2)
	}
}

// cleanExchange is gossip's clean-call kernel: both endpoints in range
// and free, then the hop half (claimHops), which claims the hops when
// they pass. Only then does it commit the rest of what validateExchange
// commits on such a call — both endpoints busy, the log pair — and
// report true; a declined call has changed nothing.
func (g *gossipValidator) cleanExchange(call Call) bool {
	c := g.st
	p := call.Path
	if len(p) < 2 {
		return false
	}
	from, to := p[0], p[len(p)-1]
	if from >= g.order || to >= g.order || c.callerUsed.Get(int(from)) || c.callerUsed.Get(int(to)) {
		return false
	}
	if !c.claimHops(p, g.k) {
		return false
	}
	if l := len(p) - 1; l > g.res.MaxCallLength {
		g.res.MaxCallLength = l
	}
	c.callerUsed.Set(int(from))
	c.callerUsed.Set(int(to))
	g.logExchange(from, to)
	return true
}

// validateExchange is the exact path, in ValidateGossip's violation
// order: checkCall, the endpoint claims, then each hop's reuse.
func (g *gossipValidator) validateExchange(ri, ci int, call Call) {
	var stage uint8
	stage, g.res.Violations = checkCall(g.net, g.k, g.order, ri, ci, call, g.res.Violations)
	if stage == stageSkip {
		return
	}
	if l := call.Length(); l > g.res.MaxCallLength {
		g.res.MaxCallLength = l
	}
	if stage != stageFull {
		return
	}
	from, to := call.From(), call.To()
	for _, endpoint := range [2]uint64{from, to} {
		if prev, dup := g.endpointClaim(endpoint, ci); dup {
			g.res.Violations = append(g.res.Violations, Violation{ri, ci, CallerDuplicate,
				fmt.Sprintf("vertex %d already in call %d this round", endpoint, prev)})
		}
	}
	for i := 1; i < len(call.Path); i++ {
		if g.st.edgeReuse(call.Path[i-1], call.Path[i]) {
			e := mkEdge(call.Path[i-1], call.Path[i])
			g.res.Violations = append(g.res.Violations, Violation{ri, ci, EdgeConflict,
				fmt.Sprintf("edge {%d,%d} reused", e.u, e.v)})
		}
	}
	g.logExchange(from, to)
}

// endpointClaim registers call ci as occupying endpoint v. When v is
// already busy this round it reports the occupying call's index: only
// stageFull calls claim endpoints, both of theirs, so the occupier is
// the first earlier such call with v as an endpoint.
func (g *gossipValidator) endpointClaim(v uint64, ci int) (int, bool) {
	if !g.st.callerUsed.TestAndSet(int(v)) {
		return 0, false
	}
	for idx, call := range g.st.round[:ci] {
		if call.From() != v && call.To() != v {
			continue
		}
		if stage, _ := checkCall(g.net, g.k, g.order, 0, idx, call, nil); stage == stageFull {
			return idx, true
		}
	}
	return 0, true // unreachable: a set busy bit implies an earlier claim
}

// logExchange appends the pair to the exchange log. A log that reaches
// its limit is dropped: too long to certify, and too large to simulate,
// so the knowledge half stays undecided.
func (g *gossipValidator) logExchange(from, to uint64) {
	switch {
	case !g.keepLog:
	case len(g.pairs) == g.logLimit:
		g.pairs, g.ends, g.keepLog = nil, nil, false
	default:
		g.pairs = append(g.pairs, uint32(from), uint32(to))
	}
}

// growLog makes room in the exchange log for more entries, doubling its
// capacity up to limit. Append's own growth, 1.25x for large slices,
// would allocate about five times the final log over its lifetime;
// doubling allocates at most twice its final capacity.
func growLog(pairs []uint32, more, limit int) []uint32 {
	if cap(pairs)-len(pairs) >= more || cap(pairs) >= limit {
		return pairs
	}
	c := min(max(2*cap(pairs), len(pairs)+more), limit)
	return append(make([]uint32, 0, c), pairs...)
}

// certifyGossip is the hub certificate: a one-sided test, in a few
// linear passes over the exchange log, that every vertex ends up knowing
// every token. Round r of the log ends at exchange ends[r]. Exchanges apply in log order and
// give both endpoints the union of their knowledge, as in the
// simulation, so knowledge only grows and two replays decide it:
//
//   - gather: hub knows every token once the first t rounds are over
//     iff replaying those rounds backwards from S = {hub}, where an
//     exchange with one endpoint in S adds the other, ends with S
//     holding every token's source. That is monotone in t, so a binary
//     search over round boundaries finds the smallest t;
//   - scatter: replaying the rest forwards from F = {hub} under the same
//     rule, F is the set of vertices that end up knowing everything hub
//     knew after round t.
//
// If F covers every vertex the certificate accepts, and every vertex
// knows all tokens. Otherwise (a log with no hub, or an incomplete one)
// it rejects and the caller simulates. The rule is exact on any log,
// invalid ones included, so an accept never disagrees with the
// simulation. Gather-scatter rooted at hub always passes: t is the end
// of the gather phase.
func certifyGossip(order, hub uint64, sources []uint64, pairs []uint32, ends []int) bool {
	n := int(order)
	words := (n + 63) / 64
	has := func(set []uint64, v uint32) bool { return set[v>>6]&(1<<(v&63)) != 0 }
	var isSource []uint64 // nil: every vertex holds a token
	m := n
	if sources != nil {
		m = len(sources)
		isSource = make([]uint64, words)
		for _, v := range sources {
			isSource[v>>6] |= 1 << (v & 63)
		}
	}
	h := uint32(hub)
	reached := make([]uint64, words)
	reset := func() {
		clear(reached)
		reached[h>>6] |= 1 << (h & 63)
	}
	// boundary is the exchange index where round t begins.
	boundary := func(t int) int {
		if t == 0 {
			return 0
		}
		return ends[t-1]
	}

	// gathered reports whether hub knows every token once the first t
	// rounds are over: the backward replay reaches every source.
	gathered := func(t int) bool {
		reset()
		got := 0
		if isSource == nil || has(isSource, h) {
			got++
		}
		for p := 2*boundary(t) - 2; p >= 0 && got < m; p -= 2 {
			a, b := pairs[p], pairs[p+1]
			ina, inb := has(reached, a), has(reached, b)
			if ina == inb {
				continue
			}
			v := a
			if ina {
				v = b
			}
			reached[v>>6] |= 1 << (v & 63)
			if isSource == nil || has(isSource, v) {
				got++
			}
		}
		return got == m
	}
	t := sort.Search(len(ends)+1, gathered)
	if t > len(ends) {
		return false
	}

	// Scatter: the forward replay of the rest reaches every vertex.
	reset()
	got := 1
	for p := 2 * boundary(t); p < len(pairs) && got < n; p += 2 {
		a, b := pairs[p], pairs[p+1]
		ina, inb := has(reached, a), has(reached, b)
		if ina == inb {
			continue
		}
		v := a
		if ina {
			v = b
		}
		reached[v>>6] |= 1 << (v & 63)
		got++
	}
	return got == n
}

// countGossipTokens validates the source list and returns the token
// count: order for all-source gossip, len(sources) otherwise. ok is false
// when any source is out of range or repeated (reported as violations).
func countGossipTokens(res *GossipResult, order uint64, sources []uint64) (int, bool) {
	if len(sources) == 0 {
		return int(order), true
	}
	ok := true
	seen := make(map[uint64]struct{}, len(sources))
	for _, v := range sources {
		if v >= order {
			res.Violations = append(res.Violations, Violation{
				Round: -1, Call: -1, Kind: VertexOutOfRange,
				Msg: fmt.Sprintf("source %d outside [0,%d)", v, order)})
			ok = false
			continue
		}
		if _, dup := seen[v]; dup {
			res.Violations = append(res.Violations, Violation{
				Round: -1, Call: -1, Kind: CallerDuplicate,
				Msg: fmt.Sprintf("source %d listed more than once", v)})
			ok = false
		}
		seen[v] = struct{}{}
	}
	return len(sources), ok
}

// gossipShardMaxWords caps a token shard at one 64-byte cache line per
// matrix row. Wider shards push the matrix out of cache, and one-word
// shards replay the whole exchange log eight times as often; both
// measure slower in BenchmarkGossipStreamPipelineN20.
const gossipShardMaxWords = 8

// gossipShardWords returns the width, in 64-bit words, of one token
// shard: what the budget allows each of workers matrices of order rows,
// capped at gossipShardMaxWords, and at most totalWords/workers (rounded
// down, so totalWords splits into at least one shard per worker), but
// never below one word.
func gossipShardWords(order, totalWords, workers, budgetBytes int) int {
	budgetWords := budgetBytes / (workers * order * 8)
	return max(1, min(budgetWords, gossipShardMaxWords, totalWords/workers))
}

// rowState is a shard row's knowledge in one byte: the row holds none
// of the shard's tokens, some of them, or all of them. Only partial
// rows have words in the shard matrix.
type rowState uint8

const (
	rowZero rowState = iota
	rowPartial
	rowFull
)

// simulateTokens is the validator's call into the token simulation, a
// variable so tests can tell which half decided a result.
var simulateTokens = simulateGossipTokens

// simulateGossipTokens replays the exchange log over the token matrix,
// sharded along the token axis, and returns the per-vertex known-token
// counts. sources nil means token t starts at vertex t (all-source
// gossip); otherwise token t starts at sources[t]. An exchange gives both
// endpoints the union of their rows — union-only updates make shards
// independent, so each worker fills its own shard matrix and the only
// synchronisation is the serial fold of popcounts into counts.
//
// Each worker's shard matrix keeps words only for partial rows (see
// rowState): a row's words are written when it turns partial, seeded or
// copied from its partner, so the matrix is allocated once per worker
// and never cleared. Exchanges where both rows are empty, or either is
// full, change states only; partial with partial ORs the rows and marks
// both full once the union holds every shard token. The fold adds the
// shard width for full rows and popcounts only partial ones.
func simulateGossipTokens(order uint64, sources []uint64, pairs []uint32) []int32 {
	n := int(order)
	m := len(sources)
	if sources == nil {
		m = n
	}
	counts := make([]int32, n)
	totalWords := (m + 63) / 64
	if totalWords == 0 {
		return counts
	}

	workers := runtime.GOMAXPROCS(0)
	// Every shard matrix has order rows: cap workers so even one-word
	// shards fit the budget.
	if maxW := gossipSimBudgetBytes / (n * 8); workers > maxW {
		workers = max(maxW, 1)
	}
	shardWords := gossipShardWords(n, totalWords, workers, gossipSimBudgetBytes)
	numShards := (totalWords + shardWords - 1) / shardWords
	if workers > numShards {
		workers = numShards
	}

	var (
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			know := make([]uint64, n*shardWords)
			state := make([]rowState, n)
			full := make([]uint64, shardWords)
			for {
				si := int(next.Add(1)) - 1
				if si >= numShards {
					return
				}
				lo := si * shardWords
				hi := min(lo+shardWords, totalWords)
				tlo, thi := lo*64, min(hi*64, m)
				simulateShard(know, state, full[:hi-lo], tlo, thi, sources, pairs)

				// Merge: fold the shard's counts serially.
				w := hi - lo
				mu.Lock()
				for v, s := range state {
					switch s {
					case rowFull:
						counts[v] += int32(thi - tlo)
					case rowPartial:
						c := 0
						for _, wd := range know[v*w : (v+1)*w] {
							c += bits.OnesCount64(wd)
						}
						counts[v] += int32(c)
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return counts
}

// simulateShard replays pairs over the shard of tokens [tlo, thi), whose
// width is len(full) words, leaving each vertex's rowState in state and
// each partial row's words in know (row v at know[v*w:]). full is
// filled with the row that holds every shard token.
func simulateShard(know []uint64, state []rowState, full []uint64, tlo, thi int, sources []uint64, pairs []uint32) {
	w := len(full)
	for j := range full {
		full[j] = ^uint64(0)
	}
	if r := (thi - tlo) & 63; r != 0 {
		full[w-1] = 1<<uint(r) - 1
	}
	row := func(v int) []uint64 { return know[v*w:][:w] }

	// Seed: each shard token's vertex gets a row holding that one bit
	// (sources are distinct, so no vertex is seeded twice). The row is
	// partial unless the shard has just the one token.
	seeded := rowPartial
	if thi-tlo == 1 {
		seeded = rowFull
	}
	clear(state)
	for t := tlo; t < thi; t++ {
		v := t
		if sources != nil {
			v = int(sources[t])
		}
		r := row(v)
		clear(r)
		r[(t-tlo)>>6] = 1 << uint(t&63)
		state[v] = seeded
	}

	// Replay: both endpoints of an exchange end with the union.
	for p := 0; p < len(pairs); p += 2 {
		a, b := int(pairs[p]), int(pairs[p+1])
		sa, sb := state[a], state[b]
		switch {
		case sa == sb && sa != rowPartial:
			// zero with zero, full with full: nothing changes.
		case sa == rowFull || sb == rowFull:
			state[a], state[b] = rowFull, rowFull
		case sa == rowZero:
			copy(row(a), row(b))
			state[a] = rowPartial
		case sb == rowZero:
			copy(row(b), row(a))
			state[b] = rowPartial
		default:
			ra, rb := row(a), row(b)
			var diff uint64
			for j := range ra {
				u := ra[j] | rb[j]
				ra[j] = u
				rb[j] = u
				diff |= u ^ full[j]
			}
			if diff == 0 {
				state[a], state[b] = rowFull, rowFull
			}
		}
	}
}
