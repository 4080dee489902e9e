package sparsehypercube

import (
	"fmt"
	"iter"

	"sparsehypercube/internal/linecomm"
)

// MultiSourceScheme is gather-scatter dissemination rooted at Root: the
// broadcast tree of Root run in reverse to funnel every token to the
// root in n rounds, then the paper's Broadcast_k to disseminate the
// gathered set in n more. 2n rounds total, calls of length at most k.
// When Sources is empty every vertex holds a token and the scheme is
// all-to-all gossip (GossipScheme) — a factor 2 from the gossip lower
// bound ceil(log2 N); closing that factor at low degree is the open
// problem the paper's §5 poses. A non-empty Sources restricts the token
// holders: the call rounds are identical (the gather phase funnels
// whatever is out there), but verification tracks only the listed
// tokens, so the knowledge simulation stays exact far beyond the
// all-source regime.
//
// Its Plan streams: rounds are rebuilt from the precomputed broadcast
// frontier (the doubled schedule is never materialised) and Verify runs
// the telephone-model gossip validator. Knowledge is decided by a hub
// certificate through Root, linear in the exchange log, which accepts
// the intact gather-scatter: all-source gossip is decided exactly
// through n = 22 (2^23 exchanges). Logs it rejects fall back to a
// token-sharded simulation, exact up to order x tokens = 2^40 cells
// (full gossip at n = 20; far larger cubes with sampled sources). When
// neither can decide, Verify still performs every structural check and
// reports a simulation-cap-exceeded violation for the knowledge half.
// On a cube past the validator's edge-slot caps (n >= 27) that
// violation is all it reports, and the rounds are never consumed.
type MultiSourceScheme struct {
	Root uint64
	// Sources lists the token-holding vertices; nil or empty means every
	// vertex (all-to-all gossip). Sources must be distinct and in range.
	Sources []uint64
}

// Name implements Scheme. Multi-source plans serialise as gossip plans —
// the round stream is the same gather-scatter schedule, and schedio
// plan files already serialise arbitrary rounds, so gossip plans are
// served with no format change. The source set is a verification-side
// concept and is not stored: a replayed plan verifies under the
// all-source model with the header's source as Root, which decides it
// through n = 22 when the plan is an intact gather-scatter from that
// root, and otherwise, above the all-source simulation caps, reports
// the knowledge half as simulation-cap-exceeded. To re-verify a replayed
// plan under the original source set, re-bind it explicitly:
//
//	replay, _ := sparsehypercube.ReadPlan(f)
//	rep := MultiSourceScheme{Root: root, Sources: srcs}.
//		VerifyPlan(replay.Cube(), replay.Rounds())
func (s MultiSourceScheme) Name() string { return "gossip" }

// Origin implements Scheme.
func (s MultiSourceScheme) Origin() uint64 { return s.Root }

// Rounds implements Scheme: the gather and scatter phases are emitted
// round at a time off the frontier array at O(N) words peak. An
// out-of-range Root yields no rounds (and Plan.Verify reports it as a
// violation) rather than panicking.
func (s MultiSourceScheme) Rounds(cube *Cube) iter.Seq[[]Call] {
	if s.Root >= cube.Order() {
		return func(yield func([]Call) bool) {}
	}
	return cube.inner.ScheduleGossipRounds(s.Root)
}

// VerifyPlan implements PlanVerifier: correctness is checked by the
// streamed telephone-model validator (per-round edge-disjointness, one
// call per vertex per round, length bounds) with the hub certificate
// through Root and the sharded token simulation behind it, not the
// broadcast validator. MinimumTime reports
// completion in ceil(log2 N) rounds — false for the 2n-round
// gather-scatter scheme, honestly.
func (s MultiSourceScheme) VerifyPlan(cube *Cube, rounds iter.Seq[[]Call]) Report {
	if s.Root >= cube.Order() {
		// The gossip validator ignores the originator (gossip has none),
		// so a bad root must be rejected here — without consuming the
		// stream — or an empty plan would pass the model checks with
		// Complete == false only.
		v := linecomm.Violation{Round: -1, Call: -1, Kind: linecomm.VertexOutOfRange,
			Msg: fmt.Sprintf("root %d outside [0,%d)", s.Root, cube.Order())}
		return Report{Violations: []string{v.String()}}
	}
	res := linecomm.ValidateMultiSourceStream(cube.inner, cube.K(), s.Root, s.Sources, rounds)
	rep := Report{
		Valid:         res.Valid(),
		Complete:      res.Complete,
		MinimumTime:   res.MinimumTime,
		Rounds:        res.Rounds,
		MaxCallLength: res.MaxCallLength,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	return rep
}

// GossipScheme is the all-to-all special case of MultiSourceScheme:
// every vertex holds a token. See MultiSourceScheme for the scheme and
// its verification model.
type GossipScheme struct {
	Root uint64
}

// multi returns the scheme's MultiSourceScheme form (all sources).
func (s GossipScheme) multi() MultiSourceScheme { return MultiSourceScheme{Root: s.Root} }

// Name implements Scheme.
func (s GossipScheme) Name() string { return "gossip" }

// Origin implements Scheme.
func (s GossipScheme) Origin() uint64 { return s.Root }

// Rounds implements Scheme; see MultiSourceScheme.Rounds.
func (s GossipScheme) Rounds(cube *Cube) iter.Seq[[]Call] { return s.multi().Rounds(cube) }

// VerifyPlan implements PlanVerifier; see MultiSourceScheme.VerifyPlan.
func (s GossipScheme) VerifyPlan(cube *Cube, rounds iter.Seq[[]Call]) Report {
	return s.multi().VerifyPlan(cube, rounds)
}

// GossipMinimumRounds returns the gossip round lower bound ceil(log2 N).
func GossipMinimumRounds(order uint64) int { return linecomm.GossipMinimumRounds(order) }
