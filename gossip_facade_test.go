package sparsehypercube

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"sparsehypercube/internal/linecomm"
)

// serialGossip is the gossip oracle: the serial token-matrix validator
// over the materialised schedule.
func serialGossip(cube *Cube, s *Schedule) *linecomm.GossipResult {
	return linecomm.ValidateGossip(cube.inner, cube.K(), toInner(s))
}

// mustMatchSerialGossip asserts a gossip plan's Report carries exactly
// the serial oracle's verdict.
func mustMatchSerialGossip(t *testing.T, res *linecomm.GossipResult, rep Report) {
	t.Helper()
	want := Report{
		Valid:         res.Valid(),
		Complete:      res.Complete,
		MinimumTime:   res.MinimumTime,
		Rounds:        res.Rounds,
		MaxCallLength: res.MaxCallLength,
	}
	for _, v := range res.Violations {
		want.Violations = append(want.Violations, v.String())
	}
	if !reflect.DeepEqual(want, rep) {
		t.Fatalf("gossip plan diverged from serial oracle:\n%+v\n%+v", want, rep)
	}
}

func TestGossipFacade(t *testing.T) {
	cube, err := New(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(GossipScheme{Root: 0})
	rep := plan.Verify()
	if !rep.Valid || !rep.Complete {
		t.Fatalf("gossip failed: %+v", rep)
	}
	if rep.Rounds != 2*cube.N() {
		t.Fatalf("gossip rounds = %d, want %d", rep.Rounds, 2*cube.N())
	}
	res := serialGossip(cube, plan.Materialize())
	if res.MinKnown != int(cube.Order()) {
		t.Fatalf("min known = %d", res.MinKnown)
	}
	mustMatchSerialGossip(t, res, rep)
	if GossipMinimumRounds(cube.Order()) != cube.N() {
		t.Fatal("gossip lower bound wrong")
	}
}

func TestGossipFacadeCatchesTampering(t *testing.T) {
	cube, err := New(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	scheme := GossipScheme{Root: 3}
	sched := cube.Plan(scheme).Materialize()
	sched.Rounds = sched.Rounds[:len(sched.Rounds)-2]
	rep := scheme.VerifyPlan(cube, sched.Stream())
	if rep.Complete {
		t.Fatal("truncated gossip should be incomplete")
	}
	mustMatchSerialGossip(t, serialGossip(cube, sched), rep)
}

// TestGossipPlanCertifiedBeyondSimulationCap: at n = 21 all-source
// gossip is past the 2^40-cell simulation cap, yet the hub certificate
// decides the intact gather-scatter plan: Valid and Complete. Without
// its last scatter round the certificate cannot accept, and the report
// falls back to simulation-cap-exceeded.
func TestGossipPlanCertifiedBeyondSimulationCap(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 21 gossip plan: 4M calls, twice")
	}
	cube, err := New(2, 21)
	if err != nil {
		t.Fatal(err)
	}
	scheme := GossipScheme{Root: 5}
	rep := cube.Plan(scheme).Verify()
	if !rep.Valid || !rep.Complete || rep.Rounds != 2*cube.N() {
		t.Fatalf("n=21 gossip plan misjudged: %+v", rep)
	}

	lastDropped := func(yield func([]Call) bool) {
		r := 0
		for round := range scheme.Rounds(cube) {
			if r++; r == 2*cube.N() || !yield(round) {
				return
			}
		}
	}
	rep = scheme.VerifyPlan(cube, lastDropped)
	if rep.Valid || rep.Complete || rep.Rounds != 2*cube.N()-1 || len(rep.Violations) != 1 ||
		!strings.Contains(rep.Violations[0], "simulation-cap-exceeded") {
		t.Fatalf("n=21 gossip plan without its last round: %+v", rep)
	}
}

// TestMultiSourceSchemeFacade: the generalised scheme shares the gossip
// round stream, verifies only its listed tokens, and serialises as a
// gossip plan (no format change — replay re-binds to the all-source
// model).
func TestMultiSourceSchemeFacade(t *testing.T) {
	cube, err := New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	scheme := MultiSourceScheme{Root: 7, Sources: []uint64{1, 64, 1023}}
	plan := cube.Plan(scheme)
	rep := plan.Verify()
	if !rep.Valid || !rep.Complete || rep.Rounds != 2*cube.N() {
		t.Fatalf("multi-source plan failed: %+v", rep)
	}
	if rep.MinimumTime {
		t.Fatal("2n-round gather-scatter cannot be minimum time")
	}

	// The round stream is the gossip schedule, source set or not.
	if !reflect.DeepEqual(cube.Plan(GossipScheme{Root: 7}).Materialize(), plan.Materialize()) {
		t.Fatal("multi-source rounds diverge from the gossip scheme")
	}

	// Serialise and replay: the file is a plain gossip plan and verifies
	// under the all-source model on the reconstructed cube.
	var buf bytes.Buffer
	if _, err := plan.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	replay, err := ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := replay.Scheme().(GossipScheme); !ok {
		t.Fatalf("replayed scheme %T, want GossipScheme", replay.Scheme())
	}
	if rrep := replay.Verify(); !rrep.Valid || !rrep.Complete {
		t.Fatalf("replayed multi-source plan failed all-source verification: %+v", rrep)
	}

	// Bad source sets surface as violations, never panics.
	rep = cube.Plan(MultiSourceScheme{Root: 0, Sources: []uint64{5, 5}}).Verify()
	if rep.Valid || len(rep.Violations) == 0 {
		t.Fatalf("duplicate source accepted: %+v", rep)
	}
	rep = cube.Plan(MultiSourceScheme{Root: 0, Sources: []uint64{cube.Order()}}).Verify()
	if rep.Valid || !strings.Contains(rep.Violations[0], "vertex-out-of-range") {
		t.Fatalf("out-of-range source accepted: %+v", rep)
	}

	// An out-of-range root reports without consuming anything.
	rep = cube.Plan(MultiSourceScheme{Root: cube.Order(), Sources: []uint64{1}}).Verify()
	if rep.Valid || !strings.Contains(rep.Violations[0], "vertex-out-of-range") {
		t.Fatalf("bad multi-source root report: %+v", rep)
	}
}
