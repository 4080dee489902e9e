package sparsehypercube

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sparsehypercube/internal/linecomm"
)

// serialReport is the oracle the Plan engine is pinned to: the serial
// materialised validator, which shares no code path with the streamed
// one, over the same schedule.
func serialReport(cube *Cube, s *Schedule) Report {
	res := linecomm.Validate(cube.inner, cube.K(), toInner(s))
	return reportFrom(res, len(res.InformedPerRound))
}

// verifySchedule runs a materialised schedule through the Plan engine
// under the broadcast model.
func verifySchedule(cube *Cube, s *Schedule) Report {
	return cube.Plan(RoundScheme("broadcast", s.Source, s.Stream())).Verify()
}

// fromInner converts an internal schedule to the public form, paths
// aliased.
func fromInner(s *linecomm.Schedule) *Schedule {
	out := &Schedule{Source: s.Source, Rounds: make([][]Call, len(s.Rounds))}
	for i, round := range s.Rounds {
		out.Rounds[i] = make([]Call, len(round))
		for j, c := range round {
			out.Rounds[i][j] = Call{Path: c.Path}
		}
	}
	return out
}

// TestPlanReplayMatchesDirect is the acceptance gate for the round
// codec: ReadPlan(WriteTo(plan)) replayed into a RoundScheme plan and
// through the replay's own Verify produces a Report identical to the
// direct plan's, which matches the serial oracle, for k in {1, 2, 3};
// and the replay re-encodes byte-for-byte.
func TestPlanReplayMatchesDirect(t *testing.T) {
	for _, kn := range [][2]int{{1, 6}, {2, 10}, {3, 12}} {
		k, n := kn[0], kn[1]
		cube, err := New(k, n)
		if err != nil {
			t.Fatal(err)
		}
		src := cube.Order() / 3
		plan := cube.Plan(BroadcastScheme{Source: src})
		direct := plan.Verify()
		if !direct.Valid || !direct.MinimumTime {
			t.Fatalf("k=%d n=%d: direct verification failed: %+v", k, n, direct)
		}
		if want := serialReport(cube, plan.Materialize()); !reflect.DeepEqual(want, direct) {
			t.Fatalf("k=%d n=%d: plan diverged from serial oracle:\n%+v\n%+v", k, n, want, direct)
		}

		var buf bytes.Buffer
		wn, err := plan.WriteTo(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if wn != int64(buf.Len()) {
			t.Fatalf("WriteTo reported %d bytes, wrote %d", wn, buf.Len())
		}

		// Replay the decoded rounds through a RoundScheme plan.
		replay, err := ReadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		viaRounds := cube.Plan(RoundScheme("rounds", src, replay.Rounds())).Verify()
		if err := replay.Err(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, viaRounds) {
			t.Fatalf("k=%d n=%d: replayed RoundScheme diverged:\n%+v\n%+v", k, n, direct, viaRounds)
		}

		// Replay through the plan's own Verify.
		replay2, err := ReadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if got := replay2.Scheme(); got.Name() != "broadcast" || got.Origin() != src {
			t.Fatalf("k=%d n=%d: replayed scheme %q origin %d", k, n, got.Name(), got.Origin())
		}
		if got := replay2.Cube(); got.K() != cube.K() || got.N() != n ||
			!reflect.DeepEqual(got.Dims(), cube.Dims()) {
			t.Fatalf("k=%d n=%d: replayed cube params diverged: %v", k, n, got.Dims())
		}
		viaVerify := replay2.Verify()
		if !reflect.DeepEqual(direct, viaVerify) {
			t.Fatalf("k=%d n=%d: replayed Verify diverged:\n%+v\n%+v", k, n, direct, viaVerify)
		}

		// Replay re-encodes byte-for-byte.
		replay3, err := ReadPlan(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var re bytes.Buffer
		if _, err := replay3.WriteTo(&re); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), re.Bytes()) {
			t.Fatalf("k=%d n=%d: replay re-encode not byte-identical (%d vs %d bytes)",
				k, n, buf.Len(), re.Len())
		}
	}
}

// TestPlanReplayStreamedN22 certifies the write-once/verify-many flow in
// the regime the codec exists for: a 4.2M-vertex schedule streamed to
// disk and replayed into the validator without ever being materialised.
func TestPlanReplayStreamedN22(t *testing.T) {
	if testing.Short() {
		t.Skip("n=22 pipeline in -short mode")
	}
	cube, err := New(3, 22)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(BroadcastScheme{Source: 0})

	path := filepath.Join(t.TempDir(), "n22.shcp")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	direct := plan.Verify()
	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	replay, err := ReadPlan(rf)
	if err != nil {
		t.Fatal(err)
	}
	rep := replay.Verify()
	if !rep.Valid || !rep.MinimumTime || rep.Rounds != 22 {
		t.Fatalf("n=22 replay failed: %+v", rep)
	}
	if !reflect.DeepEqual(direct, rep) {
		t.Fatalf("n=22 replay diverged from direct verification:\n%+v\n%+v", direct, rep)
	}
}

// TestGossipPlanRoundTrip: gossip plans serialise, re-bind to the gossip
// validator on replay, and agree with the generative plan.
func TestGossipPlanRoundTrip(t *testing.T) {
	cube, err := New(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(GossipScheme{Root: 5})
	direct := plan.Verify()
	if !direct.Valid || !direct.Complete || direct.Rounds != 2*cube.N() {
		t.Fatalf("gossip plan verification failed: %+v", direct)
	}
	if direct.MinimumTime {
		t.Fatal("2n-round gather-scatter cannot be minimum time")
	}

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
	rep := replay.Verify()
	if !reflect.DeepEqual(direct, rep) {
		t.Fatalf("gossip replay diverged:\n%+v\n%+v", direct, rep)
	}

	// The streamed rounds equal the materialised gather-scatter lift of
	// the serial broadcast schedule.
	want := fromInner(linecomm.FromBroadcast(cube.inner.BroadcastSchedule(5)))
	if !reflect.DeepEqual(want, plan.Materialize()) {
		t.Fatal("gossip plan diverged from FromBroadcast")
	}
}

// TestGossipPlanMidScale: the streamed gossip validator reaches past the
// serial simulation cap (2^14): an n = 15 gossip plan now verifies fully
// — structurally and with exact sharded token simulation — without the
// doubled schedule ever being materialised.
func TestGossipPlanMidScale(t *testing.T) {
	cube, err := New(2, 15)
	if err != nil {
		t.Fatal(err)
	}
	rep := cube.Plan(GossipScheme{Root: 3}).Verify()
	if !rep.Valid || !rep.Complete || rep.Rounds != 2*cube.N() {
		t.Fatalf("n=15 gossip plan failed verification: %+v", rep)
	}
	if rep.MinimumTime {
		t.Fatal("2n-round gather-scatter cannot be minimum time")
	}
}

// TestGossipPlanBeyondSimulationCap: past the streamed caps (all-source
// gossip above 2^40 vertex-token cells) the validator still runs every
// structural check — the stream is consumed — but must report the
// simulation-cap violation for the knowledge half instead of guessing.
func TestGossipPlanBeyondSimulationCap(t *testing.T) {
	cube, err := New(2, 21) // 2^42 cells all-source, over the 2^40 cap
	if err != nil {
		t.Fatal(err)
	}
	consumed := false
	scheme := RoundScheme("gossip-probe", 0, func(yield func([]Call) bool) { consumed = true })
	rep := GossipScheme{Root: 0}.VerifyPlan(cube, cube.Plan(scheme).Rounds())
	if rep.Valid || len(rep.Violations) == 0 {
		t.Fatalf("over-cap gossip verified: %+v", rep)
	}
	if !strings.Contains(rep.Violations[0], "simulation-cap-exceeded") {
		t.Fatalf("want simulation-cap violation, got %q", rep.Violations[0])
	}
	if !consumed {
		t.Fatal("over-cap gossip skipped the structural checks (stream not consumed)")
	}
	if rep.Complete || rep.MinimumTime {
		t.Fatalf("over-cap gossip claimed completion: %+v", rep)
	}

	// A sampled source set brings the same cube back under the cell cap:
	// multi-source dissemination verifies exactly where all-source gossip
	// cannot. An empty round stream leaves the sources' tokens stranded.
	rep = MultiSourceScheme{Root: 0, Sources: []uint64{0, 1, 2}}.VerifyPlan(
		cube, cube.Plan(RoundScheme("probe", 0, func(yield func([]Call) bool) {})).Rounds())
	if !rep.Valid {
		t.Fatalf("in-cap multi-source probe reported violations: %+v", rep)
	}
	if rep.Complete {
		t.Fatal("empty multi-source plan cannot be complete")
	}
}

// TestPlanBeyondStreamCaps: an n = 27 cube has 27 * 2^27 edge slots,
// past the streamed validator's 2^31-bit sets, so broadcast and gossip
// verification refuse it — an invalid Report whose one violation is
// simulation-cap-exceeded — before consuming a round, and generative
// plans never start generating.
func TestPlanBeyondStreamCaps(t *testing.T) {
	cube, err := New(2, 27)
	if err != nil {
		t.Fatal(err)
	}
	consumed := false
	probe := RoundScheme("probe", 0, func(yield func([]Call) bool) { consumed = true })
	refused := func(what string, rep Report) {
		t.Helper()
		if rep.Valid || rep.Complete || rep.MinimumTime || len(rep.Violations) != 1 ||
			!strings.Contains(rep.Violations[0], "simulation-cap-exceeded") {
			t.Fatalf("%s: want a simulation-cap-exceeded refusal, got %+v", what, rep)
		}
		if consumed {
			t.Fatalf("%s consumed a round", what)
		}
	}
	refused("broadcast probe", cube.Plan(probe).Verify())
	refused("gossip probe", GossipScheme{Root: 0}.VerifyPlan(cube, cube.Plan(probe).Rounds()))
	refused("generative broadcast", cube.Plan(BroadcastScheme{Source: 0}).Verify())
	refused("generative gossip", cube.Plan(GossipScheme{Root: 0}).Verify())
}

// TestPlanMatchesSerialOracle pins every way of consuming a broadcast
// plan to references outside the Plan engine: the snapshot to core's
// materialised schedule, the reports to the serial validator.
func TestPlanMatchesSerialOracle(t *testing.T) {
	cube, err := New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(BroadcastScheme{Source: 9})
	sched := fromInner(cube.inner.BroadcastSchedule(9))
	if !reflect.DeepEqual(sched, plan.Materialize()) {
		t.Fatal("plan.Materialize diverged from core's BroadcastSchedule")
	}
	want := serialReport(cube, sched)
	if !want.Valid || !want.MinimumTime {
		t.Fatalf("serial oracle rejected the broadcast: %+v", want)
	}
	if got := plan.Verify(); !reflect.DeepEqual(want, got) {
		t.Fatalf("plan.Verify diverged from serial oracle:\n%+v\n%+v", want, got)
	}
	if got := verifySchedule(cube, sched); !reflect.DeepEqual(want, got) {
		t.Fatalf("RoundScheme plan diverged from serial oracle:\n%+v\n%+v", want, got)
	}
	got := &Schedule{Source: 9}
	for round := range plan.Rounds() {
		got.Rounds = append(got.Rounds, linecomm.CloneRound(round))
	}
	if !reflect.DeepEqual(sched, got) {
		t.Fatal("plan.Rounds diverged from core's BroadcastSchedule")
	}
}

// TestVerifySourceOutOfRange: a RoundScheme plan with a bad source
// reports it without consuming the stream (0 rounds), exactly as the
// serial oracle does for the materialised schedule.
func TestVerifySourceOutOfRange(t *testing.T) {
	cube, err := New(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	sched := cube.Plan(BroadcastScheme{Source: 0}).Materialize()
	sched.Source = cube.Order() + 7
	want := serialReport(cube, sched)
	if want.Valid || want.Rounds != 0 {
		t.Fatalf("serial oracle with bad source: %+v", want)
	}
	if got := verifySchedule(cube, sched); !reflect.DeepEqual(want, got) {
		t.Fatalf("bad-source plan diverged from serial oracle:\n%+v\n%+v", want, got)
	}
	consumed := false
	rep := cube.Plan(RoundScheme("rounds", cube.Order(), func(yield func([]Call) bool) { consumed = true })).Verify()
	if rep.Valid || rep.Rounds != 0 || consumed {
		t.Fatalf("RoundScheme plan with bad source: %+v (consumed=%v)", rep, consumed)
	}
}

// TestSchemeOriginOutOfRange: a bad Source/Root on a generative scheme
// surfaces as a violation report, never a panic, on every plan method.
func TestSchemeOriginOutOfRange(t *testing.T) {
	cube, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	bad := cube.Order() + 5
	bplan := cube.Plan(BroadcastScheme{Source: bad})
	rep := bplan.Verify()
	if rep.Valid || len(rep.Violations) == 0 || !strings.Contains(rep.Violations[0], "vertex-out-of-range") {
		t.Fatalf("broadcast bad-source report: %+v", rep)
	}
	for range bplan.Rounds() {
		t.Fatal("bad-source plan yielded a round")
	}
	if sched := bplan.Materialize(); len(sched.Rounds) != 0 {
		t.Fatal("bad-source plan materialised rounds")
	}

	grep := cube.Plan(GossipScheme{Root: bad}).Verify()
	if grep.Valid || len(grep.Violations) == 0 || !strings.Contains(grep.Violations[0], "vertex-out-of-range") {
		t.Fatalf("gossip bad-root report: %+v", grep)
	}
}

// TestWithCopiedRounds: rounds yielded under the option survive the
// iteration and reproduce the materialised schedule.
func TestWithCopiedRounds(t *testing.T) {
	cube, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(BroadcastScheme{Source: 1}, WithCopiedRounds())
	var retained [][]Call
	for round := range plan.Rounds() {
		retained = append(retained, round) // no copy: the option owns it
	}
	want := cube.Plan(BroadcastScheme{Source: 1}).Materialize()
	if !reflect.DeepEqual(want.Rounds, retained) {
		t.Fatal("retained copied rounds diverged from materialised schedule")
	}
}

// TestReadPlanRejectsBadInput: garbage and corrupted headers error out
// of ReadPlan; a truncated round stream surfaces as a Verify violation,
// never a panic or a false pass.
func TestReadPlanRejectsBadInput(t *testing.T) {
	if _, err := ReadPlan(bytes.NewReader([]byte("not a plan file"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadPlan(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}

	cube, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(BroadcastScheme{Source: 0}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	enc := buf.Bytes()
	truncated := enc[:len(enc)*2/3]
	replay, err := ReadPlan(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err) // header is intact; failure must surface at replay time
	}
	rep := replay.Verify()
	if rep.Valid {
		t.Fatalf("truncated plan verified: %+v", rep)
	}
	if replay.Err() == nil {
		t.Fatal("truncated plan left Err nil")
	}

	// A truncated Materialize is flagged through Err, not silence.
	replay2, err := ReadPlan(bytes.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	replay2.Materialize()
	if replay2.Err() == nil {
		t.Fatal("truncated Materialize left Err nil")
	}
}

// TestRoundSchemeExternal: an external materialised schedule flows
// through the Plan engine and agrees with the serial oracle.
func TestRoundSchemeExternal(t *testing.T) {
	cube, err := New(3, 10)
	if err != nil {
		t.Fatal(err)
	}
	sched := fromInner(cube.inner.BroadcastSchedule(4))
	scheme := RoundScheme("external", sched.Source, sched.Stream())
	rep := cube.Plan(scheme).Verify()
	want := serialReport(cube, sched)
	if !reflect.DeepEqual(want, rep) {
		t.Fatalf("RoundScheme verification diverged:\n%+v\n%+v", want, rep)
	}

	// A plan over an external stream serialises too.
	var buf bytes.Buffer
	if _, err := cube.Plan(RoundScheme("external", sched.Source, sched.Stream())).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	replay, err := ReadPlan(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Scheme().Name() != "external" {
		t.Fatalf("stored scheme name %q", replay.Scheme().Name())
	}
	got := replay.Verify()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("stored external plan diverged:\n%+v\n%+v", want, got)
	}
}
