package sparsehypercube

import (
	"reflect"
	"testing"
)

// TestBroadcastRoundsMatchBroadcast checks that a broadcast plan's
// streamed rounds reproduce core's materialised broadcast schedule
// exactly (rounds deep-copied out of the reused buffers before
// comparing).
func TestBroadcastRoundsMatchBroadcast(t *testing.T) {
	for _, kn := range [][2]int{{1, 6}, {2, 10}, {3, 12}} {
		cube, err := New(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []uint64{0, 1, cube.Order() - 1} {
			want := fromInner(cube.inner.BroadcastSchedule(src))
			got := &Schedule{Source: src}
			for round := range cube.Plan(BroadcastScheme{Source: src}).Rounds() {
				copied := make([]Call, len(round))
				for i, c := range round {
					copied[i] = Call{Path: append([]uint64(nil), c.Path...)}
				}
				got.Rounds = append(got.Rounds, copied)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("k=%d n=%d src=%d: streamed rounds diverge from Broadcast", kn[0], kn[1], src)
			}
		}
	}
}

// TestVerifyBroadcastMinimumTime runs the fully streamed pipeline at
// sizes where the materialised path is already uncomfortable.
func TestVerifyBroadcastMinimumTime(t *testing.T) {
	for _, kn := range [][2]int{{2, 14}, {3, 15}} {
		cube, err := New(kn[0], kn[1])
		if err != nil {
			t.Fatal(err)
		}
		rep := cube.Plan(BroadcastScheme{Source: 7}).Verify()
		if !rep.Valid || !rep.MinimumTime || rep.Rounds != kn[1] || rep.MaxCallLength > kn[0] {
			t.Fatalf("k=%d n=%d: streamed verification failed: %+v", kn[0], kn[1], rep)
		}
	}
}

// TestVerifyRoundsCatchesTampering streams a tampered schedule through a
// RoundScheme plan and expects the streaming validator to reject it
// exactly like the serial oracle does.
func TestVerifyRoundsCatchesTampering(t *testing.T) {
	cube, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	sched := cube.Plan(BroadcastScheme{Source: 0}).Materialize()
	sched.Rounds[2][0].Path[len(sched.Rounds[2][0].Path)-1] = sched.Rounds[2][1].To()
	repStream := verifySchedule(cube, sched)
	repSerial := serialReport(cube, sched)
	if repStream.Valid || repSerial.Valid {
		t.Fatal("tampered schedule accepted")
	}
	if !reflect.DeepEqual(repStream, repSerial) {
		t.Fatalf("stream/serial reports diverge:\n%+v\n%+v", repStream, repSerial)
	}
}

// TestCallEndpointsFacade pins the empty-path guards on the public Call.
func TestCallEndpointsFacade(t *testing.T) {
	var zero Call
	if zero.From() != 0 || zero.To() != 0 {
		t.Fatal("zero-value Call endpoint accessors must not panic and return 0")
	}
	if _, _, ok := zero.Endpoints(); ok {
		t.Fatal("Endpoints on zero-value Call reported ok")
	}
}
