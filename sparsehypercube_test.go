package sparsehypercube

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestQuickstartFlow(t *testing.T) {
	cube, err := New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cube.K() != 2 || cube.N() != 10 || cube.Order() != 1024 {
		t.Fatalf("cube parameters wrong: k=%d n=%d order=%d", cube.K(), cube.N(), cube.Order())
	}
	rep := cube.Plan(BroadcastScheme{Source: 0}).Verify()
	if !rep.Valid || !rep.Complete || !rep.MinimumTime {
		t.Fatalf("verification failed: %+v", rep)
	}
	if rep.Rounds != 10 || rep.MaxCallLength > 2 {
		t.Fatalf("schedule shape wrong: %+v", rep)
	}
}

func TestNewWithDims(t *testing.T) {
	cube, err := NewWithDims(3, []int{2, 4, 7})
	if err != nil {
		t.Fatal(err)
	}
	dims := cube.Dims()
	if len(dims) != 3 || dims[0] != 2 || dims[2] != 7 {
		t.Fatalf("Dims = %v", dims)
	}
	// Mutating the returned slice must not affect the cube.
	dims[0] = 99
	if cube.Dims()[0] != 2 {
		t.Fatal("Dims leaked internal state")
	}
	if _, err := NewWithDims(2, []int{5, 3}); err == nil {
		t.Fatal("expected parameter validation error")
	}
}

func TestDegreesAndEdges(t *testing.T) {
	cube, err := NewWithDims(2, []int{3, 15})
	if err != nil {
		t.Fatal(err)
	}
	if cube.MaxDegree() != 6 || cube.MinDegree() != 6 {
		t.Fatalf("G_{15,3} should be 6-regular: max %d min %d", cube.MaxDegree(), cube.MinDegree())
	}
	if cube.NumEdges() != 6*(1<<15)/2 {
		t.Fatalf("|E| = %d", cube.NumEdges())
	}
	if cube.Degree(0) != 6 {
		t.Fatalf("Degree(0) = %d", cube.Degree(0))
	}
}

func TestNeighborsAndHasEdgeAgree(t *testing.T) {
	cube, err := New(3, 9)
	if err != nil {
		t.Fatal(err)
	}
	f := func(uRaw uint16) bool {
		u := uint64(uRaw) & (cube.Order() - 1)
		nbrs := cube.Neighbors(u)
		if len(nbrs) != cube.Degree(u) {
			return false
		}
		for _, v := range nbrs {
			if !cube.HasEdge(u, v) || !cube.HasEdge(v, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVerifyCatchesTampering(t *testing.T) {
	cube, err := New(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(BroadcastScheme{Source: 5})
	sched := plan.Materialize()
	// Drop a round: incomplete.
	tampered := &Schedule{Source: sched.Source, Rounds: sched.Rounds[:len(sched.Rounds)-1]}
	rep := verifySchedule(cube, tampered)
	if rep.Complete || rep.MinimumTime {
		t.Fatal("truncated schedule should not verify as complete")
	}
	if want := serialReport(cube, tampered); !reflect.DeepEqual(want, rep) {
		t.Fatalf("truncated schedule diverged from serial oracle:\n%+v\n%+v", want, rep)
	}
	// Corrupt a path: violations reported.
	bad := plan.Materialize()
	bad.Rounds[0][0].Path = []uint64{5}
	rep = verifySchedule(cube, bad)
	if rep.Valid || len(rep.Violations) == 0 {
		t.Fatal("corrupted schedule should report violations")
	}
	if !strings.Contains(rep.Violations[0], "path-invalid") {
		t.Fatalf("unexpected violation: %v", rep.Violations)
	}
	if want := serialReport(cube, bad); !reflect.DeepEqual(want, rep) {
		t.Fatalf("corrupted schedule diverged from serial oracle:\n%+v\n%+v", want, rep)
	}
}

func TestCallAccessors(t *testing.T) {
	c := Call{Path: []uint64{1, 3, 7}}
	if c.From() != 1 || c.To() != 7 {
		t.Fatal("Call accessors wrong")
	}
}

func TestFormatSchedule(t *testing.T) {
	cube, err := New(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	out := cube.FormatSchedule(cube.Plan(BroadcastScheme{Source: 0}).Materialize())
	if !strings.Contains(out, "broadcast from 000 in 3 rounds") {
		t.Errorf("FormatSchedule output:\n%s", out)
	}
}

func TestBoundsAPI(t *testing.T) {
	if MinimumRounds(1<<15) != 15 || MinimumRounds(22) != 5 {
		t.Error("MinimumRounds wrong")
	}
	if LowerBoundDegree(2, 16) != 4 {
		t.Error("LowerBoundDegree wrong")
	}
	ub, err := UpperBoundDegree(2, 15)
	if err != nil || ub != 8 {
		t.Errorf("UpperBoundDegree(2,15) = %d, %v", ub, err)
	}
	ub, err = UpperBoundDegree(1, 9)
	if err != nil || ub != 9 {
		t.Errorf("UpperBoundDegree(1,9) = %d, %v", ub, err)
	}
	if _, err := UpperBoundDegree(5, 4); err == nil {
		t.Error("expected domain error for k >= n")
	}
	if _, err := UpperBoundDegree(0, 4); err == nil {
		t.Error("expected domain error for k = 0")
	}
	ub, err = UpperBoundDegree(3, 27)
	if err != nil || ub != (2*3-1)*3-3 {
		t.Errorf("UpperBoundDegree(3,27) = %d, %v", ub, err)
	}
}

// The headline guarantee, end to end through the public API: for a range
// of (k, n) the built cube respects both degree bounds and broadcasts in
// minimum time.
func TestHeadlineGuarantee(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4} {
		for _, n := range []int{8, 12} {
			if n <= k {
				continue
			}
			cube, err := New(k, n)
			if err != nil {
				t.Fatal(err)
			}
			ub, err := UpperBoundDegree(k, n)
			if err != nil {
				t.Fatal(err)
			}
			if cube.MaxDegree() > ub {
				t.Errorf("k=%d n=%d: Delta %d > bound %d", k, n, cube.MaxDegree(), ub)
			}
			if cube.MaxDegree() < LowerBoundDegree(k, n) {
				t.Errorf("k=%d n=%d: Delta below lower bound", k, n)
			}
			rep := cube.Plan(BroadcastScheme{Source: uint64(n)}).Verify()
			if !rep.MinimumTime || rep.MaxCallLength > k {
				t.Errorf("k=%d n=%d: broadcast report %+v", k, n, rep)
			}
		}
	}
}
