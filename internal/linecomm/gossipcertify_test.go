package linecomm_test

import (
	"reflect"
	"testing"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// TestGossipCertificateDecidesGatherScatter: on the intact k = 2, n = 14
// gather-scatter the hub certificate, not the token simulation, decides
// completeness, so the fast path cannot go dead silently. Its Result
// equals both the simulation's (no hub) and the serial oracle's.
func TestGossipCertificateDecidesGatherScatter(t *testing.T) {
	cube, err := core.NewAuto(2, 14)
	if err != nil {
		t.Fatal(err)
	}
	const root = 5
	sims := linecomm.CountSimulations(t)
	got := linecomm.ValidateGossipStream(cube, cube.K(), root, cube.ScheduleGossipRounds(root))
	if *sims != 0 {
		t.Fatalf("token simulation ran %d times on the intact gather-scatter", *sims)
	}
	if !got.Valid() || !got.Complete || !got.Simulated || got.MinKnown != int(cube.Order()) {
		t.Fatalf("certified gather-scatter misjudged: %+v", got)
	}
	simulated := linecomm.ValidateGossipStream(cube, cube.K(), linecomm.NoHub, cube.ScheduleGossipRounds(root))
	if *sims != 1 || !reflect.DeepEqual(got, simulated) {
		t.Fatalf("certificate and simulation (%d runs) disagree:\ncertified: %+v\nsimulated: %+v", *sims, got, simulated)
	}
	sched := linecomm.FromBroadcast(cube.BroadcastSchedule(root))
	if want := linecomm.ValidateGossip(cube, cube.K(), sched); !reflect.DeepEqual(want, got) {
		t.Fatalf("certified gather-scatter diverges from serial:\nserial:    %+v\ncertified: %+v", want, got)
	}
}

// TestGossipCertificateFallsBackOnExchange: Q_14's dimension exchange
// completes but has no hub — no vertex knows everything before the last
// round — so the certificate rejects it and the simulation gives the
// serial oracle's Result.
func TestGossipCertificateFallsBackOnExchange(t *testing.T) {
	cube, err := core.NewHypercube(14)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := linecomm.HypercubeExchange(14)
	if err != nil {
		t.Fatal(err)
	}
	sims := linecomm.CountSimulations(t)
	got := linecomm.ValidateGossipStream(cube, 1, sched.Source, sched.Stream())
	if *sims != 1 {
		t.Fatalf("token simulation ran %d times, want 1", *sims)
	}
	want := linecomm.ValidateGossip(cube, 1, sched)
	if !want.Complete || !want.MinimumTime || !reflect.DeepEqual(want, got) {
		t.Fatalf("dimension exchange diverges from serial:\nserial: %+v\nstream: %+v", want, got)
	}
}
