package main

import (
	"reflect"
	"testing"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/topo"
)

// TestTreeScheduleMatchesTreeRounds pins the linear-time generator the
// graph workload replays to the library's TreeRounds, round for round.
func TestTreeScheduleMatchesTreeRounds(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ktree8", topo.RandomKTree(1<<11, 8, 3)},
		{"ktree2", topo.RandomKTree(500, 2, 4)},
		{"regular8", topo.RandomRegular(1<<11, 8, 5)},
		{"connected", topo.RandomConnected(300, 40, 6)},
	} {
		for _, src := range []uint64{0, 1, 17, uint64(tc.g.NumVertices() - 1), uint64(tc.g.NumVertices())} {
			var want []linecomm.Round
			for r := range linecomm.TreeRounds(tc.g, src) {
				want = append(want, linecomm.CloneRound(r))
			}
			if got := treeSchedule(tc.g, src).Rounds; !reflect.DeepEqual(got, want) {
				t.Errorf("%s from %d: %d rounds, TreeRounds yields %d, or they differ", tc.name, src, len(got), len(want))
			}
		}
	}
}
