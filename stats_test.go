package sparsehypercube

import "testing"

func TestScheduleStats(t *testing.T) {
	cube, err := NewWithDims(2, []int{3, 10})
	if err != nil {
		t.Fatal(err)
	}
	sched := cube.Plan(BroadcastScheme{Source: 0}).Materialize()
	st := cube.Stats(sched)
	if st.Rounds != 10 {
		t.Errorf("rounds = %d", st.Rounds)
	}
	if st.TotalCalls != int(cube.Order())-1 {
		t.Errorf("calls = %d, want %d", st.TotalCalls, cube.Order()-1)
	}
	if st.CallLengthCount[1]+st.CallLengthCount[2] != st.TotalCalls {
		t.Errorf("length histogram inconsistent: %v", st.CallLengthCount)
	}
	if st.MinEdgeCapacity != 1 {
		t.Errorf("valid schedule needs capacity %d, want 1", st.MinEdgeCapacity)
	}
	if st.EdgesUsed < int(cube.Order())-1 {
		t.Errorf("edges used = %d, too few", st.EdgesUsed)
	}
	if st.MaxEdgeLoad < 1 || st.MeanEdgeLoad < 1 {
		t.Errorf("loads implausible: %+v", st)
	}
	// A gossip schedule doubles the usage but still fits capacity 1.
	gst := cube.Stats(cube.Plan(GossipScheme{Root: 0}).Materialize())
	if gst.Rounds != 20 || gst.TotalCalls != 2*st.TotalCalls {
		t.Errorf("gossip stats wrong: %+v", gst)
	}
	if gst.MinEdgeCapacity != 1 {
		t.Errorf("gossip schedule needs capacity %d", gst.MinEdgeCapacity)
	}
}
