package sparsehypercube

import (
	"sparsehypercube/internal/linecomm"
)

// ScheduleStats summarises a schedule's resource usage: the congestion
// quantities the paper's §5 discusses.
type ScheduleStats struct {
	Rounds          int
	TotalCalls      int
	CallLengthCount map[int]int // call length -> number of calls
	EdgesUsed       int         // distinct edges occupied at least once
	MaxEdgeLoad     int         // busiest edge's occupancy across rounds
	MeanEdgeLoad    float64
	// MinEdgeCapacity is the smallest per-round edge capacity under which
	// the schedule has no edge conflicts (1 for schedules valid in the
	// classic model; see the paper's §5 dilated-links discussion).
	MinEdgeCapacity int
}

// Stats computes ScheduleStats for s.
func (c *Cube) Stats(s *Schedule) ScheduleStats {
	inner := toInner(s)
	cong := linecomm.Congestion(inner)
	return ScheduleStats{
		Rounds:          len(s.Rounds),
		TotalCalls:      inner.TotalCalls(),
		CallLengthCount: linecomm.PathLengthHistogram(inner),
		EdgesUsed:       cong.EdgesUsed,
		MaxEdgeLoad:     cong.MaxEdgeLoad,
		MeanEdgeLoad:    cong.MeanEdgeLoad,
		MinEdgeCapacity: linecomm.MinEdgeCapacity(inner),
	}
}
