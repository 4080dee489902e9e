package linecomm

import "testing"

// SlottedFor exposes slottedFor to the external test package, which can
// import core (core imports linecomm, so the internal tests cannot).
var SlottedFor = slottedFor

// GossipShardMaxWords exposes gossipShardMaxWords to the allocation gate
// of the external test package.
const GossipShardMaxWords = gossipShardMaxWords

// NoHub is outside every network, so the hub certificate certifies
// nothing and the token simulation decides.
const NoHub = ^uint64(0)

// CountSimulations counts the gossip validators' token-simulation runs
// until the test ends, telling which half decided a result.
func CountSimulations(tb testing.TB) *int {
	tb.Helper()
	orig := simulateTokens
	runs := new(int)
	simulateTokens = func(order uint64, sources []uint64, pairs []uint32) []int32 {
		*runs++
		return orig(order, sources, pairs)
	}
	tb.Cleanup(func() { simulateTokens = orig })
	return runs
}

// ThresholdSchedule exposes thresholdSchedule to the gossip crosschecks
// of the external test package.
var ThresholdSchedule = thresholdSchedule
