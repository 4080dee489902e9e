package linecomm

// SlottedFor exposes slottedFor to the external test package, which can
// import core (core imports linecomm, so the internal tests cannot).
var SlottedFor = slottedFor

// GossipShardMaxWords exposes gossipShardMaxWords to the allocation gate
// of the external test package.
const GossipShardMaxWords = gossipShardMaxWords
