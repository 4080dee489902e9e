package linecomm

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/topo"
)

// FuzzValidate feeds arbitrary byte-derived schedules to the validator:
// whatever the input, it must classify without panicking, and a schedule
// it calls minimum-time must really inform everyone. netRaw picks the
// network (fuzzGraph: Q_4 or an irregular 16-vertex random family, a
// 256-vertex one or the 255-vertex complete binary tree, whose
// four-word vertex sets put rounds of fewer calls than words, ended
// call by call, under fuzz, or Q_10, whose rounds end on both sides of
// the dense threshold), optRaw the generalised
// model (optionsFromByte) and splitMask the round cuts of a range-split
// replay (boundsFromMask).
func FuzzValidate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(2), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 9}, uint8(1), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{255, 254, 253}, uint8(3), uint8(0), uint16(0), uint8(0))
	// Five rounds of a binomial broadcast from 0 on Q_4, cut at rounds 2
	// and 4, under Definition 1 and under a relaxed model.
	binomial := []byte{0,
		0, 0, 0, 1,
		1, 0, 0, 2, 0, 1, 3,
		3, 0, 0, 4, 0, 1, 5, 0, 2, 6, 0, 3, 7,
		3, 0, 0, 8, 0, 1, 9, 0, 2, 10, 0, 3, 11,
		1, 0, 4, 12, 0, 5, 13}
	f.Add(binomial, uint8(0), uint8(0), uint16(0b10100), uint8(0))
	f.Add(binomial, uint8(1), uint8(0x15), uint16(0xffff), uint8(0))
	// Mixed models: per-slot edge counters beside a capacity-1 receiver
	// set (optRaw 1), and a capacity-1 edge set beside receiver
	// counters (optRaw 4); the irregular families below take the two
	// in turn.
	f.Add(binomial, uint8(1), uint8(1), uint16(0b10100), uint8(0))
	f.Add(binomial, uint8(1), uint8(4), uint16(0b10100), uint8(0))
	// Edges called both ways at once on every network, and valid
	// tree-broadcast prefixes on each irregular family, plain and
	// relaxed, whole and cut.
	for netRaw := uint8(0); netRaw < 10; netRaw++ {
		g := fuzzGraph(netRaw)
		f.Add(bothWaysSeed(g), uint8(0), uint8(0), uint16(0), netRaw)
		if netRaw%5 != 0 {
			seed := treeSeed(g)
			f.Add(seed, uint8(0), uint8(0), uint16(0), netRaw)
			f.Add(seed, uint8(1), uint8(0x15), uint16(0b110), netRaw)
			f.Add(seed, uint8(1), uint8(1+3*(netRaw&1)), uint16(0b110), netRaw)
		}
	}
	for _, netRaw := range bigFuzzNets {
		f.Add(walkSeed, uint8(0), uint8(0), uint16(0), netRaw)
		f.Add(walkSeed, uint8(1), uint8(0x15), uint16(0b1010), netRaw)
	}
	f.Add(doublingSeed, uint8(0), uint8(0), uint16(0b110000), uint8(130))
	f.Add(doublingSeed, uint8(1), uint8(0x15), uint16(0b100), uint8(130))
	f.Add(treeWalkSeed(false), uint8(0), uint8(0), uint16(0b100), uint8(131))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, optRaw uint8, splitMask uint16, netRaw uint8) {
		g := fuzzGraph(netRaw)
		net := GraphNetwork{G: g}
		k := int(kRaw)%4 + 1
		opts := optionsFromByte(optRaw)
		s := fuzzSchedule(data, netRaw)
		res := ValidateOpts(net, k, s, opts)
		if res.MinimumTime && res.Informed != net.Order() {
			t.Fatalf("minimum-time claimed with %d informed", res.Informed)
		}
		if res.Valid() != (len(res.Violations) == 0) {
			t.Fatal("Valid() inconsistent with Violations")
		}
		// The streaming engine must reproduce the serial Result exactly,
		// whatever the input, network and model: via the bare
		// GraphNetwork (the graph's own slots, per-slot counters once a
		// capacity exceeds 1) and, on Q_4, Q_8 and Q_10 only, via the
		// dimensioned wrapper (closed-form slots). Cut into open round
		// ranges, the merge must agree whenever it accepts, and accept
		// whenever the serial Result shows no false boundary assumption.
		nets := map[string]Network{"csr": net}
		if n := fuzzCubeDim(netRaw); n > 0 {
			nets["dim"] = dimNet{plainNet{net}, n}
		}
		bounds := boundsFromMask(len(s.Rounds), splitMask)
		for name, streamNet := range nets {
			sres := ValidateStreamOpts(streamNet, k, s.Source, s.Stream(), opts)
			if !reflect.DeepEqual(res, sres) {
				t.Fatalf("%s stream on network %d diverges from serial under %+v:\nserial: %+v\nstream: %+v", name, netRaw, opts, res, sres)
			}
			checkOpenRanges(t, streamNet, k, s, bounds, opts, res)
		}
	})
}

// FuzzValidateGossip is FuzzValidate for the gossip validators: on the
// network netRaw picks (fuzzGraph), the streamed ValidateGossipStream
// must return exactly the serial ValidateGossip Result for any
// byte-derived schedule (fuzzSchedule), with the schedule's source as
// the certificate's hub and with none (the token simulation decides),
// on the graph's own slots and, on Q_4, Q_8 and Q_10, on the closed
// form. The seeds include the complete binary tree's tree-broadcast
// gossip, whose rounds of one to three exchanges end call by call.
func FuzzValidateGossip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(2), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 9}, uint8(1), uint8(0))
	for netRaw := uint8(0); netRaw < 10; netRaw++ {
		g := fuzzGraph(netRaw)
		f.Add(bothWaysSeed(g), uint8(0), netRaw)
		f.Add(treeSeed(g), uint8(0), netRaw)
		f.Add(treeSeed(g), uint8(1), netRaw)
	}
	for _, netRaw := range bigFuzzNets {
		f.Add(walkSeed, uint8(0), netRaw)
		f.Add(walkSeed, uint8(1), netRaw)
	}
	f.Add(doublingSeed, uint8(0), uint8(130))
	f.Add(treeWalkSeed(true), uint8(0), uint8(131))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, netRaw uint8) {
		net := GraphNetwork{G: fuzzGraph(netRaw)}
		k := int(kRaw)%4 + 1
		s := fuzzSchedule(data, netRaw)
		want := ValidateGossip(net, k, s)
		nets := map[string]Network{"csr": net}
		if n := fuzzCubeDim(netRaw); n > 0 {
			nets["dim"] = dimNet{plainNet{net}, n}
		}
		for name, streamNet := range nets {
			for _, hub := range []uint64{s.Source, NoHub} {
				if got := ValidateGossipStream(streamNet, k, hub, s.Stream()); !reflect.DeepEqual(want, got) {
					t.Fatalf("%s gossip stream, hub %d, on network %d diverges from serial:\nserial: %+v\nstream: %+v", name, hub, netRaw, want, got)
				}
			}
		}
	})
}

// fuzzGraph decodes the fuzzed network byte. Below 128 it is a 16-vertex
// graph: b%5 picks Q_4 or the Gnp, RandomRegular, RandomKTree or
// RandomConnected family, and b/5 seeds the family and varies its
// density. Only Q_4 is regular, so the other four put the degree rule
// of graph.Graph's edge slots under fuzz, not just its id tie-break.
// From 128 it is one of the larger graphs of bigFuzzGraphs, by
// (b-128)%4.
func fuzzGraph(b uint8) *graph.Graph {
	if b >= 128 {
		return bigFuzzGraphs()[(b-128)%4]
	}
	seed := int64(b / 5)
	switch b % 5 {
	case 1:
		return topo.Gnp(16, 0.15+0.05*float64(seed%4), seed)
	case 2:
		return topo.RandomRegular(16, 2+int(seed%4), seed)
	case 3:
		return topo.RandomKTree(16, 1+int(seed%3), seed)
	case 4:
		return topo.RandomConnected(16, int(seed%16), seed)
	}
	return topo.Hypercube(4)
}

// bigFuzzGraphs are the larger networks, built once: Q_8, a random
// 4-regular graph on its own slots, of 256 vertices, and the complete
// binary tree of 255, whose vertex sets span four words, so a fuzzed
// round of one to three calls ends call by call and one of four
// word-wide; and Q_10, whose vertex sets span sixteen words, two 8-word
// blocks, so its rounds of up to 32 calls end on both sides of the
// dense threshold at 16.
var bigFuzzGraphs = sync.OnceValue(func() [4]*graph.Graph {
	return [4]*graph.Graph{topo.Hypercube(8), topo.RandomRegular(256, 4, 1), topo.Hypercube(10), topo.CompleteBinaryTree(7)}
})

// bigFuzzNets are the network bytes of the four larger graphs.
var bigFuzzNets = []uint8{128, 129, 130, 131}

// fuzzCubeDim returns n when fuzzGraph(b) is Q_n, which the dimensioned
// wrapper then also runs on closed-form slots, and 0 otherwise.
func fuzzCubeDim(b uint8) int {
	switch {
	case b >= 128 && (b-128)%4 == 0:
		return 8
	case b >= 128 && (b-128)%4 == 2:
		return 10
	case b < 128 && b%5 == 0:
		return 4
	}
	return 0
}

// fuzzSchedule decodes the fuzzed schedule for the network byte b:
// scheduleFromBytes on the 16-vertex graphs, walkSchedule on the
// larger ones.
func fuzzSchedule(data []byte, b uint8) *Schedule {
	if b >= 128 {
		return walkSchedule(data, fuzzGraph(b))
	}
	return scheduleFromBytes(data)
}

// walkSchedule decodes bytes into a schedule of walks on g, so that on a
// graph of about 256 vertices most fuzzed calls run along edges and
// most callers already hold the message: byte 0 = source, then per
// round a call count (1-4; 1-32 on a graph of more than 256 vertices)
// and per call a start selector — below 128 it picks a vertex the
// schedule has reached so far (the source or an earlier receiver),
// otherwise the next byte is the start (the next two on a graph of more
// than 256 vertices) — a length (1-4 edges) and one neighbour index per
// edge. The source and start bytes are taken modulo the order, so walks
// start in range on graphs of fewer than 256 vertices too. Walks may
// revisit vertices.
func walkSchedule(data []byte, g *graph.Graph) *Schedule {
	if len(data) == 0 {
		return &Schedule{}
	}
	wide, maxCalls := g.NumVertices() > 256, byte(4)
	if wide {
		maxCalls = 32
	}
	order := uint64(g.NumVertices())
	s := &Schedule{Source: uint64(data[0]) % order}
	reached := []uint64{s.Source}
	i := 1
	next := func() byte { // 0 past the end
		if i >= len(data) {
			return 0
		}
		i++
		return data[i-1]
	}
	for i < len(data) && len(s.Rounds) < 9 {
		var round Round
		for c := int(next() % maxCalls); c >= 0 && i < len(data); c-- {
			sel := next()
			v := reached[int(sel)%len(reached)]
			if sel >= 128 {
				v = uint64(next())
				if wide {
					v = v<<8 | uint64(next())
				}
				v %= order
			}
			path := []uint64{v}
			for e := int(next() % 4); e >= 0 && i < len(data); e-- {
				nb := g.Neighbors(int(v))
				v = uint64(nb[int(next())%len(nb)])
				path = append(path, v)
			}
			round = append(round, Call{Path: path})
			reached = append(reached, v)
		}
		s.Rounds = append(s.Rounds, round)
	}
	return s
}

// walkSeed encodes, in walkSchedule's format, six rounds of one to three
// single-edge calls from vertices already reached, so that callers and
// receivers of each sparse round call again in the next.
var walkSeed = func() []byte {
	data := []byte{0}
	for r := range 6 {
		calls := min(r, 2)
		data = append(data, byte(calls))
		for c := range calls + 1 {
			data = append(data, byte(r+c), 0, byte(r+2*c))
		}
	}
	return data
}()

// doublingSeed encodes, in walkSchedule's format, the first six rounds
// of the binomial broadcast from 0 on Q_10: in round r every vertex
// below 2^r calls across dimension r, its neighbour index r. Rounds of
// 1 to 8 calls end call by call, rounds of 16 and 32 word-wide.
var doublingSeed = func() []byte {
	data := []byte{0}
	for r := range 6 {
		data = append(data, byte(1<<r-1))
		for j := range 1 << r {
			data = append(data, byte(j), 0, byte(r))
		}
	}
	return data
}()

// treeWalkSeed encodes, in walkSchedule's format, TreeRounds on the
// complete binary tree from its root, up to the first round with more
// calls than a fuzzed round carries (4): rounds of one to three calls,
// which end through the sparse path. With gossip it encodes the
// FromBroadcast gossip of those rounds instead.
func treeWalkSeed(gossip bool) []byte {
	g := bigFuzzGraphs()[3]
	bc := &Schedule{}
	for r := range TreeRounds(g, 0) {
		if len(r) > 4 {
			break
		}
		bc.Rounds = append(bc.Rounds, CloneRound(r))
	}
	if gossip {
		bc = FromBroadcast(bc)
	}
	data := []byte{0}
	for _, r := range bc.Rounds {
		data = append(data, byte(len(r)-1))
		for _, c := range r {
			nb := slices.Index(g.Neighbors(int(c.From())), int32(c.To()))
			data = append(data, 128, byte(c.From()), 0, byte(nb))
		}
	}
	return data
}

// bothWaysSeed encodes nine rounds that each call one edge of g in both
// directions: every engine must flag the shared edge, which the csr
// engine sees only if both directions resolve to the same slot.
func bothWaysSeed(g *graph.Graph) []byte {
	data := []byte{0}
	g.Edges(func(u, v int) {
		if len(data) < 64 {
			data = append(data, 1, 0, byte(u), byte(v), 0, byte(v), byte(u))
		}
	})
	return data
}

// treeSeed encodes TreeRounds(g, 0) in scheduleFromBytes's format, up to
// the first round with more calls than one fuzzed round can carry (4).
func treeSeed(g *graph.Graph) []byte {
	data := []byte{0}
	for r := range TreeRounds(g, 0) {
		if len(r) > 4 {
			break
		}
		data = append(data, byte(len(r)-1))
		for _, c := range r {
			data = append(data, 0, byte(c.From()), byte(c.To()))
		}
	}
	return data
}

// optionsFromByte decodes the generalised model: bits 0-1 give
// EdgeCapacity-1, bits 2-3 ReceiverCapacity-1, bit 4
// AllowInformedReceiver. Zero is Definition 1.
func optionsFromByte(b uint8) Options {
	return Options{
		EdgeCapacity:          int(b&3) + 1,
		ReceiverCapacity:      int(b>>2&3) + 1,
		AllowInformedReceiver: b&16 != 0,
	}
}

// boundsFromMask cuts a schedule of the given number of rounds before
// every round index i in [1, rounds) whose bit is set in mask.
func boundsFromMask(rounds int, mask uint16) []int {
	bounds := []int{0}
	for i := 1; i < rounds; i++ {
		if mask&(1<<i) != 0 {
			bounds = append(bounds, i)
		}
	}
	return append(bounds, rounds)
}

// scheduleFromBytes decodes bytes into a schedule on a 16-vertex network:
// byte 0 = source, then alternating round lengths and path data.
func scheduleFromBytes(data []byte) *Schedule {
	if len(data) == 0 {
		return &Schedule{}
	}
	s := &Schedule{Source: uint64(data[0] % 16)}
	i := 1
	for i < len(data) {
		nCalls := int(data[i]%4) + 1
		i++
		var round Round
		for c := 0; c < nCalls && i < len(data); c++ {
			pathLen := int(data[i]%4) + 1
			i++
			var path []uint64
			for p := 0; p <= pathLen && i < len(data); p++ {
				path = append(path, uint64(data[i]%17)) // may exceed range: good
				i++
			}
			round = append(round, Call{Path: path})
		}
		s.Rounds = append(s.Rounds, round)
		if len(s.Rounds) > 8 {
			break
		}
	}
	return s
}

// FuzzScheduleJSON: ReadJSON must never panic and must round-trip
// whatever it accepts.
func FuzzScheduleJSON(f *testing.F) {
	f.Add([]byte(`{"source":0,"rounds":[[[0,1]]]}`))
	f.Add([]byte(`{"source":999}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, s); err != nil {
			t.Fatalf("accepted schedule failed to serialise: %v", err)
		}
		s2, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if s2.Source != s.Source || len(s2.Rounds) != len(s.Rounds) {
			t.Fatal("round trip changed schedule")
		}
	})
}
