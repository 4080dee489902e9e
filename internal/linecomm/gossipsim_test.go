package linecomm

import (
	"encoding/binary"
	"math/rand/v2"
	"runtime"
	"testing"
)

// FuzzGossipSimulate pins the row-state shard simulation to a naive
// replay over one order x tokens matrix of booleans. The fuzzer picks
// the order, the token sources (every vertex, or a random subset whose
// size need not be a multiple of 64), the shard width through
// gossipSimBudgetBytes (a starved budget for one word and one worker, or
// a budget of 1..8 words a row per worker, odd widths included), and an
// exchange log in one of three shapes:
//
//   - shape 0: pairs read straight from the input (repeats included);
//   - shape 1: the same log with a gather to vertex 0 and a scatter back
//     spliced into its middle, so every row fills mid-log and the rest
//     replays over full rows;
//   - shape 2: pairs forced to join vertices of equal parity, so no row
//     of an all-source shard wider than one token ever fills.
func FuzzGossipSimulate(f *testing.F) {
	f.Add(uint64(1), uint16(700), uint8(0), uint8(1), uint8(3), []byte("\x01\x00\x02\x00\x03\x00\x01\x00\x02\x00\x01\x00"))
	f.Add(uint64(2), uint16(130), uint8(1), uint8(0), uint8(1), []byte("\x05\x00\x07\x00\x05\x00\x07\x00\x07\x00\x09\x00"))
	f.Add(uint64(3), uint16(1000), uint8(0), uint8(2), uint8(7), []byte("\x10\x00\x11\x00\x12\x00\x13\x00\x20\x01\x22\x02"))
	f.Add(uint64(4), uint16(900), uint8(2), uint8(1), uint8(5), []byte("\x00\x00\x01\x00"))
	f.Add(uint64(5), uint16(4), uint8(0), uint8(1), uint8(0), []byte{})
	f.Add(uint64(6), uint16(64), uint8(3), uint8(0), uint8(8), []byte("\x00\x00\x00\x00\x01\x00\x01\x00"))
	f.Fuzz(func(t *testing.T, seed uint64, orderSel uint16, srcSel, shape, widthSel uint8, log []byte) {
		const maxOrder, maxPairs = 1024, 4096
		order := 1 + int(orderSel)%maxOrder
		rng := rand.New(rand.NewPCG(seed, uint64(order)))

		var sources []uint64
		if srcSel%4 != 0 {
			perm := rng.Perm(order)
			sources = make([]uint64, 1+rng.IntN(order))
			for i := range sources {
				sources[i] = uint64(perm[i])
			}
		}

		var raw []uint32
		for i := 0; i+4 <= len(log) && len(raw) < 2*maxPairs; i += 4 {
			a := uint32(binary.LittleEndian.Uint16(log[i:])) % uint32(order)
			b := uint32(binary.LittleEndian.Uint16(log[i+2:])) % uint32(order)
			raw = append(raw, a, b)
		}
		pairs := raw
		switch shape % 3 {
		case 1:
			half := len(raw) / 4 * 2
			pairs = append([]uint32(nil), raw[:half]...)
			for v := 1; v < order; v++ {
				pairs = append(pairs, uint32(v), 0)
			}
			for v := 1; v < order; v++ {
				pairs = append(pairs, 0, uint32(v))
			}
			pairs = append(pairs, raw[half:]...)
		case 2:
			for p := 0; p < len(pairs); p += 2 {
				if b := pairs[p+1]&^1 | pairs[p]&1; b < uint32(order) {
					pairs[p+1] = b
				} else {
					pairs[p+1] = pairs[p]
				}
			}
		}

		defer func(b int) { gossipSimBudgetBytes = b }(gossipSimBudgetBytes)
		gossipSimBudgetBytes = 1
		if w := int(widthSel % 9); w > 0 {
			gossipSimBudgetBytes = runtime.GOMAXPROCS(0) * order * 8 * w
		}

		got := simulateGossipTokens(uint64(order), sources, pairs)
		want := naiveGossipCounts(order, sources, pairs)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("order %d, %d sources, %d pairs, budget %d: vertex %d knows %d tokens, want %d",
					order, len(sources), len(pairs)/2, gossipSimBudgetBytes, v, got[v], want[v])
			}
		}
	})
}

// naiveGossipCounts is the reference for FuzzGossipSimulate: one bool
// per (vertex, token), every exchange ORs the two rows token by token.
func naiveGossipCounts(order int, sources []uint64, pairs []uint32) []int32 {
	m := order
	if sources != nil {
		m = len(sources)
	}
	know := make([][]bool, order)
	for v := range know {
		know[v] = make([]bool, m)
	}
	for t := range m {
		v := t
		if sources != nil {
			v = int(sources[t])
		}
		know[v][t] = true
	}
	for p := 0; p < len(pairs); p += 2 {
		a, b := know[pairs[p]], know[pairs[p+1]]
		for t := range a {
			u := a[t] || b[t]
			a[t], b[t] = u, u
		}
	}
	counts := make([]int32, order)
	for v, row := range know {
		for _, k := range row {
			if k {
				counts[v]++
			}
		}
	}
	return counts
}

// FuzzGossipCertify checks the hub certificate's soundness on fuzzed
// exchange logs, round boundaries and hubs: whenever certifyGossip
// accepts, the naive replay must have every vertex knowing every token.
// Logs come in the three shapes of FuzzGossipSimulate (shape 1 splices
// a gather to vertex 0 and a scatter back into the log), plus shape 3:
// shape 1 with one scatter exchange dropped, which a certificate that
// let the scatter start early would wrongly accept. When the hub is 0
// and a round ends where shape 1's gather does, the certificate must
// also accept, so the fuzzer cannot pass by rejecting everything.
func FuzzGossipCertify(f *testing.F) {
	f.Add(uint64(1), uint16(700), uint8(0), uint8(1), uint16(0), []byte("\x01\x00\x02\x00\x03\x00\x01\x00\x02\x00\x01\x00"))
	f.Add(uint64(2), uint16(130), uint8(1), uint8(0), uint16(3), []byte("\x05\x00\x07\x00\x05\x00\x07\x00\x07\x00\x09\x00"))
	f.Add(uint64(3), uint16(8), uint8(0), uint8(1), uint16(0), []byte("\x00\x00\x01\x00\x02\x00\x03\x00"))
	f.Add(uint64(4), uint16(0), uint8(2), uint8(1), uint16(0), []byte{})
	f.Add(uint64(5), uint16(64), uint8(3), uint8(2), uint16(9), []byte("\x00\x00\x00\x00\x01\x00\x01\x00"))
	f.Add(uint64(6), uint16(40), uint8(0), uint8(3), uint16(0), []byte("\x01\x00\x02\x00"))
	f.Fuzz(func(t *testing.T, seed uint64, orderSel uint16, srcSel, shape uint8, hubSel uint16, log []byte) {
		const maxOrder, maxPairs = 256, 2048
		order := 1 + int(orderSel)%maxOrder
		rng := rand.New(rand.NewPCG(seed, uint64(order)))

		var sources []uint64
		if srcSel%4 != 0 {
			perm := rng.Perm(order)
			sources = make([]uint64, 1+rng.IntN(order))
			for i := range sources {
				sources[i] = uint64(perm[i])
			}
		}

		var raw []uint32
		for i := 0; i+4 <= len(log) && len(raw) < 2*maxPairs; i += 4 {
			a := uint32(binary.LittleEndian.Uint16(log[i:])) % uint32(order)
			b := uint32(binary.LittleEndian.Uint16(log[i+2:])) % uint32(order)
			raw = append(raw, a, b)
		}
		pairs := raw
		junction := -1 // exchange index where the spliced gather ends
		switch shape % 4 {
		case 1, 3:
			half := len(raw) / 4 * 2
			pairs = append([]uint32(nil), raw[:half]...)
			for v := 1; v < order; v++ {
				pairs = append(pairs, uint32(v), 0)
			}
			junction = len(pairs) / 2
			dropped := 0 // no vertex: shape 1 keeps every scatter exchange
			if shape%4 == 3 && order > 1 {
				dropped = 1 + rng.IntN(order-1)
			}
			for v := 1; v < order; v++ {
				if v != dropped {
					pairs = append(pairs, 0, uint32(v))
				}
			}
			pairs = append(pairs, raw[half:]...)
		case 2:
			for p := 0; p < len(pairs); p += 2 {
				if b := pairs[p+1]&^1 | pairs[p]&1; b < uint32(order) {
					pairs[p+1] = b
				} else {
					pairs[p+1] = pairs[p]
				}
			}
		}

		// Round boundaries: random cuts (empty rounds included), the
		// junction when there is one, and the end of the log.
		var ends []int
		for p := 0; p < len(pairs)/2; p++ {
			if p == junction || rng.IntN(4) == 0 {
				ends = append(ends, p)
				if rng.IntN(8) == 0 {
					ends = append(ends, p)
				}
			}
		}
		ends = append(ends, len(pairs)/2)

		hub := uint64(hubSel) % uint64(order)
		ok := certifyGossip(uint64(order), hub, sources, pairs, ends)
		m := order
		if sources != nil {
			m = len(sources)
		}
		if ok {
			for v, c := range naiveGossipCounts(order, sources, pairs) {
				if int(c) != m {
					t.Fatalf("order %d, %d tokens, hub %d, %d pairs: certified, but vertex %d knows %d tokens",
						order, m, hub, len(pairs)/2, v, c)
				}
			}
		}
		if shape%4 == 1 && hub == 0 && !ok {
			t.Fatalf("order %d, %d tokens: gather-scatter through hub 0 not certified", order, m)
		}
	})
}
