package linecomm

import (
	"bytes"
	"reflect"
	"testing"

	"sparsehypercube/internal/topo"
)

// FuzzValidate feeds arbitrary byte-derived schedules to the validator:
// whatever the input, it must classify without panicking, and a schedule
// it calls minimum-time must really inform everyone. optRaw picks the
// generalised model (optionsFromByte) and splitMask the round cuts of a
// range-split replay (boundsFromMask).
func FuzzValidate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(2), uint8(0), uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 9}, uint8(1), uint8(0), uint16(0))
	f.Add([]byte{255, 254, 253}, uint8(3), uint8(0), uint16(0))
	// Five rounds of a binomial broadcast from 0 on Q_4, cut at rounds 2
	// and 4, under Definition 1 and under a relaxed model.
	binomial := []byte{0,
		0, 0, 0, 1,
		1, 0, 0, 2, 0, 1, 3,
		3, 0, 0, 4, 0, 1, 5, 0, 2, 6, 0, 3, 7,
		3, 0, 0, 8, 0, 1, 9, 0, 2, 10, 0, 3, 11,
		1, 0, 4, 12, 0, 5, 13}
	f.Add(binomial, uint8(0), uint8(0), uint16(0b10100))
	f.Add(binomial, uint8(1), uint8(0x15), uint16(0xffff))
	net := GraphNetwork{G: topo.Hypercube(4)}
	f.Fuzz(func(t *testing.T, data []byte, kRaw, optRaw uint8, splitMask uint16) {
		k := int(kRaw)%4 + 1
		opts := optionsFromByte(optRaw)
		s := scheduleFromBytes(data)
		res := ValidateOpts(net, k, s, opts)
		if res.MinimumTime && res.Informed != 16 {
			t.Fatalf("minimum-time claimed with %d informed", res.Informed)
		}
		if res.Valid() != (len(res.Violations) == 0) {
			t.Fatal("Valid() inconsistent with Violations")
		}
		// The streaming engines must reproduce the serial Result exactly,
		// whatever the input and model: map engine via the stripped
		// wrapper, CSR engine via the bare GraphNetwork (the graph's own
		// slots, per-slot counters once a capacity exceeds 1) and via the
		// dimensioned wrapper (closed-form slots). So must the same
		// schedule cut into seeded round ranges and merged.
		bounds := boundsFromMask(len(s.Rounds), splitMask)
		for name, streamNet := range map[string]Network{
			"map": plainNet{net}, "csr": net, "dim": dimNet{plainNet{net}, 4},
		} {
			sres := ValidateStreamOpts(streamNet, k, s.Source, s.Stream(), opts)
			if !reflect.DeepEqual(res, sres) {
				t.Fatalf("%s stream diverges from serial under %+v:\nserial: %+v\nstream: %+v", name, opts, res, sres)
			}
			rres := validateInRanges(streamNet, k, s.Source, s, bounds, opts)
			if !reflect.DeepEqual(res, rres) {
				t.Fatalf("%s ranges %v diverge from serial under %+v:\nserial: %+v\nmerged: %+v", name, bounds, opts, res, rres)
			}
		}
	})
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
