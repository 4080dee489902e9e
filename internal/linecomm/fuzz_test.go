package linecomm

import (
	"bytes"
	"reflect"
	"testing"

	"sparsehypercube/internal/topo"
)

// FuzzValidate feeds arbitrary byte-derived schedules to the validator:
// whatever the input, it must classify without panicking, and a schedule
// it calls minimum-time must really inform everyone.
func FuzzValidate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9, 9}, uint8(1))
	f.Add([]byte{255, 254, 253}, uint8(3))
	net := GraphNetwork{G: topo.Hypercube(4)}
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		k := int(kRaw)%4 + 1
		s := scheduleFromBytes(data)
		res := Validate(net, k, s)
		if res.MinimumTime && res.Informed != 16 {
			t.Fatalf("minimum-time claimed with %d informed", res.Informed)
		}
		if res.Valid() != (len(res.Violations) == 0) {
			t.Fatal("Valid() inconsistent with Violations")
		}
		// The streaming engines must reproduce the serial Result exactly,
		// whatever the input: map engine via the stripped wrapper, CSR
		// engine via the bare GraphNetwork (the graph's own slots) and
		// via the dimensioned wrapper (closed-form slots).
		for name, streamNet := range map[string]Network{
			"map": plainNet{net}, "csr": net, "dim": dimNet{plainNet{net}, 4},
		} {
			sres := ValidateStream(streamNet, k, s.Source, s.Stream())
			if !reflect.DeepEqual(res, sres) {
				t.Fatalf("%s stream diverges from serial:\nserial: %+v\nstream: %+v", name, res, sres)
			}
		}
	})
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
