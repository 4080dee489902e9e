package distverify

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sparsehypercube/internal/bitvec"
	"sparsehypercube/internal/linecomm"
)

// TestWireRoundTrip: an open range must survive response-wrapping,
// JSON, and reconstruction exactly — every violation kind by name,
// every index, message and vertex set untouched — because the
// coordinator's merged Report is built from the reconstruction.
func TestWireRoundTrip(t *testing.T) {
	const order = 100
	res := &linecomm.Result{
		Violations: []linecomm.Violation{
			{Round: 3, Call: 1, Kind: linecomm.CallerUninformed, Msg: "caller 5 is not informed"},
			{Round: 4, Call: -1, Kind: linecomm.SimulationCapExceeded, Msg: "cap"},
			{Round: 5, Call: 0, Kind: linecomm.VertexOutOfRange, Msg: "vertex 99 outside [0,64)"},
		},
		InformedPerRound: []uint64{2, 3, 4},
		Informed:         4,
		MaxCallLength:    2,
	}
	informed, assumed := setOf(order, 0, 9, 64, 99), setOf(order, 5, 70)
	wire := ResponseFromOpenRange(linecomm.NewOpenRange(res, informed, assumed), 3, 6, 0xdeadbeef)
	if wire.StartRound != 3 || wire.EndRound != 6 || wire.SpanCRC != 0xdeadbeef {
		t.Fatalf("echo fields wrong: %+v", wire)
	}
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var back RangeResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	part, err := back.OpenRange(order)
	if err != nil {
		t.Fatal(err)
	}
	got := part.Result()
	if !reflect.DeepEqual(res, got) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", res, got)
	}
	for i := range res.Violations {
		if res.Violations[i].String() != got.Violations[i].String() {
			t.Fatalf("violation %d string diverged: %q != %q",
				i, got.Violations[i].String(), res.Violations[i].String())
		}
	}
	if !slices.Equal(part.Informed().Words(), informed.Words()) || !slices.Equal(part.Assumed().Words(), assumed.Words()) {
		t.Fatalf("sets diverged: informed %x assumed %x", part.Informed().Words(), part.Assumed().Words())
	}

	// Every kind's name must parse back to itself.
	for k := linecomm.CallerUninformed; k <= linecomm.SimulationCapExceeded; k++ {
		parsed, ok := linecomm.ParseViolationKind(k.String())
		if !ok || parsed != k {
			t.Errorf("kind %d does not round-trip through %q", int(k), k.String())
		}
	}

	// An unknown kind name is a hard error, not a guess.
	back.Violations[0].Kind = "made-up-kind"
	if _, err := back.OpenRange(order); err == nil {
		t.Error("unknown violation kind accepted")
	}
}

// setOf returns the order-bit set of vs.
func setOf(order int, vs ...int) *bitvec.Set {
	s := bitvec.New(order)
	for _, v := range vs {
		s.Set(v)
	}
	return s
}

// TestBitmapForms: a vertex set survives the bitmap encoding at every
// order and density — universes ending mid-word included — and
// RangeResponse.OpenRange refuses every malformed bitmap: missing,
// of the wrong length, with a bit at or beyond the order, an informed
// set whose size is not the informed count, and assumed callers sent
// at round 0 or missing after it.
func TestBitmapForms(t *testing.T) {
	for _, order := range []uint64{4, 32, 64, 100, 1 << 12} {
		for _, density := range []int{1, 3, 50, 100} {
			s := bitvec.New(int(order))
			for v := range order {
				if int(v*7919%100) < density {
					s.Set(int(v))
				}
			}
			got, err := decodeBits("b", encodeBits(s), order)
			if err != nil || !slices.Equal(got.Words(), s.Words()) {
				t.Fatalf("order %d density %d: round trip gave %v, %v", order, density, got, err)
			}
		}
	}

	ok := func() RangeResponse {
		return RangeResponse{StartRound: 2, EndRound: 3, Informed: 2, InformedPerRound: []uint64{2},
			InformedBits: encodeBits(setOf(32, 0, 7)), AssumedBits: encodeBits(setOf(32, 3))}
	}
	if r := ok(); func() error { _, err := r.OpenRange(32); return err }() != nil {
		t.Fatal("the well-formed response is refused")
	}
	bad := []struct {
		mutate func(r *RangeResponse)
		substr string
	}{
		{func(r *RangeResponse) { r.InformedBits = nil }, "informed_bits missing"},
		{func(r *RangeResponse) { r.InformedBits = make([]byte, 16) }, "informed_bits holds 16 bytes"},
		{func(r *RangeResponse) { r.InformedBits = []byte{} }, "informed_bits holds 0 bytes"},
		{func(r *RangeResponse) { r.InformedBits = []byte{1, 0, 0, 0, 1, 0, 0, 0} }, "informed_bits sets bit 32 outside [0,32)"},
		{func(r *RangeResponse) { r.Informed = 3 }, "informed_bits holds 2 vertices, informed is 3"},
		{func(r *RangeResponse) { r.AssumedBits = nil }, "assumed_bits missing"},
		{func(r *RangeResponse) { r.AssumedBits = make([]byte, 4) }, "assumed_bits holds 4 bytes"},
		{func(r *RangeResponse) { r.AssumedBits = []byte{0, 0, 0, 0x80, 0, 0, 0, 0x80} }, "assumed_bits sets bit 63 outside [0,32)"},
		{func(r *RangeResponse) { r.StartRound = 0 }, "assumed_bits sent for a range at round 0"},
	}
	for _, tc := range bad {
		r := ok()
		tc.mutate(&r)
		if _, err := r.OpenRange(32); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%+v: error %v, want %q", r, err, tc.substr)
		}
	}

	// A bitmap for a cube far too large to hold one is refused by its
	// length alone, before anything is sized by the order.
	if _, err := decodeBits("b", make([]byte, 8), 1<<50); err == nil {
		t.Error("an 8-byte bitmap accepted for a 2^50-vertex cube")
	}
}
