package distverify

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sparsehypercube/internal/linecomm"
)

// TestWireRoundTrip: a Result must survive response-wrapping, JSON, and
// reconstruction exactly — every violation kind by name, every index
// and message untouched — because the coordinator's stitched Report is
// built from the reconstruction.
func TestWireRoundTrip(t *testing.T) {
	res := &linecomm.Result{
		Violations: []linecomm.Violation{
			{Round: 3, Call: 1, Kind: linecomm.CallerUninformed, Msg: "caller 5 is not informed"},
			{Round: 4, Call: -1, Kind: linecomm.SimulationCapExceeded, Msg: "cap"},
			{Round: 5, Call: 0, Kind: linecomm.VertexOutOfRange, Msg: "vertex 99 outside [0,64)"},
		},
		InformedPerRound: []uint64{9, 17, 33},
		Informed:         33,
		MaxCallLength:    2,
	}
	wire := ResponseFromResult(res, 3, 6, 0xdeadbeef, 5)
	if wire.StartRound != 3 || wire.EndRound != 6 || wire.SpanCRC != 0xdeadbeef || wire.SeedInformed != 5 {
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
	got, err := back.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, got) {
		t.Fatalf("round trip diverged:\nin:  %+v\nout: %+v", res, got)
	}
	for i := range res.Violations {
		if res.Violations[i].String() != got.Violations[i].String() {
			t.Fatalf("violation %d string diverged: %q != %q",
				i, got.Violations[i].String(), res.Violations[i].String())
		}
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
	if _, err := back.Result(); err == nil {
		t.Error("unknown violation kind accepted")
	}
}

// TestSeedForms: both seed forms resolve to the same set and the same
// seed_informed count — repeats and the source counted once — and
// malformed seeds are refused.
func TestSeedForms(t *testing.T) {
	for _, order := range []uint64{4, 32, 64, 100, 1 << 12} {
		for _, density := range []int{1, 3, 50, 100} {
			words := make([]uint64, seedWords(order))
			var list []uint64
			for v := uint64(1); v < order; v++ {
				if int(v*7919%100) < density {
					list = append(list, v)
				}
			}
			if len(list) == 0 {
				continue
			}
			list = append(list, list[0], 0) // a repeat, and the source
			setSeedBits(words, list)
			distinct := slices.Compact(slices.Sorted(slices.Values(list)))

			listForm := RangeRequest{Seed: list}
			bitsForm := RangeRequest{SeedBits: encodeSeedBits(words)}
			seed, informed, err := listForm.ResolveSeed(order, 0)
			if err != nil || !slices.Equal(seed, list) || informed != uint64(len(distinct)) {
				t.Fatalf("order %d density %d: list form resolves to %v, %d, %v", order, density, seed, informed, err)
			}
			seed, informed, err = bitsForm.ResolveSeed(order, 0)
			if err != nil || !slices.Equal(seed, distinct) || informed != uint64(len(distinct)) {
				t.Fatalf("order %d density %d: bitmap form resolves to %v, %d, %v", order, density, seed, informed, err)
			}
			if _, informed, _ = bitsForm.ResolveSeed(order, order-1); !slices.Contains(distinct, order-1) && informed != uint64(len(distinct))+1 {
				t.Fatalf("order %d density %d: source outside the seed counted %d", order, density, informed)
			}
		}
	}

	bad := []struct {
		req    RangeRequest
		substr string
	}{
		{RangeRequest{Seed: []uint64{1}, SeedBits: make([]byte, 8)}, "at most one"},
		{RangeRequest{SeedBits: make([]byte, 16)}, "seed_bits holds 16 bytes"},
		{RangeRequest{SeedBits: []byte{}}, "seed_bits holds 0 bytes"},
		{RangeRequest{SeedBits: []byte{0, 0, 0, 0, 1, 0, 0, 0}}, "bit 32 outside [0,32)"},
		{RangeRequest{Seed: []uint64{32}}, "seed vertex 32"},
	}
	for _, tc := range bad {
		if _, _, err := tc.req.ResolveSeed(32, 0); err == nil || !strings.Contains(err.Error(), tc.substr) {
			t.Errorf("%+v: error %v, want %q", tc.req, err, tc.substr)
		}
	}

	// A bitmap for a cube far too large to hold one is refused by its
	// length alone, before anything is sized by the order.
	if _, _, err := (&RangeRequest{SeedBits: make([]byte, 8)}).ResolveSeed(1<<50, 0); err == nil {
		t.Error("an 8-byte bitmap accepted for a 2^50-vertex cube")
	}
}
