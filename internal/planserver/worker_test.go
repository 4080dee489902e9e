package planserver

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// rangeFixture builds everything a range-verify request needs: an
// indexed broadcast plan, its random-access view, and the seed/span/CRC
// of rounds [lo, hi).
type rangeFixture struct {
	cube   *sparsehypercube.Cube
	data   []byte
	at     *schedio.PlanAt
	lo, hi int
	seed   []uint64
	span   []byte
	crc    uint32
	want   *linecomm.Result // the seeded validator's local verdict
}

// informed is the seed_informed echo the fixture's request must draw:
// |seed ∪ {source}|, counted independently of the worker.
func (f *rangeFixture) informed() uint64 {
	set := map[uint64]bool{f.at.Header().Source: true}
	for _, v := range f.seed {
		set[v] = true
	}
	return uint64(len(set))
}

// seedBits encodes seed as the order-bit seed_bits bitmap.
func seedBits(order uint64, seed []uint64) []byte {
	out := make([]byte, 8*((order+63)/64))
	for _, v := range seed {
		w := binary.LittleEndian.Uint64(out[8*(v/64):])
		binary.LittleEndian.PutUint64(out[8*(v/64):], w|1<<(v%64))
	}
	return out
}

func newRangeFixture(t *testing.T, k, n int, source uint64, lo, hi int) *rangeFixture {
	t.Helper()
	cube, err := sparsehypercube.New(k, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: source}).WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}
	f := &rangeFixture{cube: cube, data: buf.Bytes(), lo: lo, hi: hi}
	f.at, err = schedio.OpenPlanAt(bytes.NewReader(f.data), int64(len(f.data)))
	if err != nil {
		t.Fatal(err)
	}
	if lo > 0 {
		head, err := f.at.Range(0, lo)
		if err != nil {
			t.Fatal(err)
		}
		f.seed = linecomm.CollectInformedStream(cube, head.Rounds())
	}
	f.span, err = f.at.RangeBytes(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	f.crc = crc32.ChecksumIEEE(f.span)
	rr, err := f.at.Range(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	f.want = linecomm.ValidateStreamSeeded(cube, k, source, f.seed, lo,
		rr.Rounds(), linecomm.DefaultOptions())
	return f
}

func (f *rangeFixture) inlineRequest() *distverify.RangeRequest {
	return &distverify.RangeRequest{
		Plan: &distverify.InlinePlan{
			K:      f.cube.K(),
			Dims:   f.cube.Dims(),
			Source: f.at.Header().Source,
			Span:   f.span,
		},
		StartRound: f.lo,
		EndRound:   f.hi,
		Seed:       f.seed,
		SpanCRC:    f.crc,
	}
}

func postRange(t *testing.T, url string, req *distverify.RangeRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return post(t, url+"/v1/ranges/verify", "application/json", body)
}

func checkRangeResponse(t *testing.T, f *rangeFixture, body []byte) {
	t.Helper()
	var rr distverify.RangeResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decoding range response %q: %v", body, err)
	}
	if rr.StartRound != f.lo || rr.EndRound != f.hi || rr.SpanCRC != f.crc || rr.SeedInformed != f.informed() {
		t.Fatalf("response echoes [%d,%d) crc %08x seeded %d, want [%d,%d) crc %08x seeded %d",
			rr.StartRound, rr.EndRound, rr.SpanCRC, rr.SeedInformed, f.lo, f.hi, f.crc, f.informed())
	}
	got, err := rr.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f.want) {
		t.Fatalf("served range Result diverges:\ngot  %+v\nwant %+v", got, f.want)
	}
}

// TestRangeVerifyInline: a self-contained range request must come back
// with exactly the local seeded validator's Result — on a clean middle
// range and on the seedless first range.
func TestRangeVerifyInline(t *testing.T) {
	ts := newTestServer(t)
	for _, split := range [][2]int{{0, 3}, {3, 7}, {9, 10}} {
		f := newRangeFixture(t, 2, 10, 3, split[0], split[1])
		resp, body := postRange(t, ts.URL, f.inlineRequest())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("range %v: status %d: %s", split, resp.StatusCode, body)
		}
		checkRangeResponse(t, f, body)
	}
}

// TestRangeVerifySeedForms: the same range sent with its seed as a
// vertex list and as a seed_bits bitmap must draw byte-identical
// responses, inline and by plan id.
func TestRangeVerifySeedForms(t *testing.T) {
	ts := newTestServer(t)
	for _, split := range [][2]int{{3, 7}, {9, 10}} {
		f := newRangeFixture(t, 2, 10, 3, split[0], split[1])
		resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", f.data)
		if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status %d: %s", resp.StatusCode, body)
		}
		var info PlanInfo
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		for _, byID := range []bool{false, true} {
			var bodies [2][]byte
			for i := range bodies {
				req := f.inlineRequest()
				if byID {
					req.Plan, req.PlanID = nil, info.ID
				}
				if i == 1 {
					req.Seed, req.SeedBits = nil, seedBits(f.cube.Order(), f.seed)
				}
				resp, bodies[i] = postRange(t, ts.URL, req)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("range %v by id %v form %d: status %d: %s", split, byID, i, resp.StatusCode, bodies[i])
				}
			}
			checkRangeResponse(t, f, bodies[0])
			if !bytes.Equal(bodies[0], bodies[1]) {
				t.Fatalf("range %v by id %v: seed forms diverge:\nlist:   %s\nbitmap: %s", split, byID, bodies[0], bodies[1])
			}
		}
	}
}

// TestRangeVerifyPlanID: the cached-plan form must serve the same
// Result off the uploaded copy's round index — in-memory and spilled.
func TestRangeVerifyPlanID(t *testing.T) {
	for _, spill := range []bool{false, true} {
		name := "memory"
		opts := []Option(nil)
		if spill {
			name, opts = "spill", []Option{WithSpillDir(t.TempDir())}
		}
		t.Run(name, func(t *testing.T) {
			ts := newTestServer(t, opts...)
			f := newRangeFixture(t, 2, 9, 1, 2, 6)
			resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", f.data)
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("upload status %d: %s", resp.StatusCode, body)
			}
			var info PlanInfo
			if err := json.Unmarshal(body, &info); err != nil {
				t.Fatal(err)
			}
			req := f.inlineRequest()
			req.Plan, req.PlanID = nil, info.ID
			resp, body = postRange(t, ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			checkRangeResponse(t, f, body)
		})
	}
}

// TestRangeVerifyViolationsTravel: a range whose rounds violate the
// model must ship every violation — kind, indices, message — exactly
// as the local validator words them.
func TestRangeVerifyViolationsTravel(t *testing.T) {
	ts := newTestServer(t)
	f := newRangeFixture(t, 1, 6, 0, 2, 6)
	// Lie about the seed: rounds [2,6) validated with an empty informed
	// set yield caller-uninformed violations — legitimately computed by
	// the worker, and they must round-trip exactly.
	f.seed = nil
	rr, err := f.at.Range(f.lo, f.hi)
	if err != nil {
		t.Fatal(err)
	}
	f.want = linecomm.ValidateStreamSeeded(f.cube, f.cube.K(), 0, nil, f.lo,
		rr.Rounds(), linecomm.DefaultOptions())
	if f.want.Valid() {
		t.Fatal("unseeded middle range produced no violations")
	}
	resp, body := postRange(t, ts.URL, f.inlineRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	checkRangeResponse(t, f, body)
}

// TestRangeVerifyRefusals: every malformed or unserveable range request
// gets the structured 4xx envelope it deserves.
func TestRangeVerifyRefusals(t *testing.T) {
	ts := newTestServer(t, WithMaxN(10))
	f := newRangeFixture(t, 2, 9, 1, 2, 6)

	// A cached gossip plan and an uncached-id baseline for the id form.
	cube := f.cube
	var gossip bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.GossipScheme{Root: 0}).WriteIndexedTo(&gossip); err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", gossip.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gossip upload status %d: %s", resp.StatusCode, body)
	}
	var gossipInfo PlanInfo
	if err := json.Unmarshal(body, &gossipInfo); err != nil {
		t.Fatal(err)
	}
	var plain bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0}).WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/plans", "application/octet-stream", plain.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("plain upload status %d: %s", resp.StatusCode, body)
	}
	var plainInfo PlanInfo
	if err := json.Unmarshal(body, &plainInfo); err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, ts.URL+"/v1/plans", "application/octet-stream", f.data)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var info PlanInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(r *distverify.RangeRequest)
		status int
		substr string
	}{
		{"both-forms", func(r *distverify.RangeRequest) { r.PlanID = info.ID }, http.StatusBadRequest, "exactly one"},
		{"neither-form", func(r *distverify.RangeRequest) { r.Plan = nil }, http.StatusBadRequest, "exactly one"},
		{"empty-range", func(r *distverify.RangeRequest) { r.StartRound, r.EndRound = 3, 3 }, http.StatusBadRequest, "empty"},
		{"negative-range", func(r *distverify.RangeRequest) { r.StartRound = -1 }, http.StatusBadRequest, "empty"},
		{"unknown-plan", func(r *distverify.RangeRequest) { r.Plan, r.PlanID = nil, "feedbeef" }, http.StatusNotFound, "unknown plan"},
		{"gossip-plan", func(r *distverify.RangeRequest) { r.Plan, r.PlanID = nil, gossipInfo.ID }, http.StatusBadRequest, "broadcast model"},
		{"unindexed-plan", func(r *distverify.RangeRequest) { r.Plan, r.PlanID = nil, plainInfo.ID }, http.StatusBadRequest, "no round index"},
		{"range-past-end", func(r *distverify.RangeRequest) { r.Plan, r.PlanID = nil, info.ID; r.EndRound = 99 }, http.StatusBadRequest, "outside"},
		{"bad-cube", func(r *distverify.RangeRequest) { r.Plan.Dims = []int{0} }, http.StatusBadRequest, "range cube"},
		{"span-crc-mismatch", func(r *distverify.RangeRequest) { r.SpanCRC ^= 1 }, http.StatusConflict, "checksum mismatch"},
		{"plan-id-crc-mismatch", func(r *distverify.RangeRequest) { r.Plan, r.PlanID = nil, info.ID; r.SpanCRC ^= 1 }, http.StatusConflict, "checksum mismatch"},
		{"seed-out-of-range", func(r *distverify.RangeRequest) { r.Seed = []uint64{cube.Order() + 3} }, http.StatusBadRequest, "seed vertex"},
		{"source-out-of-range", func(r *distverify.RangeRequest) { r.Plan.Source = cube.Order() + 1 }, http.StatusBadRequest, "source"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := f.inlineRequest()
			tc.mutate(req)
			resp, body := postRange(t, ts.URL, req)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if msg := decodeError(t, body); !strings.Contains(msg, tc.substr) {
				t.Fatalf("error %q does not mention %q", msg, tc.substr)
			}
		})
	}

	// Malformed seed_bits, on an n = 5 cube whose order (32) leaves the
	// top half of the bitmap's one word outside the cube.
	sf := newRangeFixture(t, 2, 5, 1, 2, 4)
	seedCases := []struct {
		name   string
		mutate func(r *distverify.RangeRequest)
		substr string
	}{
		{"seed-bits-wrong-length", func(r *distverify.RangeRequest) { r.Seed, r.SeedBits = nil, make([]byte, 16) }, "seed_bits holds 16 bytes"},
		{"seed-bits-beyond-order", func(r *distverify.RangeRequest) {
			r.Seed, r.SeedBits = nil, seedBits(64, append(append([]uint64(nil), sf.seed...), 40))
		}, "seed_bits sets bit 40 outside [0,32)"},
		{"seed-and-seed-bits", func(r *distverify.RangeRequest) { r.SeedBits = seedBits(32, sf.seed) }, "at most one"},
	}
	for _, tc := range seedCases {
		t.Run(tc.name, func(t *testing.T) {
			req := sf.inlineRequest()
			if len(req.Seed) == 0 {
				t.Fatal("fixture range has no seed")
			}
			tc.mutate(req)
			resp, body := postRange(t, ts.URL, req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if msg := decodeError(t, body); !strings.Contains(msg, tc.substr) {
				t.Fatalf("error %q does not mention %q", msg, tc.substr)
			}
		})
	}

	// A dimension past the served bound is refused up front.
	big := newRangeFixture(t, 2, 12, 0, 1, 4)
	resp, body = postRange(t, ts.URL, big.inlineRequest())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized cube: status %d: %s", resp.StatusCode, body)
	}
	if msg := decodeError(t, body); !strings.Contains(msg, "exceeds the served maximum") {
		t.Fatalf("oversized cube error: %q", msg)
	}

	// Corrupted span bytes that still match their claimed CRC must fail
	// the decode with a 400, not yield a Result over garbage.
	cf := newRangeFixture(t, 2, 9, 1, 2, 6)
	cf.span[0] ^= 0xff
	req := cf.inlineRequest()
	req.SpanCRC = crc32.ChecksumIEEE(cf.span)
	resp, body = postRange(t, ts.URL, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt span: status %d: %s", resp.StatusCode, body)
	}
	if msg := decodeError(t, body); !strings.Contains(msg, "range decode") {
		t.Fatalf("corrupt span error: %q", msg)
	}

	// A non-JSON body is a 400 with the envelope.
	resp, body = post(t, ts.URL+"/v1/ranges/verify", "application/json", []byte("{"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)
}
