package planserver

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/bitvec"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// rangeFixture builds everything a range-verify request needs: an
// indexed broadcast plan, its random-access view, and the span/CRC of
// rounds [lo, hi).
type rangeFixture struct {
	cube   *sparsehypercube.Cube
	data   []byte
	at     *schedio.PlanAt
	lo, hi int
	span   []byte
	crc    uint32
	want   *linecomm.OpenRange // the open validator's local verdict
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
	f.span, err = f.at.RangeBytes(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	f.crc = crc32.ChecksumIEEE(f.span)
	rr, err := f.at.Range(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	f.want = linecomm.ValidateStreamOpen(cube, k, source, lo, rr.Rounds(), linecomm.DefaultOptions())
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
	if rr.StartRound != f.lo || rr.EndRound != f.hi || rr.SpanCRC != f.crc {
		t.Fatalf("response echoes [%d,%d) crc %08x, want [%d,%d) crc %08x",
			rr.StartRound, rr.EndRound, rr.SpanCRC, f.lo, f.hi, f.crc)
	}
	got, err := rr.OpenRange(f.cube.Order())
	if err != nil {
		t.Fatal(err)
	}
	if !sameOpenRange(got, f.want) {
		t.Fatalf("served range diverges:\ngot  %+v informed %v assumed %v\nwant %+v informed %v assumed %v",
			got.Result(), words(got.Informed()), words(got.Assumed()), f.want.Result(), words(f.want.Informed()), words(f.want.Assumed()))
	}
}

// sameOpenRange reports whether two open ranges hold the same Result
// and the same informed and assumed sets (both nil, or equal words).
func sameOpenRange(a, b *linecomm.OpenRange) bool {
	return reflect.DeepEqual(a.Result(), b.Result()) &&
		slices.Equal(words(a.Informed()), words(b.Informed())) &&
		(a.Assumed() == nil) == (b.Assumed() == nil) &&
		slices.Equal(words(a.Assumed()), words(b.Assumed()))
}

// words returns a set's words, nil for a nil set.
func words(s *bitvec.Set) []uint64 {
	if s == nil {
		return nil
	}
	return s.Words()
}

// TestRangeVerifyInline: a self-contained range request must come back
// with exactly the local open validator's Result and sets — on the
// first range, which assumes nothing, on a middle range and on the last.
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

// TestRangeVerifySeedForms: a coordinator that predates the open-range
// protocol sends each range's seed — the vertices informed before it —
// as a vertex list or as a seed_bits bitmap. The worker ignores either
// form and draws a response byte-identical to the bare request's,
// inline and by plan id, so that coordinator sees no seed_informed
// echo and verifies the range itself (docs/FORMAT.md).
func TestRangeVerifySeedForms(t *testing.T) {
	ts := newTestServer(t)
	f := newRangeFixture(t, 2, 10, 3, 3, 7)
	resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", f.data)
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var info PlanInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	for _, byID := range []bool{false, true} {
		req := f.inlineRequest()
		if byID {
			req.Plan, req.PlanID = nil, info.ID
		}
		_, bare := postRange(t, ts.URL, req)
		checkRangeResponse(t, f, bare)
		for _, seed := range []string{`"seed":[1,2,3]`, `"seed_bits":"DgAAAAAAAAA="`} {
			raw, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			raw = bytes.Replace(raw, []byte(`"span_crc"`), []byte(seed+`,"span_crc"`), 1)
			resp, body := post(t, ts.URL+"/v1/ranges/verify", "application/json", raw)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, bare) {
				t.Fatalf("by id %v, %s: status %d:\n%s\nbare request drew:\n%s", byID, seed, resp.StatusCode, body, bare)
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
	// Lie about the start round: rounds [2,6) sent as [0,4) are
	// validated from the source alone, with no boundary to assume
	// callers across, and yield caller-uninformed violations —
	// legitimately computed by the worker, and they must round-trip
	// exactly.
	f.lo, f.hi = 0, 4
	rr, err := schedio.DecodeSpan(f.at.Header(), f.span, f.lo, f.hi)
	if err != nil {
		t.Fatal(err)
	}
	f.want = linecomm.ValidateStreamOpen(f.cube, f.cube.K(), 0, f.lo, rr.Rounds(), linecomm.DefaultOptions())
	if f.want.Result().Valid() {
		t.Fatal("a middle range validated from round 0 produced no violations")
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
