package sparsehypercube_test

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/planserver"
	"sparsehypercube/internal/schedio"
)

// This file executes docs/FORMAT.md: the worked-example bytes embedded
// in the spec are extracted from their fenced code blocks and
// round-tripped through the real encoder and decoder. If the format
// (or the spec) changes without the other, this test fails — the spec
// cannot drift from the code unnoticed.

// docBlock extracts the contents of the first fenced code block tagged
// with lang from the spec.
func docBlock(t *testing.T, doc, lang string) string {
	t.Helper()
	marker := "```" + lang + "\n"
	i := strings.Index(doc, marker)
	if i < 0 {
		t.Fatalf("docs/FORMAT.md has no ```%s block", lang)
	}
	rest := doc[i+len(marker):]
	j := strings.Index(rest, "```")
	if j < 0 {
		t.Fatalf("unterminated ```%s block", lang)
	}
	return rest[:j]
}

// docHex decodes a whitespace-separated hex block.
func docHex(t *testing.T, doc, lang string) []byte {
	t.Helper()
	raw := strings.Join(strings.Fields(docBlock(t, doc, lang)), "")
	data, err := hex.DecodeString(raw)
	if err != nil {
		t.Fatalf("```%s block is not hex: %v", lang, err)
	}
	return data
}

// specPlan regenerates the spec's worked-example plan: minimum-time
// broadcast from 0 on the k = 1, dims = [2] cube.
func specPlan(t *testing.T) *sparsehypercube.Plan {
	t.Helper()
	cube, err := sparsehypercube.NewWithDims(1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	return cube.Plan(sparsehypercube.BroadcastScheme{Source: 0})
}

func TestFormatDocWorkedExamples(t *testing.T) {
	raw, err := os.ReadFile("docs/FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	plain := docHex(t, doc, "hex-plan")
	indexed := docHex(t, doc, "hex-plan-indexed")

	// The encoder must produce the documented bytes exactly.
	plan := specPlan(t)
	var enc bytes.Buffer
	if _, err := plan.WriteTo(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), plain) {
		t.Fatalf("WriteTo diverges from the spec's hex-plan block:\nencoder: %x\nspec:    %x", enc.Bytes(), plain)
	}
	enc.Reset()
	if _, err := plan.WriteIndexedTo(&enc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), indexed) {
		t.Fatalf("WriteIndexedTo diverges from the spec's hex-plan-indexed block:\nencoder: %x\nspec:    %x", enc.Bytes(), indexed)
	}
	// The indexed example must literally extend the plain one, as the
	// spec claims.
	if !bytes.HasPrefix(indexed, plain) {
		t.Fatal("indexed example does not extend the plain example")
	}

	// The documented bytes must decode to the documented plan — header
	// fields, rounds, calls — and verify clean.
	replay, err := sparsehypercube.ReadPlan(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if s := replay.Scheme(); s.Name() != "broadcast" || s.Origin() != 0 {
		t.Fatalf("decoded scheme %q origin %d", s.Name(), s.Origin())
	}
	if c := replay.Cube(); c.K() != 1 || !reflect.DeepEqual(c.Dims(), []int{2}) {
		t.Fatalf("decoded cube k=%d dims=%v", c.K(), c.Dims())
	}
	sched := replay.Materialize()
	if err := replay.Err(); err != nil {
		t.Fatal(err)
	}
	wantRounds := fmt.Sprint([][][]uint64{{{0, 2}}, {{0, 1}, {2, 3}}})
	var got [][][]uint64
	for _, r := range sched.Rounds {
		var round [][]uint64
		for _, c := range r {
			round = append(round, c.Path)
		}
		got = append(got, round)
	}
	if fmt.Sprint(got) != wantRounds {
		t.Fatalf("decoded rounds %v, spec documents %v", got, wantRounds)
	}

	// The indexed form replays through the random-access reader with
	// the index intact, and verifies identically at any worker count.
	at, err := sparsehypercube.ReadPlanAt(bytes.NewReader(indexed), int64(len(indexed)))
	if err != nil {
		t.Fatal(err)
	}
	if !at.Indexed() {
		t.Fatal("hex-plan-indexed lost its index")
	}
	rep := at.Verify()
	if !rep.Valid || !rep.MinimumTime || rep.Rounds != 2 || rep.MaxCallLength != 1 {
		t.Fatalf("documented plan does not verify as documented: %+v", rep)
	}
}

// TestFormatDocRangeVerify executes the spec's range-verify envelope:
// the documented request's span must be the literal bytes the real
// encoder produces for rounds [1,2) with the documented CRC; a real
// planserver worker handed the documented request, and the same
// request for rounds [0,1), must answer exactly the two documented
// responses; and the two responses must merge into the plan's local
// verification.
func TestFormatDocRangeVerify(t *testing.T) {
	raw, err := os.ReadFile("docs/FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)

	var req distverify.RangeRequest
	if err := json.Unmarshal([]byte(docBlock(t, doc, "json-range-request")), &req); err != nil {
		t.Fatalf("json-range-request block: %v", err)
	}

	// The documented span is the real encoding's bytes for that range.
	var enc bytes.Buffer
	if _, err := specPlan(t).WriteIndexedTo(&enc); err != nil {
		t.Fatal(err)
	}
	at, err := schedio.OpenPlanAt(bytes.NewReader(enc.Bytes()), int64(enc.Len()))
	if err != nil {
		t.Fatal(err)
	}
	span, err := at.RangeBytes(req.StartRound, req.EndRound)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.Plan.Span, span) {
		t.Fatalf("documented span %x, encoder produces %x", req.Plan.Span, span)
	}
	if crc := crc32.ChecksumIEEE(span); crc != req.SpanCRC {
		t.Fatalf("documented span_crc %d, real CRC %d", req.SpanCRC, crc)
	}

	// The first range's request: the documented one, moved to [0,1).
	first := req
	first.Plan = &distverify.InlinePlan{K: req.Plan.K, Dims: req.Plan.Dims, Source: req.Plan.Source}
	if first.Plan.Span, err = at.RangeBytes(0, 1); err != nil {
		t.Fatal(err)
	}
	first.StartRound, first.EndRound, first.SpanCRC = 0, 1, crc32.ChecksumIEEE(first.Plan.Span)

	// A real worker answers both requests with the documented responses,
	// compared as parsed envelopes and as compacted JSON, so neither
	// field values nor wire names can drift.
	ts := httptest.NewServer(planserver.New().Handler())
	defer ts.Close()
	var parts []*linecomm.OpenRange
	for _, tc := range []struct {
		req   distverify.RangeRequest
		block string
	}{{first, "json-range-response-first"}, {req, "json-range-response"}} {
		var want distverify.RangeResponse
		if err := json.Unmarshal([]byte(docBlock(t, doc, tc.block)), &want); err != nil {
			t.Fatalf("%s block: %v", tc.block, err)
		}
		var wantC bytes.Buffer
		if err := json.Compact(&wantC, []byte(docBlock(t, doc, tc.block))); err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/ranges/verify", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("worker refused the request for %s: %d: %s", tc.block, resp.StatusCode, got)
		}
		var gotR distverify.RangeResponse
		if err := json.Unmarshal(got, &gotR); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotR, want) {
			t.Fatalf("%s: worker answered %+v, spec documents %+v", tc.block, gotR, want)
		}
		var gotC bytes.Buffer
		if err := json.Compact(&gotC, got); err != nil {
			t.Fatal(err)
		}
		if gotC.String() != wantC.String() {
			t.Fatalf("%s: wire bytes diverged:\nworker: %s\nspec:   %s", tc.block, gotC.String(), wantC.String())
		}
		part, err := want.OpenRange(4)
		if err != nil {
			t.Fatalf("%s: %v", tc.block, err)
		}
		parts = append(parts, part)
	}

	// The documented merge: the plan verifies as a valid minimum-time
	// broadcast with the documented per-round counts.
	merged, ok := linecomm.MergeOpenRanges(4, 0, parts)
	if !ok || !merged.Valid() || !merged.MinimumTime || !reflect.DeepEqual(merged.InformedPerRound, []uint64{2, 4}) {
		t.Fatalf("documented responses merge to %+v (accepted %v)", merged, ok)
	}
}

func TestFormatDocRoundBatch(t *testing.T) {
	raw, err := os.ReadFile("docs/FORMAT.md")
	if err != nil {
		t.Fatal(err)
	}
	rounds, err := linecomm.ReadRoundBatch(strings.NewReader(docBlock(t, string(raw), "json-round-batch")))
	if err != nil {
		t.Fatal(err)
	}
	want := []linecomm.Round{
		{{Path: []uint64{0, 2}}},
		{{Path: []uint64{0, 1}}, {Path: []uint64{2, 3}}},
	}
	if !reflect.DeepEqual(rounds, want) {
		t.Fatalf("round batch decodes to %v, spec documents %v", rounds, want)
	}
}
