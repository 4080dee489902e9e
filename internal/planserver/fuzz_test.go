package planserver

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// FuzzSessionRounds drives the session endpoints through Handler with
// arbitrary batch bodies: open a k = 2, n = 6 broadcast session from a
// fuzzed source, post one or two fuzzed batches, close. No body may
// panic the server or draw a 5xx. Each batch must be accepted exactly
// when it fits the upload cap and encoding/json decodes it into a valid
// envelope, and the close Report must equal the in-process verification
// of the rounds the accepted batches carried.
func FuzzSessionRounds(f *testing.F) {
	const limit = 4096
	cube, err := sparsehypercube.New(2, 6)
	if err != nil {
		f.Fatal(err)
	}
	sched := cube.Plan(sparsehypercube.BroadcastScheme{Source: 5}).Materialize()
	encode := func(rounds [][]sparsehypercube.Call) []byte {
		batch := make([]linecomm.Round, len(rounds))
		for i, round := range rounds {
			for _, c := range round {
				batch[i] = append(batch[i], linecomm.Call(c))
			}
		}
		var buf bytes.Buffer
		if err := linecomm.WriteRoundBatch(&buf, batch); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	half := len(sched.Rounds) / 2
	f.Add(uint8(5), encode(sched.Rounds), []byte(nil))
	f.Add(uint8(5), encode(sched.Rounds[:half]), encode(sched.Rounds[half:]))
	f.Add(uint8(9), encode(sched.Rounds[half:]), encode(sched.Rounds[:half]))
	f.Add(uint8(5), []byte(`{"Rounds":[[[5,4]]],"x":1} trailing`), []byte(`{"rounds":[[[5]]]}`))
	f.Add(uint8(0), []byte(`{"rounds":[[[0,1e2]]]}`), []byte(`{"rounds":[[[0,18446744073709551615]]]}`))
	f.Add(uint8(0), []byte(`{"rounds":null}`), []byte(`{"rounds":[[[0,1]],[]]}`))

	srv := New(WithMaxUpload(limit))
	f.Cleanup(srv.Close)
	h := srv.Handler()
	do := func(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		return rec
	}

	f.Fuzz(func(t *testing.T, srcRaw uint8, first, second []byte) {
		src := uint64(srcRaw) % cube.Order()
		open, err := json.Marshal(sessionRequest{K: 2, N: 6, Source: src})
		if err != nil {
			t.Fatal(err)
		}
		rec := do(t, "/v1/sessions", open)
		var sr sessionResponse
		if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &sr) != nil {
			t.Fatalf("open: status %d: %s", rec.Code, rec.Body)
		}

		accepted := sparsehypercube.Schedule{Source: src}
		bodies := [][]byte{first}
		if len(second) > 0 {
			bodies = append(bodies, second)
		}
		for _, body := range bodies {
			rounds, valid := referenceBatch(body)
			want := http.StatusOK
			switch {
			case len(body) > limit:
				want = http.StatusRequestEntityTooLarge
			case !valid:
				want = http.StatusBadRequest
			}
			rec := do(t, "/v1/sessions/"+sr.ID+"/rounds", body)
			if rec.Code != want {
				t.Fatalf("batch %q: status %d, want %d: %s", body, rec.Code, want, rec.Body)
			}
			if want == http.StatusOK {
				accepted.Rounds = append(accepted.Rounds, rounds...)
			}
		}

		rec = do(t, "/v1/sessions/"+sr.ID+"/close", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("close: status %d: %s", rec.Code, rec.Body)
		}
		direct := cube.Plan(sparsehypercube.RoundScheme("broadcast", src, accepted.Stream())).Verify()
		wantJSON, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		var got, want sparsehypercube.Report
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("close body %q: %v", rec.Body, err)
		}
		if err := json.Unmarshal(wantJSON, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session report diverges from in-process verify:\ngot  %+v\nwant %+v", got, want)
		}
	})
}

// referenceBatch decodes a round batch the way the wire contract is
// defined — encoding/json into the envelope, every path at least two
// vertices — independently of linecomm's scanner.
func referenceBatch(body []byte) ([][]sparsehypercube.Call, bool) {
	var in struct {
		Rounds [][][]uint64 `json:"rounds"`
	}
	if json.NewDecoder(bytes.NewReader(body)).Decode(&in) != nil {
		return nil, false
	}
	out := make([][]sparsehypercube.Call, len(in.Rounds))
	for i, round := range in.Rounds {
		out[i] = make([]sparsehypercube.Call, len(round))
		for j, path := range round {
			if len(path) < 2 {
				return nil, false
			}
			out[i][j] = sparsehypercube.Call{Path: path}
		}
	}
	return out, true
}

// FuzzRangeVerify drives POST /v1/ranges/verify through Handler with
// fuzzed envelopes against a k = 2, n = 5 broadcast plan the worker has
// cached. The low mode bits pick the envelope's shape: inline span or
// cached plan_id, the plan's real span or fuzzed bytes (through
// schedio.DecodeSpan), or a raw fuzzed body; the top three pick the
// inline source. No request may panic the server or draw a 5xx. A
// shaped request must be accepted exactly when referenceRange accepts
// it, and every 200 must carry the in-process ValidateStreamOpen part
// over the same span: its Result, its informed_bits and, past round 0,
// its assumed_bits.
func FuzzRangeVerify(f *testing.F) {
	const source = 5
	cube, err := sparsehypercube.New(2, 5)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: source}).WriteIndexedTo(&buf); err != nil {
		f.Fatal(err)
	}
	at, err := schedio.OpenPlanAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		f.Fatal(err)
	}

	srv := New(WithMaxN(6))
	f.Cleanup(srv.Close)
	h := srv.Handler()
	do := func(t testing.TB, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/ranges/verify", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("range request %q: status %d: %s", body, rec.Code, rec.Body)
		}
		return rec
	}
	up := httptest.NewRecorder()
	h.ServeHTTP(up, httptest.NewRequest(http.MethodPost, "/v1/plans", bytes.NewReader(buf.Bytes())))
	var info PlanInfo
	if up.Code != http.StatusCreated || json.Unmarshal(up.Body.Bytes(), &info) != nil {
		f.Fatalf("upload: status %d: %s", up.Code, up.Body)
	}

	span01, err := at.RangeBytes(0, 1)
	if err != nil {
		f.Fatal(err)
	}
	span24, err := at.RangeBytes(2, 4)
	if err != nil {
		f.Fatal(err)
	}
	raw, err := json.Marshal(distverify.RangeRequest{PlanID: info.ID, StartRound: 2, EndRound: 4,
		SpanCRC: crc32.ChecksumIEEE(span24)})
	if err != nil {
		f.Fatal(err)
	}
	// An envelope from a coordinator that still sends a seed: the worker
	// ignores the unknown field and answers the open range.
	legacy := bytes.Replace(raw, []byte(`"span_crc"`), []byte(`"seed_bits":"IAAAAAAAAAA=","span_crc"`), 1)
	f.Add(uint8(0), uint8(2), uint8(4), []byte(nil))
	f.Add(uint8(1), uint8(2), uint8(4), []byte(nil))
	f.Add(uint8(1), uint8(2), uint8(5), []byte(nil))
	f.Add(uint8(0), uint8(0), uint8(5), []byte(nil))
	f.Add(uint8(2), uint8(0), uint8(1), span01)
	f.Add(uint8(2), uint8(2), uint8(4), span24)
	f.Add(uint8(2), uint8(0), uint8(2), span24)
	f.Add(uint8(0x20), uint8(2), uint8(4), []byte(nil))
	f.Add(uint8(4), uint8(0), uint8(0), raw)
	f.Add(uint8(4), uint8(0), uint8(0), legacy)

	f.Fuzz(func(t *testing.T, mode, lo, hi uint8, data []byte) {
		body := data
		if mode&4 == 0 {
			req := distverify.RangeRequest{StartRound: int(lo), EndRound: int(hi)}
			span, err := at.RangeBytes(int(lo), int(hi))
			if mode&2 != 0 || err != nil {
				span = data
			}
			req.SpanCRC = crc32.ChecksumIEEE(span)
			if mode&1 != 0 {
				req.PlanID = info.ID
			} else {
				req.Plan = &distverify.InlinePlan{K: 2, Dims: cube.Dims(), Source: uint64(mode>>5) * 5, Span: span}
			}
			if body, err = json.Marshal(req); err != nil {
				t.Fatal(err)
			}
		}
		rec := do(t, body)
		var req distverify.RangeRequest
		jsonErr := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		want, ok := referenceRange(at, info.ID, &req)
		ok = ok && jsonErr == nil
		switch {
		case rec.Code == http.StatusOK && !ok:
			t.Fatalf("accepted %s, which the reference refuses", body)
		case rec.Code != http.StatusOK && ok && mode&4 == 0:
			t.Fatalf("refused %s: status %d: %s", body, rec.Code, rec.Body)
		case rec.Code != http.StatusOK:
			return
		}
		var rr distverify.RangeResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
			t.Fatalf("response %q: %v", rec.Body, err)
		}
		if rr.StartRound != req.StartRound || rr.EndRound != req.EndRound || rr.SpanCRC != req.SpanCRC {
			t.Fatalf("response echoes [%d,%d) crc %08x, request [%d,%d) crc %08x",
				rr.StartRound, rr.EndRound, rr.SpanCRC, req.StartRound, req.EndRound, req.SpanCRC)
		}
		got, err := rr.OpenRange(cube.Order())
		if err != nil {
			t.Fatalf("response %s: %v", rec.Body, err)
		}
		if !sameOpenRange(got, want) {
			t.Fatalf("served range diverges from in-process verify of %s:\ngot  %+v %v %v\nwant %+v %v %v", body,
				got.Result(), words(got.Informed()), words(got.Assumed()), want.Result(), words(want.Informed()), words(want.Assumed()))
		}
	})
}

// referenceRange judges a range request the way the wire contract is
// defined, independently of the handler: the open validator's part
// over the request's span, and whether a worker caching only the plan
// at (under id, served up to n = 6) must accept the request at all.
func referenceRange(at *schedio.PlanAt, id string, req *distverify.RangeRequest) (*linecomm.OpenRange, bool) {
	lo, hi := req.StartRound, req.EndRound
	if (req.PlanID == "") == (req.Plan == nil) || lo < 0 || lo >= hi {
		return nil, false
	}
	h := at.Header()
	var span []byte
	if req.PlanID != "" {
		var err error
		if span, err = at.RangeBytes(lo, hi); req.PlanID != id || err != nil {
			return nil, false
		}
	} else {
		h = schedio.Header{K: req.Plan.K, Dims: req.Plan.Dims, Scheme: "broadcast", Source: req.Plan.Source}
		span = req.Plan.Span
	}
	cube, err := sparsehypercube.NewWithDims(h.K, h.Dims)
	if err != nil || cube.N() > 6 || h.Source >= cube.Order() || crc32.ChecksumIEEE(span) != req.SpanCRC {
		return nil, false
	}
	rr, err := schedio.DecodeSpan(h, span, lo, hi)
	if err != nil {
		return nil, false
	}
	part := linecomm.ValidateStreamOpen(cube, cube.K(), h.Source, lo, rr.Rounds(), linecomm.DefaultOptions())
	if rr.Err() != nil {
		return nil, false
	}
	return part, true
}
