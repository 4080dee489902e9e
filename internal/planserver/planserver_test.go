package planserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/linecomm"
)

func newTestServer(t *testing.T, opts ...Option) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(opts...).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func decodeReport(t *testing.T, data []byte) sparsehypercube.Report {
	t.Helper()
	var rep sparsehypercube.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decoding report %q: %v", data, err)
	}
	return rep
}

func decodeError(t *testing.T, data []byte) string {
	t.Helper()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error envelope not JSON: %q: %v", data, err)
	}
	if e.Error == "" {
		t.Fatalf("error envelope empty: %q", data)
	}
	return e.Error
}

// TestOneShotVerifyMatchesDirect is the end-to-end service acceptance:
// a gossip plan written with WriteTo, POSTed to the service, must come
// back with a Report DeepEqual to in-process plan.Verify().
func TestOneShotVerifyMatchesDirect(t *testing.T) {
	cube, err := sparsehypercube.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(sparsehypercube.GossipScheme{Root: 3})
	direct := plan.Verify()
	if !direct.Valid || !direct.Complete {
		t.Fatalf("baseline gossip report broken: %+v", direct)
	}
	var buf bytes.Buffer
	if _, err := plan.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/verify", "application/octet-stream", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := decodeReport(t, body); !reflect.DeepEqual(got, direct) {
		t.Fatalf("served report diverges:\ngot  %+v\nwant %+v", got, direct)
	}
}

// TestOneShotVerifyCorrupted: a corrupted upload yields a structured
// error (or a structured invalid Report for post-header corruption) —
// never a 500.
func TestOneShotVerifyCorrupted(t *testing.T) {
	cube, err := sparsehypercube.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ts := newTestServer(t)

	// Corrupt header: structured 400.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] ^= 0xff
	resp, body := post(t, ts.URL+"/v1/verify", "application/octet-stream", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt magic: status %d: %s", resp.StatusCode, body)
	}
	if msg := decodeError(t, body); !strings.Contains(msg, "invalid plan") {
		t.Fatalf("corrupt magic error: %q", msg)
	}

	// Corrupt body: the decode failure folds into the Report as a replay
	// violation — a definitive verification answer, still not a 500.
	bad = append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/2] ^= 0x01
	resp, body = post(t, ts.URL+"/v1/verify", "application/octet-stream", bad)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("corrupt body: status %d: %s", resp.StatusCode, body)
	}
	rep := decodeReport(t, body)
	if rep.Valid {
		t.Fatalf("corrupt body verified: %+v", rep)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "replay:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupt body report lacks replay violation: %+v", rep)
	}

	// Truly empty body: structured 400.
	resp, body = post(t, ts.URL+"/v1/verify", "application/octet-stream", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body: status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)
}

// TestCachedPlanConcurrentVerify is the serving acceptance criterion:
// 64 concurrent verification sessions over one cached plan file, every
// response byte-identical, every Report DeepEqual to in-process
// plan.Verify().
func TestCachedPlanConcurrentVerify(t *testing.T) {
	cube, err := sparsehypercube.New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: 5})
	direct := plan.Verify()
	var buf bytes.Buffer
	if _, err := plan.WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}

	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", buf.Bytes())
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}
	var info PlanInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	if info.Scheme != "broadcast" || info.Source != 5 || info.Rounds != 10 || !info.Indexed {
		t.Fatalf("plan info: %+v", info)
	}

	// Re-uploading the same bytes dedupes onto the same cached entry.
	resp, body = post(t, ts.URL+"/v1/plans", "application/octet-stream", buf.Bytes())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-upload status %d: %s", resp.StatusCode, body)
	}
	var again PlanInfo
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID != info.ID {
		t.Fatalf("re-upload changed id: %s != %s", again.ID, info.ID)
	}

	const verifiers = 64
	bodies := make([][]byte, verifiers)
	var wg sync.WaitGroup
	errs := make(chan error, verifiers)
	url := ts.URL + "/v1/plans/" + info.ID + "/verify"
	for g := 0; g < verifiers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			resp, err := http.Post(url, "application/json", nil)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("verifier %d: status %d: %s", g, resp.StatusCode, data)
				return
			}
			bodies[g] = data
			errs <- nil
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for g := 1; g < verifiers; g++ {
		if !bytes.Equal(bodies[g], bodies[0]) {
			t.Fatalf("verifier %d response differs from verifier 0:\n%s\n%s", g, bodies[g], bodies[0])
		}
	}
	if got := decodeReport(t, bodies[0]); !reflect.DeepEqual(got, direct) {
		t.Fatalf("served report diverges from direct Verify:\ngot  %+v\nwant %+v", got, direct)
	}

	// Metadata round-trips; deleting frees the id; verify then 404s.
	resp, body = post(t, ts.URL+"/v1/plans/nonesuch/verify", "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown plan verify status %d: %s", resp.StatusCode, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	resp, body = post(t, url, "application/json", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("verify-after-delete status %d: %s", resp.StatusCode, body)
	}
}

// TestCachedPlanUploadCorrupted: upload validation happens once, at
// upload time, with a structured error.
func TestCachedPlanUploadCorrupted(t *testing.T) {
	cube, err := sparsehypercube.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0}).WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf.Bytes()...)
	bad[len(bad)/3] ^= 0x10

	ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if msg := decodeError(t, body); !strings.Contains(msg, "invalid plan") {
		t.Fatalf("error: %q", msg)
	}
}

// TestUploadTooLarge: the size cap answers with 413 and the envelope —
// on the cache endpoint, and on one-shot verify even when the limit
// trips mid-stream after a well-formed header (a size-policy failure
// must never come back as a definitive valid:false Report).
func TestUploadTooLarge(t *testing.T) {
	ts := newTestServer(t, WithMaxUpload(64))
	resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", make([]byte, 65))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)

	cube, err := sparsehypercube.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 64 {
		t.Fatalf("test plan too small to trip the cap: %d bytes", buf.Len())
	}
	resp, body = post(t, ts.URL+"/v1/verify", "application/octet-stream", buf.Bytes())
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("one-shot over-limit status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)
}

// TestJSONBodyOverLimit: a JSON body past the upload cap answers 413 on
// every JSON endpoint, even when its value closes before the cap and
// only padding runs past it (the JSON decoders stop reading at the
// value's end). A session whose batch drew the 413 still accepts valid
// batches and closes with the in-process Report.
func TestJSONBodyOverLimit(t *testing.T) {
	const limit = 64
	ts := newTestServer(t, WithMaxUpload(limit))
	cube, err := sparsehypercube.New(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: 1})
	direct, sched := plan.Verify(), plan.Materialize()

	const open = `{"k":2,"n":2,"source":1}`
	resp, body := post(t, ts.URL+"/v1/sessions", "application/json", []byte(open))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	padding := strings.Repeat(" ", 200)
	for _, tc := range []struct{ name, path, value string }{
		{"session open", "/v1/sessions", open},
		{"session rounds", "/v1/sessions/" + sr.ID + "/rounds", `{"rounds":[]}`},
		{"range verify", "/v1/ranges/verify", `{"plan_id":"p","start_round":0,"end_round":1}`},
	} {
		if len(tc.value) >= limit {
			t.Fatalf("%s: value of %d bytes does not close before the %d-byte cap", tc.name, len(tc.value), limit)
		}
		resp, body := post(t, ts.URL+tc.path, "application/json", []byte(tc.value+padding))
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: %d-byte body over a %d-byte cap: status %d: %s", tc.name, len(tc.value+padding), limit, resp.StatusCode, body)
			continue
		}
		decodeError(t, body)
	}

	streamSessionRounds(t, ts.URL+"/v1/sessions/"+sr.ID+"/rounds", sched, 1)
	resp, body = post(t, ts.URL+"/v1/sessions/"+sr.ID+"/close", "application/json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d: %s", resp.StatusCode, body)
	}
	if got := decodeReport(t, body); !reflect.DeepEqual(got, direct) {
		t.Fatalf("session report diverges:\ngot  %+v\nwant %+v", got, direct)
	}
}

// TestServedBounds pins the resource bounds: a tiny upload naming a
// cube past the dimension bound is refused on every entry point (the
// validator's state scales with declared order, not upload size), and
// opens past the session cap answer 429.
func TestServedBounds(t *testing.T) {
	ts := newTestServer(t, WithMaxN(10), WithMaxSessions(2))

	cube, err := sparsehypercube.New(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0}).WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []string{"/v1/verify", "/v1/plans"} {
		resp, body := post(t, ts.URL+ep, "application/octet-stream", buf.Bytes())
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s with n=12 under MaxN=10: status %d: %s", ep, resp.StatusCode, body)
		}
		if msg := decodeError(t, body); !strings.Contains(msg, "exceeds the served maximum") {
			t.Fatalf("%s error: %q", ep, msg)
		}
	}
	resp, body := post(t, ts.URL+"/v1/sessions", "application/json", []byte(`{"k":2,"n":12}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("session n=12 under MaxN=10: status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)

	// Session cap: the third concurrent open is refused, and closing one
	// frees the slot.
	var ids []string
	for i := 0; i < 2; i++ {
		resp, body := post(t, ts.URL+"/v1/sessions", "application/json", []byte(`{"k":2,"n":8}`))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("open %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr sessionResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sr.ID)
	}
	resp, body = post(t, ts.URL+"/v1/sessions", "application/json", []byte(`{"k":2,"n":8}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap open: status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)
	resp, _ = post(t, ts.URL+"/v1/sessions/"+ids[0]+"/close", "application/json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	resp, body = post(t, ts.URL+"/v1/sessions", "application/json", []byte(`{"k":2,"n":8}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open after close: status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{ids[1], sr.ID} {
		post(t, ts.URL+"/v1/sessions/"+id+"/close", "application/json", nil)
	}
}

// streamSessionRounds POSTs a materialised schedule's rounds to a
// session in batches of batchSize.
func streamSessionRounds(t *testing.T, url string, sched *sparsehypercube.Schedule, batchSize int) {
	t.Helper()
	for lo := 0; lo < len(sched.Rounds); lo += batchSize {
		hi := min(lo+batchSize, len(sched.Rounds))
		batch := make([]linecomm.Round, 0, hi-lo)
		for _, round := range sched.Rounds[lo:hi] {
			r := make(linecomm.Round, len(round))
			for i, c := range round {
				r[i] = linecomm.Call{Path: c.Path}
			}
			batch = append(batch, r)
		}
		var buf bytes.Buffer
		if err := linecomm.WriteRoundBatch(&buf, batch); err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, url, "application/json", buf.Bytes())
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rounds status %d: %s", resp.StatusCode, body)
		}
	}
}

// TestSessionRoundTrip: an incremental session fed round batches closes
// to the same Report the equivalent whole-plan verification produces —
// for the broadcast model and the gossip model.
func TestSessionRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct {
		name   string
		scheme string
		open   string
	}{
		{"broadcast", "broadcast", `{"k":2,"n":9,"scheme":"broadcast","source":3}`},
		{"gossip", "gossip", `{"k":2,"n":9,"scheme":"gossip","source":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cube, err := sparsehypercube.New(2, 9)
			if err != nil {
				t.Fatal(err)
			}
			var direct sparsehypercube.Report
			var sched *sparsehypercube.Schedule
			if tc.scheme == "gossip" {
				plan := cube.Plan(sparsehypercube.GossipScheme{Root: 3})
				direct = plan.Verify()
				sched = plan.Materialize()
			} else {
				plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: 3})
				direct = plan.Verify()
				sched = plan.Materialize()
			}

			resp, body := post(t, ts.URL+"/v1/sessions", "application/json", []byte(tc.open))
			if resp.StatusCode != http.StatusCreated {
				t.Fatalf("open status %d: %s", resp.StatusCode, body)
			}
			var sr sessionResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}

			streamSessionRounds(t, ts.URL+"/v1/sessions/"+sr.ID+"/rounds", sched, 3)

			resp, body = post(t, ts.URL+"/v1/sessions/"+sr.ID+"/close", "application/json", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("close status %d: %s", resp.StatusCode, body)
			}
			if got := decodeReport(t, body); !reflect.DeepEqual(got, direct) {
				t.Fatalf("session report diverges:\ngot  %+v\nwant %+v", got, direct)
			}

			// The session is gone once closed.
			resp, body = post(t, ts.URL+"/v1/sessions/"+sr.ID+"/close", "application/json", nil)
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("re-close status %d: %s", resp.StatusCode, body)
			}
		})
	}
}

// TestSessionErrors: malformed opens, batches, and targets all answer
// with structured 4xx envelopes.
func TestSessionErrors(t *testing.T) {
	ts := newTestServer(t)

	resp, body := post(t, ts.URL+"/v1/sessions", "application/json", []byte(`{"k":0,"n":-3}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad cube status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)

	resp, body = post(t, ts.URL+"/v1/sessions", "application/json", []byte(`{not json`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad json status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)

	resp, body = post(t, ts.URL+"/v1/sessions/nonesuch/rounds", "application/json", []byte(`{"rounds":[]}`))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)

	resp, body = post(t, ts.URL+"/v1/sessions", "application/json", []byte(`{"k":2,"n":8}`))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("open status %d: %s", resp.StatusCode, body)
	}
	var sr sessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// A single-vertex path is structurally invalid at the envelope.
	resp, body = post(t, ts.URL+"/v1/sessions/"+sr.ID+"/rounds", "application/json",
		[]byte(`{"rounds":[[[5]]]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status %d: %s", resp.StatusCode, body)
	}
	decodeError(t, body)
	// The session survives a rejected batch and still closes cleanly.
	resp, body = post(t, ts.URL+"/v1/sessions/"+sr.ID+"/close", "application/json", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close status %d: %s", resp.StatusCode, body)
	}
	// An empty stream carries no violations but cannot be complete.
	rep := decodeReport(t, body)
	if rep.Complete || rep.Rounds != 0 {
		t.Fatalf("empty broadcast session reported complete: %+v", rep)
	}
}
