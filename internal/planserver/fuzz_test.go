package planserver

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/linecomm"
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
