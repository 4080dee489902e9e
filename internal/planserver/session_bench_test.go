package planserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/linecomm"
)

// BenchmarkSessionN16 streams one k = 2, n = 16 broadcast plan through
// a session over loopback HTTP per iteration: open, four batches of
// four rounds, close. The closed session's Report must equal Plan.Verify's
// on the same plan. Bytes are the batch bodies.
func BenchmarkSessionN16(b *testing.B) {
	cube, err := sparsehypercube.New(2, 16)
	if err != nil {
		b.Fatal(err)
	}
	src := rand.New(rand.NewPCG(11, 16)).Uint64N(cube.Order())
	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: src})
	want := plan.Verify()
	sched := plan.Materialize()
	var batches [][]byte
	total := 0
	for lo := 0; lo < len(sched.Rounds); lo += 4 {
		var buf bytes.Buffer
		if err := linecomm.WriteRoundBatch(&buf, sched.Rounds[lo:min(lo+4, len(sched.Rounds))]); err != nil {
			b.Fatal(err)
		}
		batches = append(batches, buf.Bytes())
		total += buf.Len()
	}
	open := []byte(fmt.Sprintf(`{"k":2,"n":16,"source":%d}`, src))
	ts := httptest.NewServer(New().Handler())
	defer ts.Close()

	call := func(path string, body []byte, status int) []byte {
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != status {
			b.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, data)
		}
		return data
	}
	b.SetBytes(int64(total))
	b.ReportAllocs()
	for b.Loop() {
		var sr sessionResponse
		if err := json.Unmarshal(call("/v1/sessions", open, http.StatusCreated), &sr); err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			call("/v1/sessions/"+sr.ID+"/rounds", batch, http.StatusOK)
		}
		var got sparsehypercube.Report
		if err := json.Unmarshal(call("/v1/sessions/"+sr.ID+"/close", nil, http.StatusOK), &got); err != nil {
			b.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			b.Fatalf("session report diverges from Plan.Verify:\ngot  %+v\nwant %+v", got, want)
		}
	}
}
