package distverify_test

// External test package on purpose: these tests stand up real
// planserver fleets over httptest, and distverify itself must not
// import planserver (planserver imports distverify's wire types).

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sparsehypercube"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/planserver"
	"sparsehypercube/internal/schedio"
)

// fleet starts n planserver workers and returns their base URLs.
func fleet(t *testing.T, n int) ([]string, []*httptest.Server) {
	t.Helper()
	urls := make([]string, n)
	servers := make([]*httptest.Server, n)
	for i := range n {
		ts := httptest.NewServer(planserver.New().Handler())
		t.Cleanup(ts.Close)
		urls[i], servers[i] = ts.URL, ts
	}
	return urls, servers
}

func indexedPlanBytes(t *testing.T, cube *sparsehypercube.Cube, src uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: src}).WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// localReport is the single-process baseline the distributed Report
// must be byte-identical to.
func localReport(t *testing.T, data []byte) sparsehypercube.Report {
	t.Helper()
	plan, err := sparsehypercube.ReadPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	return plan.Verify()
}

// checkIdentical asserts the acceptance criterion both ways: DeepEqual
// on the Report values and equality of their JSON wire bytes.
func checkIdentical(t *testing.T, want, got sparsehypercube.Report, format string, args ...any) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf(format+": Report diverges:\nlocal:       %+v\ndistributed: %+v", append(args, want, got)...)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatalf(format+": response bytes diverge:\nlocal:       %s\ndistributed: %s", append(args, wb, gb)...)
	}
}

// TestDistVerifyMatchesLocal is the tentpole acceptance gate: for
// k ∈ {1,2,3}, intact plans fanned over fleets of one and three
// workers — inline and plan-upload modes — must stitch to the exact
// single-process Report.
func TestDistVerifyMatchesLocal(t *testing.T) {
	for _, kn := range [][2]int{{1, 6}, {2, 10}, {3, 12}} {
		k, n := kn[0], kn[1]
		cube, err := sparsehypercube.New(k, n)
		if err != nil {
			t.Fatal(err)
		}
		data := indexedPlanBytes(t, cube, cube.Order()/3)
		want := localReport(t, data)
		if !want.Valid || !want.MinimumTime {
			t.Fatalf("k=%d: intact plan did not verify locally: %+v", k, want)
		}
		for _, workers := range []int{1, 3} {
			urls, _ := fleet(t, workers)
			for _, upload := range []bool{false, true} {
				opts := []distverify.Option{distverify.WithLogf(t.Logf)}
				if upload {
					opts = append(opts, distverify.WithPlanUpload())
				}
				c, err := distverify.New(urls, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Verify(context.Background(), data)
				if err != nil {
					t.Fatalf("k=%d workers=%d upload=%v: %v", k, workers, upload, err)
				}
				checkIdentical(t, want, got, "k=%d workers=%d upload=%v", k, workers, upload)
			}
		}
	}
}

// mutateSchedule applies one named structural corruption, mirroring the
// facade's parallel-verify test catalogue (cross-range effects on
// purpose).
func mutateSchedule(name string, s *sparsehypercube.Schedule, order uint64) {
	last := len(s.Rounds) - 1
	switch name {
	case "drop-middle-call":
		mid := s.Rounds[last/2]
		s.Rounds[last/2] = mid[:len(mid)-1]
	case "duplicate-call":
		r := s.Rounds[last/2]
		s.Rounds[last/2] = append(r, r[0])
	case "retarget-receiver":
		r := s.Rounds[last]
		if len(r) >= 2 {
			r[1].Path[len(r[1].Path)-1] = r[0].Path[len(r[0].Path)-1]
		}
	case "overlong-call":
		c := &s.Rounds[last][0]
		tail := c.Path[len(c.Path)-1]
		c.Path = append(c.Path, tail^1, tail^1^2)
	case "out-of-range-vertex":
		c := &s.Rounds[last/2][0]
		c.Path[len(c.Path)-1] = order + 7
	case "uninformed-early-caller":
		c := s.Rounds[last][0]
		s.Rounds[last] = s.Rounds[last][1:]
		s.Rounds[0] = append(s.Rounds[0], c)
	case "junk-heavy-first-round":
		// Calls off the cube inform nobody, so the byte-balanced split
		// cuts early ranges whose seeds are tiny.
		for i := range uint64(2000) {
			s.Rounds[0] = append(s.Rounds[0], sparsehypercube.Call{Path: []uint64{order + i, order + i + 1}})
		}
	}
}

func mutatedPlanBytes(t *testing.T, cube *sparsehypercube.Cube, src uint64, name string) []byte {
	t.Helper()
	s := cube.Plan(sparsehypercube.BroadcastScheme{Source: src}).Materialize()
	mutateSchedule(name, s, cube.Order())
	inner := &linecomm.Schedule{Source: s.Source, Rounds: make([]linecomm.Round, len(s.Rounds))}
	for i, round := range s.Rounds {
		inner.Rounds[i] = make(linecomm.Round, len(round))
		for j, c := range round {
			inner.Rounds[i][j] = linecomm.Call{Path: c.Path}
		}
	}
	var buf bytes.Buffer
	h := schedio.Header{K: cube.K(), Dims: cube.Dims(), Scheme: "broadcast", Source: src}
	if _, err := schedio.EncodeIndexed(&buf, h, inner); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDistVerifyMutatedPlans: semantically broken plans must stitch to
// byte-identical Reports — violations, their order and messages
// included — for k ∈ {1,2,3}.
func TestDistVerifyMutatedPlans(t *testing.T) {
	names := []string{"drop-middle-call", "duplicate-call", "retarget-receiver",
		"overlong-call", "out-of-range-vertex", "uninformed-early-caller", "junk-heavy-first-round"}
	urls, _ := fleet(t, 3)
	for _, kn := range [][2]int{{1, 6}, {2, 9}, {3, 12}} {
		k, n := kn[0], kn[1]
		cube, err := sparsehypercube.New(k, n)
		if err != nil {
			t.Fatal(err)
		}
		c, err := distverify.New(urls)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			data := mutatedPlanBytes(t, cube, 1, name)
			want := localReport(t, data)
			if want.Valid && want.Complete && want.MinimumTime {
				t.Fatalf("k=%d %s: mutation went undetected", k, name)
			}
			got, err := c.Verify(context.Background(), data)
			if err != nil {
				t.Fatalf("k=%d %s: %v", k, name, err)
			}
			checkIdentical(t, want, got, "k=%d %s", k, name)
		}
	}
}

// TestDistVerifyCorruptedPlans: random byte corruption anywhere in the
// file must leave the distributed Report identical to the local one —
// the structural pass catches the anomaly and defers to the local
// authoritative pass.
func TestDistVerifyCorruptedPlans(t *testing.T) {
	cube, err := sparsehypercube.New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 3)
	urls, _ := fleet(t, 2)
	c, err := distverify.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		mut := append([]byte(nil), data...)
		off := rng.Intn(len(mut))
		mut[off] ^= byte(1 + rng.Intn(255))
		plan, lerr := sparsehypercube.ReadPlanAt(bytes.NewReader(mut), int64(len(mut)))
		got, derr := c.Verify(context.Background(), mut)
		if (lerr == nil) != (derr == nil) {
			t.Fatalf("trial %d (offset %d): open split: local err %v, distributed err %v", trial, off, lerr, derr)
		}
		if lerr != nil {
			continue // corruption caught at open time, identically
		}
		checkIdentical(t, plan.Verify(), got, "trial %d (offset %d)", trial, off)
	}
}

// flakyHandler wraps a worker with an injected fault on its range
// endpoint.
func flakyHandler(inner http.Handler, fault func(w http.ResponseWriter, r *http.Request, body []byte) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/ranges/verify" {
			inner.ServeHTTP(w, r)
			return
		}
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		if fault(w, r, body) {
			return // fault consumed the request
		}
		inner.ServeHTTP(w, r)
	})
}

// rewriteResponse proxies a range request to the real handler and lets
// the fault rewrite the JSON response before it leaves.
func rewriteResponse(inner http.Handler, rewrite func(m map[string]any)) func(w http.ResponseWriter, r *http.Request, body []byte) bool {
	return func(w http.ResponseWriter, r *http.Request, body []byte) bool {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(rec.Body.Bytes())
			return true
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return true
		}
		rewrite(m)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m)
		return true
	}
}

// TestDistVerifyWorkerFaults: the acceptance criterion under injected
// faults — timeouts, mid-run crashes, corrupt span CRCs, responses for
// the wrong range, a fully dead fleet — retries, reassignment, or the
// local fallback must still produce the byte-identical Report.
func TestDistVerifyWorkerFaults(t *testing.T) {
	cube, err := sparsehypercube.New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 5)
	want := localReport(t, data)
	mutated := mutatedPlanBytes(t, cube, 5, "uninformed-early-caller")
	wantMutated := localReport(t, mutated)

	opts := func(extra ...distverify.Option) []distverify.Option {
		return append([]distverify.Option{
			distverify.WithRequestTimeout(500 * time.Millisecond),
			distverify.WithBackoff(10 * time.Millisecond),
			distverify.WithLogf(t.Logf),
		}, extra...)
	}

	t.Run("timeout", func(t *testing.T) {
		urls, _ := fleet(t, 2)
		// Hold every request until the client gives up. The body must be
		// drained first — the server only notices a client abort through
		// its background read, which waits for the body to be consumed —
		// and the release channel unblocks stragglers so Close can finish.
		release := make(chan struct{})
		hang := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-release:
			}
		}))
		t.Cleanup(func() {
			close(release)
			hang.Close()
		})
		c, err := distverify.New(append(urls, hang.URL), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Verify(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, want, got, "hanging worker")
	})

	t.Run("killed-mid-run", func(t *testing.T) {
		urls, _ := fleet(t, 2)
		victim := planserver.New().Handler()
		var served atomic.Int64
		var kill sync.Once
		var vs *httptest.Server
		vs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if served.Add(1) > 1 {
				// Die mid-run: drop the connection without a response and
				// refuse everything after.
				kill.Do(func() { go vs.CloseClientConnections() })
				panic(http.ErrAbortHandler)
			}
			victim.ServeHTTP(w, r)
		}))
		t.Cleanup(vs.Close)
		c, err := distverify.New(append(urls, vs.URL), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Verify(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, want, got, "killed worker")
	})

	t.Run("corrupt-span-crc", func(t *testing.T) {
		urls, _ := fleet(t, 2)
		inner := planserver.New().Handler()
		bad := httptest.NewServer(flakyHandler(inner, rewriteResponse(inner, func(m map[string]any) {
			m["span_crc"] = float64(12345)
		})))
		t.Cleanup(bad.Close)
		c, err := distverify.New(append(urls, bad.URL), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Verify(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, want, got, "corrupt span crc")
	})

	t.Run("wrong-range-response", func(t *testing.T) {
		// A worker answering for the wrong range must be rejected, not
		// merged — run it against the mutated plan so a mis-merge would
		// visibly scramble the violations.
		urls, _ := fleet(t, 2)
		inner := planserver.New().Handler()
		bad := httptest.NewServer(flakyHandler(inner, rewriteResponse(inner, func(m map[string]any) {
			m["start_round"] = m["start_round"].(float64) + 1
			m["end_round"] = m["end_round"].(float64) + 1
		})))
		t.Cleanup(bad.Close)
		c, err := distverify.New(append(urls, bad.URL), opts()...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Verify(context.Background(), mutated)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, wantMutated, got, "wrong-range response")
	})

	t.Run("old-worker", func(t *testing.T) {
		// A worker that predates the open-range protocol validates the
		// range seeded with nothing and answers without informed_bits or
		// assumed_bits, echoing seed_informed instead. The coordinator
		// rejects every such answer: alone, the old worker is asked each
		// range once per attempt and every range ends verified locally;
		// beside a good worker, the retry lands there.
		var mu sync.Mutex
		asked := map[int]int{} // start_round -> requests
		inner := planserver.New().Handler()
		old := httptest.NewServer(flakyHandler(inner, func(w http.ResponseWriter, r *http.Request, body []byte) bool {
			var m map[string]any
			if err := json.Unmarshal(body, &m); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return true
			}
			mu.Lock()
			asked[int(m["start_round"].(float64))]++
			mu.Unlock()
			return rewriteResponse(inner, func(m map[string]any) {
				delete(m, "informed_bits")
				delete(m, "assumed_bits")
				m["seed_informed"] = 1
			})(w, r, body)
		}))
		t.Cleanup(old.Close)
		good, _ := fleet(t, 1)
		for _, urls := range [][]string{{old.URL}, {old.URL, good[0]}} {
			c, err := distverify.New(urls, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Verify(context.Background(), data)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, want, got, "old worker in fleet of %d", len(urls))
			if len(urls) == 1 {
				mu.Lock()
				// Default retries: 2, so 3 attempts per range.
				for start, n := range asked {
					if n != 3 {
						t.Errorf("old worker alone: range at round %d asked %d times, want 3", start, n)
					}
				}
				if len(asked) < 2 {
					t.Errorf("old worker alone saw only ranges %v", asked)
				}
				mu.Unlock()
			}
		}
	})

	t.Run("all-dead", func(t *testing.T) {
		dead := httptest.NewServer(http.NotFoundHandler())
		url := dead.URL
		dead.Close() // connection refused from the first request
		c, err := distverify.New([]string{url}, opts(distverify.WithRetries(1))...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Verify(context.Background(), data)
		if err != nil {
			t.Fatal(err)
		}
		checkIdentical(t, want, got, "dead fleet")
	})
}

// TestDistVerifyTamperedBitmaps: a worker whose answer carries a
// malformed open-range part — informed_bits missing, of the wrong
// length or with a bit at or beyond the order; assumed_bits missing
// past round 0 or present at round 0; an informed_bits count that is
// not the informed count — is rejected on every range it touches, each
// asked retries+1 times, and the Report is still the local one. The
// cube has 32 vertices, so the bitmap's one word has room for bits
// beyond the order.
func TestDistVerifyTamperedBitmaps(t *testing.T) {
	cube, err := sparsehypercube.New(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 6)
	want := localReport(t, data)
	for _, tc := range []struct {
		name    string
		touches func(start int) bool
		tamper  func(m map[string]any)
	}{
		{"informed-bits-missing", always, func(m map[string]any) { delete(m, "informed_bits") }},
		{"informed-bits-wrong-length", always, func(m map[string]any) { m["informed_bits"] = "AAAAAAAAAAAAAAAAAAAAAA==" }},
		{"informed-bits-beyond-order", always, func(m map[string]any) { m["informed_bits"] = "AQAAAAEAAAA=" }},
		{"informed-count", always, func(m map[string]any) { m["informed"] = m["informed"].(float64) + 1 }},
		{"assumed-bits-missing", func(start int) bool { return start > 0 }, func(m map[string]any) { delete(m, "assumed_bits") }},
		{"assumed-bits-at-round-0", func(start int) bool { return start == 0 }, func(m map[string]any) {
			if m["start_round"].(float64) == 0 {
				m["assumed_bits"] = m["informed_bits"]
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			asked := map[int]int{} // start_round -> requests
			inner := planserver.New().Handler()
			bad := httptest.NewServer(flakyHandler(inner, func(w http.ResponseWriter, r *http.Request, body []byte) bool {
				var req distverify.RangeRequest
				if err := json.Unmarshal(body, &req); err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return true
				}
				mu.Lock()
				asked[req.StartRound]++
				mu.Unlock()
				return rewriteResponse(inner, tc.tamper)(w, r, body)
			}))
			t.Cleanup(bad.Close)
			c, err := distverify.New([]string{bad.URL}, distverify.WithRetries(1),
				distverify.WithBackoff(time.Millisecond), distverify.WithLogf(t.Logf))
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.Verify(context.Background(), data)
			if err != nil {
				t.Fatal(err)
			}
			checkIdentical(t, want, got, "%s", tc.name)
			mu.Lock()
			defer mu.Unlock()
			touched := 0
			for start, n := range asked {
				wantN := 1
				if tc.touches(start) {
					wantN, touched = 2, touched+1
				}
				if n != wantN {
					t.Errorf("range at round %d asked %d times, want %d", start, n, wantN)
				}
			}
			if touched == 0 || len(asked) < 2 {
				t.Errorf("tampering touched %d of ranges %v", touched, asked)
			}
		})
	}
}

func always(int) bool { return true }

// TestDistVerifyOutOfOrderCompletion: ranges deliberately finish in
// reverse order (earlier ranges are slowed the most); the stitch must
// still be positional, not arrival-ordered.
func TestDistVerifyOutOfOrderCompletion(t *testing.T) {
	cube, err := sparsehypercube.New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	mutated := mutatedPlanBytes(t, cube, 1, "uninformed-early-caller")
	want := localReport(t, mutated)

	inner := planserver.New().Handler()
	slowEarly := httptest.NewServer(flakyHandler(inner, func(w http.ResponseWriter, r *http.Request, body []byte) bool {
		var req distverify.RangeRequest
		if json.Unmarshal(body, &req) == nil {
			time.Sleep(time.Duration(max(0, 20-req.StartRound)) * 5 * time.Millisecond)
		}
		return false
	}))
	t.Cleanup(slowEarly.Close)
	c, err := distverify.New([]string{slowEarly.URL, slowEarly.URL, slowEarly.URL},
		distverify.WithRangesPerWorker(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Verify(context.Background(), mutated)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, want, got, "out-of-order completion")
}

// TestDistVerifyPlanUploadFallbacks: upload mode must degrade — an
// endpoint whose upload fails is fed inline ranges; an endpoint that
// claims an id it later 404s gets the bytes shipped inline per request.
func TestDistVerifyPlanUploadFallbacks(t *testing.T) {
	cube, err := sparsehypercube.New(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 2)
	want := localReport(t, data)

	inner := planserver.New().Handler()
	noUpload := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/plans" {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(noUpload.Close)
	amnesiac := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/plans" {
			// Accept the upload, remember nothing: every plan-id range
			// request will 404 and the coordinator must re-ship inline.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusCreated)
			w.Write([]byte(`{"id":"acceptedandforgotten"}`))
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(amnesiac.Close)

	c, err := distverify.New([]string{noUpload.URL, amnesiac.URL},
		distverify.WithPlanUpload(), distverify.WithLogf(t.Logf))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Verify(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, want, got, "upload fallbacks")
}

// TestDistVerifyLocalFallbackPaths: plans that cannot be distributed
// verify locally with the identical Report, and real input errors still
// surface as errors.
func TestDistVerifyLocalFallbackPaths(t *testing.T) {
	urls, _ := fleet(t, 1)
	c, err := distverify.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := sparsehypercube.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}

	// A gossip plan verifies under its own model — locally.
	var gossip bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.GossipScheme{Root: 2}).WriteIndexedTo(&gossip); err != nil {
		t.Fatal(err)
	}
	want := localReport(t, gossip.Bytes())
	got, err := c.Verify(context.Background(), gossip.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, want, got, "gossip plan")

	// An unindexed plan has nothing to split.
	var plain bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: 1}).WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	want = localReport(t, plain.Bytes())
	got, err = c.Verify(context.Background(), plain.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, want, got, "unindexed plan")

	// Garbage is an open error, exactly as ReadPlanAt reports it.
	if _, err := c.Verify(context.Background(), []byte("not a plan")); err == nil {
		t.Error("garbage accepted")
	}

	// A cancelled context surfaces as its error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	data := indexedPlanBytes(t, cube, 0)
	if _, err := c.Verify(ctx, data); err == nil {
		t.Error("cancelled context produced a report")
	}

	// No workers is a construction error.
	if _, err := distverify.New(nil); err == nil {
		t.Error("empty fleet accepted")
	}
}

// TestDistVerifyFile: the file entry point verifies through a mapping
// and matches the in-memory path.
func TestDistVerifyFile(t *testing.T) {
	cube, err := sparsehypercube.New(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 4)
	dir := t.TempDir()
	path := dir + "/plan.shcp"
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	urls, _ := fleet(t, 2)
	c, err := distverify.New(urls)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.VerifyFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, localReport(t, data), got, "file entry point")
	if _, err := c.VerifyFile(context.Background(), dir+"/missing"); err == nil {
		t.Error("missing file accepted")
	}
}

// rangeBodies is a RoundTripper that records every range-verify
// request body it forwards, and the byte length of every response body
// it returns.
type rangeBodies struct {
	mu        sync.Mutex
	bodies    [][]byte
	respBytes int
}

func (rb *rangeBodies) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/ranges/verify" {
		return http.DefaultTransport.RoundTrip(req)
	}
	body, err := io.ReadAll(req.Body)
	req.Body.Close()
	if err != nil {
		return nil, err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	rb.mu.Lock()
	rb.bodies = append(rb.bodies, body)
	rb.mu.Unlock()
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(out))
	rb.mu.Lock()
	rb.respBytes += len(out)
	rb.mu.Unlock()
	return resp, nil
}

// recorded returns the request bodies recorded so far. A cancelled
// dispatch may still be sending when Verify returns.
func (rb *rangeBodies) recorded() [][]byte {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return slices.Clone(rb.bodies)
}

// TestDistVerifyRangeRequestBytes is the deterministic bytes gate of
// the range wire, on an indexed n = 16 plan uploaded to two workers.
// Requests name the plan by id and carry no vertex set — only the plan
// id, the bounds and the span CRC — so they total at most ranges × 1 KiB.
// Each response carries its range's informed set and, past round 0,
// its assumed callers, each a base64 order-bit bitmap of ⌈order/6⌉
// characters, so the responses total at most
// ranges × (2·⌈order/6⌉ + 1 KiB).
func TestDistVerifyRangeRequestBytes(t *testing.T) {
	const source = 11
	cube, err := sparsehypercube.New(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, source)
	urls, _ := fleet(t, 2)
	rb := &rangeBodies{}
	c, err := distverify.New(urls, distverify.WithPlanUpload(), distverify.WithLogf(t.Logf),
		distverify.WithHTTPClient(&http.Client{Transport: rb}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Verify(context.Background(), data)
	if err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, localReport(t, data), got, "n=16 upload")

	ranges := map[[2]int]bool{}
	total := 0
	for _, body := range rb.recorded() {
		var req distverify.RangeRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		if req.PlanID == "" || req.Plan != nil {
			t.Fatalf("range [%d,%d) not sent by plan id", req.StartRound, req.EndRound)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		for name := range fields {
			if !slices.Contains([]string{"plan_id", "start_round", "end_round", "span_crc"}, name) {
				t.Errorf("range [%d,%d) request carries %q", req.StartRound, req.EndRound, name)
			}
		}
		ranges[[2]int{req.StartRound, req.EndRound}] = true
		total += len(body)
	}
	if n := len(rb.recorded()); len(ranges) != n || len(ranges) < 2 {
		t.Fatalf("%d range requests for %d distinct ranges", n, len(ranges))
	}
	budget := len(ranges) * 1024
	t.Logf("%d range requests, %d bytes (budget %d)", len(ranges), total, budget)
	if total > budget {
		t.Fatalf("range requests total %d bytes, budget %d", total, budget)
	}
	rb.mu.Lock()
	resp := rb.respBytes
	rb.mu.Unlock()
	respBudget := len(ranges) * (2*int((cube.Order()+5)/6) + 1024)
	t.Logf("range responses %d bytes (budget %d)", resp, respBudget)
	if resp > respBudget {
		t.Fatalf("range responses total %d bytes, budget %d", resp, respBudget)
	}
}

// TestDistVerifyCorruptLastRange: the coordinator decodes no range, so
// a corruption that both checksums miss — a two-byte vertex varint
// rewritten as the non-canonical 80 00, same length, plan CRC
// recomputed — must be caught by the worker's decode and still end at
// the local Plan.Verify Report, in the first, a middle and the last
// range alike. The worker's 400 sends the range to the local decode at
// once: it is asked of the fleet once, not retried under the default
// backoff.
func TestDistVerifyCorruptLastRange(t *testing.T) {
	cube, err := sparsehypercube.New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 3)
	at, err := schedio.OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	urls, _ := fleet(t, 2)
	// The coordinator's own split: two workers, four ranges each.
	bounds, err := at.SplitRounds(2 * 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) < 4 {
		t.Fatalf("split %v has no middle range", bounds)
	}
	for _, pick := range []struct {
		name string
		idx  int
	}{{"first", 0}, {"middle", (len(bounds) - 1) / 2}, {"last", len(bounds) - 2}} {
		t.Run(pick.name, func(t *testing.T) {
			lo, hi := bounds[pick.idx], bounds[pick.idx+1]
			bad := corruptCaller(t, data, at, lo, hi)
			plan, err := sparsehypercube.ReadPlanAt(bytes.NewReader(bad), int64(len(bad)))
			if err != nil {
				t.Fatal(err)
			}
			want := plan.Verify()
			if want.Valid {
				t.Fatalf("local verify accepted the corrupt range [%d,%d): %+v", lo, hi, want)
			}
			for _, upload := range []bool{false, true} {
				rb := &rangeBodies{}
				opts := []distverify.Option{distverify.WithLogf(t.Logf), distverify.WithHTTPClient(&http.Client{Transport: rb})}
				if upload {
					opts = append(opts, distverify.WithPlanUpload())
				}
				c, err := distverify.New(urls, opts...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Verify(context.Background(), bad)
				if err != nil {
					t.Fatal(err)
				}
				checkIdentical(t, want, got, "corrupt range [%d,%d), upload=%v", lo, hi, upload)
				asked := 0
				for _, body := range rb.recorded() {
					var req distverify.RangeRequest
					if err := json.Unmarshal(body, &req); err != nil {
						t.Fatal(err)
					}
					if req.StartRound == lo {
						asked++
					}
				}
				if asked != 1 {
					t.Errorf("upload=%v: range [%d,%d) asked of the fleet %d times, want 1", upload, lo, hi, asked)
				}
			}
		})
	}
}

// corruptCaller returns a copy of the indexed plan data whose first
// caller in rounds [lo, hi) that encodes in exactly two bytes is
// rewritten as the non-canonical two-byte varint 80 00, with the plan
// CRC recomputed: the span keeps its length, and only a decode sees
// the damage.
func corruptCaller(t *testing.T, data []byte, at *schedio.PlanAt, lo, hi int) []byte {
	t.Helper()
	rounds := at.NumRounds()
	stream, err := at.RangeBytes(0, rounds)
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Index(data, stream)
	end := base + len(stream) // the terminator byte
	off := base
	if lo > 0 {
		head, err := at.RangeBytes(0, lo)
		if err != nil {
			t.Fatal(err)
		}
		off += len(head)
	}
	uvarint := func() uint64 {
		v, n := binary.Uvarint(data[off:end])
		if n <= 0 {
			t.Fatalf("bad varint at %d", off)
		}
		off += n
		return v
	}
	for range hi - lo {
		for calls := uvarint() - 1; calls > 0; calls-- {
			pathLen := uvarint()
			if v := off; uvarint() >= 1<<7 && off-v == 2 {
				bad := append([]byte(nil), data...)
				bad[v], bad[v+1] = 0x80, 0x00
				binary.LittleEndian.PutUint32(bad[end+1:], crc32.ChecksumIEEE(bad[:end+1]))
				return bad
			}
			for range pathLen - 1 {
				uvarint()
			}
		}
	}
	t.Fatalf("rounds [%d,%d) have no two-byte caller", lo, hi)
	return nil
}
