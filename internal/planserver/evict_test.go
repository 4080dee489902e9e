package planserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"sparsehypercube"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// contentHashID computes the serving id of a plan upload the same way
// the server does: the full sha256 of the bytes.
func contentHashID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// evictPlan is one uploadable plan plus the client-side span CRC a
// range-verify request over its full round range must claim.
type evictPlan struct {
	id      string
	data    []byte
	rounds  int
	spanCRC uint32
}

func buildEvictPlans(t *testing.T, sources []uint64) []*evictPlan {
	t.Helper()
	cube, err := sparsehypercube.New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*evictPlan, 0, len(sources))
	for _, src := range sources {
		var buf bytes.Buffer
		if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: src}).WriteIndexedTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		at, err := schedio.OpenPlanAt(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		rounds, err := at.Check()
		if err != nil {
			t.Fatal(err)
		}
		rr, err := at.Range(0, rounds)
		if err != nil {
			t.Fatal(err)
		}
		for range rr.Rounds() {
		}
		crc, err := rr.CRC()
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, &evictPlan{
			id:      contentHashID(data),
			data:    data,
			rounds:  rounds,
			spanCRC: crc,
		})
	}
	return plans
}

// TestEvictRaceDeleteVerify races uploads, verifies, range verifies,
// and deletes over a cache budgeted for a single plan, so every upload
// of one plan evicts another while requests against the victim are in
// flight. Under -race, every response must be a definitive 2xx or a
// clean 404 — never torn bytes, a 5xx, or a span-CRC 409 (which would
// mean a verifier read different bytes than were uploaded).
func TestEvictRaceDeleteVerify(t *testing.T) {
	plans := buildEvictPlans(t, []uint64{0, 2, 7})
	s := New(WithSpillDir(t.TempDir()), WithMaxPlans(1))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	worker := func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 60; i++ {
			p := plans[rng.Intn(len(plans))]
			switch rng.Intn(6) {
			case 0: // delete
				req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/plans/"+p.id, nil)
				if err != nil {
					return err
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					return err
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusNotFound {
					return fmt.Errorf("delete status %d", resp.StatusCode)
				}
			case 1, 2: // range verify against possibly-evicted plan
				reqBody, err := json.Marshal(distverify.RangeRequest{
					PlanID:     p.id,
					StartRound: 0,
					EndRound:   p.rounds,
					SpanCRC:    p.spanCRC,
				})
				if err != nil {
					return err
				}
				resp, err := http.Post(ts.URL+"/v1/ranges/verify", "application/json", bytes.NewReader(reqBody))
				if err != nil {
					return err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var rr distverify.RangeResponse
					if err := json.Unmarshal(body, &rr); err != nil {
						return fmt.Errorf("range response not JSON: %q: %v", body, err)
					}
					if len(rr.Violations) != 0 || rr.SpanCRC != p.spanCRC {
						return fmt.Errorf("range over plan %s judged invalid under eviction race: %s", p.id[:12], body)
					}
				case http.StatusNotFound:
					// Evicted or deleted first: fine.
				default:
					return fmt.Errorf("range verify status %d: %s", resp.StatusCode, body)
				}
			default: // upload, evicting someone, then verify
				resp, err := http.Post(ts.URL+"/v1/plans", "application/octet-stream", bytes.NewReader(p.data))
				if err != nil {
					return err
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
					return fmt.Errorf("upload status %d: %s", resp.StatusCode, body)
				}
				resp, err = http.Post(ts.URL+"/v1/plans/"+p.id+"/verify", "application/json", nil)
				if err != nil {
					return err
				}
				body, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					return err
				}
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
					return fmt.Errorf("verify status %d: %s", resp.StatusCode, body)
				}
			}
		}
		return nil
	}

	const workers = 6
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			errs <- worker(seed)
		}(int64(100 + w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := s.metrics.plansEvicted.Load(); n == 0 {
		t.Error("race soak over MaxPlans=1 never evicted")
	}
}

// TestEvictMidRangeCompletesThenUnmaps pins the refcount contract at
// the eviction boundary: evicting a spilled plan while a verifier
// holds it must leave the mapping live until that verifier finishes,
// and unmap the instant its reference drops.
func TestEvictMidRangeCompletesThenUnmaps(t *testing.T) {
	plans := buildEvictPlans(t, []uint64{1, 4})
	s := New(WithSpillDir(t.TempDir()), WithMaxPlans(1))
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := post(t, ts.URL+"/v1/plans", "application/octet-stream", plans[0].data)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d: %s", resp.StatusCode, body)
	}

	// An in-flight verifier: holds a reference exactly as the handlers do.
	sp, ok := s.lookupPlan(plans[0].id)
	if !ok {
		t.Fatal("uploaded plan not served")
	}
	m, ok := sp.mapping.(*schedio.Mapping)
	if !ok {
		t.Fatalf("spilled plan has no file mapping: %T", sp.mapping)
	}

	// The second upload busts the one-plan budget and evicts the first.
	resp, body = post(t, ts.URL+"/v1/plans", "application/octet-stream", plans[1].data)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("second upload status %d: %s", resp.StatusCode, body)
	}
	s.mu.Lock()
	_, cached := s.plans[plans[0].id]
	s.mu.Unlock()
	if cached {
		t.Fatal("first plan still cached after budget-busting upload")
	}
	if n := s.metrics.plansEvicted.Load(); n != 1 {
		t.Fatalf("evictions: %d, want 1", n)
	}
	if !m.Mapped() {
		t.Fatal("eviction unmapped a plan with an in-flight verifier")
	}

	// The held reference still serves the full round range correctly off
	// the evicted-but-mapped bytes.
	rr, err := sp.at.Range(0, sp.info.Rounds)
	if err != nil {
		t.Fatalf("range over evicted plan: %v", err)
	}
	cube := sp.plan.Cube()
	res := linecomm.ValidateStreamOpen(cube, cube.K(), sp.info.Source, 0,
		rr.Rounds(), linecomm.DefaultOptions()).Result()
	// Complete is a whole-schedule judgement the range validator leaves
	// false; a full-cube informed count says the same thing here.
	if !res.Valid() || res.Informed != cube.Order() {
		t.Fatalf("evicted plan's range failed validation: %+v", res)
	}
	crc, err := rr.CRC()
	if err != nil {
		t.Fatal(err)
	}
	if crc != plans[0].spanCRC {
		t.Fatalf("evicted plan's span CRC diverged: %08x != %08x", crc, plans[0].spanCRC)
	}

	// Dropping the last reference unmaps immediately.
	sp.release()
	if n := sp.refs.Load(); n != 0 {
		t.Fatalf("refcount after release: %d", n)
	}
	if m.Mapped() {
		t.Fatal("mapping survives the last reference")
	}
}
