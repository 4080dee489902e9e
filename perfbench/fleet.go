package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"time"

	"sparsehypercube"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/planserver"
	"sparsehypercube/internal/schedio"
)

const (
	// fleetPool is how many plans each client cycles through.
	fleetPool = 4
	// fleetClients is the number of closed-loop client loops. One: on a
	// 2-CPU host a second loop doubled the spread of op latency within a
	// run, and the servers and the coordinator's fan-out already keep both
	// CPUs busy.
	fleetClients = 1
	// fleetServers is the number of planserver instances.
	fleetServers = 2
	// sessionBatch is how many rounds one session request carries.
	sessionBatch = 4
	// opTimeout bounds the distributed verify of one op.
	opTimeout = time.Minute
)

// fleetPlan is one pooled plan with everything a client sends for it and
// every answer it must get back, precomputed in set-up.
type fleetPlan struct {
	data       []byte
	id         string
	info       []byte // upload response body
	report     sparsehypercube.Report
	reportJSON []byte // verify and session-close response body
	open       []byte // session-open request body
	batches    [][]byte
}

// fleet is the fleet-n16 workload: fleetServers in-process planservers
// behind loopback HTTP, driven by fleetClients closed-loop clients. Client
// c uploads to, verifies on and runs sessions against server c, verifies
// through a distverify coordinator over every server, and deletes its
// plan from all of them.
type fleet struct {
	cnt     counters
	servers []*planserver.Server
	https   []*httptest.Server
	base    *http.Transport
	client  *http.Client // the clients' traffic, counted
	plain   *http.Client // the diagnostics' traffic, not counted
	coord   *distverify.Coordinator
	plans   [][]*fleetPlan // [client][pool]

	// serverVerify sums the server-side time of the diagnostics' lone
	// cached verifies, serverVerifies counts them.
	serverVerify   time.Duration
	serverVerifies int
}

func newFleet(n int, seed int64) (*fleet, error) {
	f := &fleet{base: &http.Transport{MaxIdleConnsPerHost: 16}}
	for range fleetServers {
		ps := planserver.New()
		f.servers = append(f.servers, ps)
		f.https = append(f.https, httptest.NewServer(ps.Handler()))
	}
	f.client = &http.Client{Transport: &countingTransport{base: f.base, cnt: &f.cnt}}
	f.plain = &http.Client{Transport: f.base}
	coord, err := distverify.New(f.urls(),
		distverify.WithHTTPClient(&http.Client{Transport: &countingTransport{base: f.base, cnt: &f.cnt, dist: true}}),
		distverify.WithPlanUpload())
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord

	cube, err := sparsehypercube.New(2, n)
	if err != nil {
		f.close()
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x666c656574))
	seen := make(map[uint64]bool)
	f.plans = make([][]*fleetPlan, fleetClients)
	for c := range fleetClients {
		for len(f.plans[c]) < fleetPool {
			src := rng.Uint64N(cube.Order())
			if seen[src] {
				continue
			}
			seen[src] = true
			p, err := newFleetPlan(cube, src)
			if err != nil {
				f.close()
				return nil, err
			}
			f.plans[c] = append(f.plans[c], p)
		}
	}
	return f, nil
}

func newFleetPlan(cube *sparsehypercube.Cube, src uint64) (*fleetPlan, error) {
	var buf bytes.Buffer
	if _, err := cube.Plan(sparsehypercube.BroadcastScheme{Source: src}).WriteIndexedTo(&buf); err != nil {
		return nil, err
	}
	p := &fleetPlan{data: buf.Bytes()}
	plan, err := sparsehypercube.ReadPlanAt(bytes.NewReader(p.data), int64(len(p.data)))
	if err != nil {
		return nil, err
	}
	p.report = plan.Verify()
	if !p.report.Valid || !p.report.Complete {
		return nil, fmt.Errorf("reference broadcast from %d: %+v", src, p.report)
	}
	if p.reportJSON, err = jsonLine(p.report); err != nil {
		return nil, err
	}
	at, err := schedio.OpenPlanAt(bytes.NewReader(p.data), int64(len(p.data)))
	if err != nil {
		return nil, err
	}
	h := at.Header()
	p.id = contentID(p.data)
	p.info, err = jsonLine(planserver.PlanInfo{ID: p.id, K: h.K, Dims: h.Dims, Scheme: h.Scheme,
		Source: h.Source, Bytes: int64(len(p.data)), Rounds: at.NumRounds(), Indexed: at.Indexed()})
	if err != nil {
		return nil, err
	}
	if p.open, err = json.Marshal(map[string]any{"k": cube.K(), "n": cube.N(), "scheme": "broadcast", "source": src}); err != nil {
		return nil, err
	}
	dec, err := at.NewDecoder()
	if err != nil {
		return nil, err
	}
	var rounds []linecomm.Round
	flush := func() error {
		var b bytes.Buffer
		if err := linecomm.WriteRoundBatch(&b, rounds); err != nil {
			return err
		}
		p.batches = append(p.batches, b.Bytes())
		rounds = nil
		return nil
	}
	for r := range dec.Rounds() {
		rounds = append(rounds, linecomm.CloneRound(r))
		if len(rounds) == sessionBatch {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := dec.Err(); err != nil {
		return nil, err
	}
	if len(rounds) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// contentID is the id planserver gives an upload: its sha256 in hex.
func contentID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// jsonLine encodes v the way planserver writes its responses.
func jsonLine(v any) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(v)
	return b.Bytes(), err
}

func (f *fleet) urls() []string {
	var out []string
	for _, s := range f.https {
		out = append(out, s.URL)
	}
	return out
}

func (f *fleet) clients() int      { return fleetClients }
func (f *fleet) counts() *counters { return &f.cnt }

func (f *fleet) close() {
	for _, s := range f.https {
		s.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.base.CloseIdleConnections()
}

// call sends one request through the counted client and requires status
// want; it returns the body.
func (f *fleet) call(method, url string, body []byte, want int) ([]byte, error) {
	return send(f.client, method, url, body, want)
}

func send(client *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return got, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, resp.StatusCode, want, bytes.TrimSpace(got))
	}
	return got, nil
}

// expect requires body to equal want byte for byte.
func expect(what string, body, want []byte) error {
	if !bytes.Equal(body, want) {
		return fmt.Errorf("%s: response %q, want %q", what, bytes.TrimSpace(body), bytes.TrimSpace(want))
	}
	return nil
}

// step runs one op step inside a span when tracing.
func step(tr *tracer, name string, parent, opID int, f func() error) error {
	if tr == nil {
		return f()
	}
	id := tr.begin(name, parent, opID)
	defer tr.end(id)
	return f()
}

func (f *fleet) op(c, i int, tr *tracer, opID int) error {
	p := f.plans[c][i%fleetPool]
	own := f.https[c].URL
	opSpan := -1
	if tr != nil {
		opSpan = tr.begin("op", -1, opID)
		defer tr.end(opSpan)
	}
	if err := step(tr, "planserver.upload", opSpan, opID, func() error {
		body, err := f.call(http.MethodPost, own+"/v1/plans", p.data, http.StatusCreated)
		if err != nil {
			return err
		}
		return expect("upload", body, p.info)
	}); err != nil {
		return err
	}
	if err := step(tr, "planserver.verify", opSpan, opID, func() error {
		body, err := f.call(http.MethodPost, own+"/v1/plans/"+p.id+"/verify", nil, http.StatusOK)
		if err != nil {
			return err
		}
		return expect("cached verify", body, p.reportJSON)
	}); err != nil {
		return err
	}
	if err := step(tr, "distverify.Coordinator.Verify", opSpan, opID, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		defer cancel()
		rep, err := f.coord.Verify(ctx, p.data)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(rep, p.report) {
			return fmt.Errorf("distverify: report %+v, want %+v", rep, p.report)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := step(tr, "planserver.session", opSpan, opID, func() error {
		body, err := f.call(http.MethodPost, own+"/v1/sessions", p.open, http.StatusCreated)
		if err != nil {
			return err
		}
		var sess struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &sess); err != nil || sess.ID == "" {
			return fmt.Errorf("session open answered %q", bytes.TrimSpace(body))
		}
		for _, b := range p.batches {
			if _, err := f.call(http.MethodPost, own+"/v1/sessions/"+sess.ID+"/rounds", b, http.StatusOK); err != nil {
				return err
			}
		}
		body, err = f.call(http.MethodPost, own+"/v1/sessions/"+sess.ID+"/close", nil, http.StatusOK)
		if err != nil {
			return err
		}
		return expect("session close", body, p.reportJSON)
	}); err != nil {
		return err
	}
	// The coordinator uploaded the plan to every server; remove it from
	// all of them so each op starts from the same empty caches.
	return step(tr, "planserver.delete", opSpan, opID, func() error {
		for _, s := range f.https {
			if _, err := f.call(http.MethodDelete, s.URL+"/v1/plans/"+p.id, nil, http.StatusNoContent); err != nil {
				return err
			}
		}
		return nil
	})
}

// diag verifies each client's plan of cycle i in process (the local
// baseline of distverify), repeats the upload's integrity scan
// (schedio.OpenPlanAt and PlanAt.Check) in process, and times one cached
// verify on the server side (serverVerifyOnce).
func (f *fleet) diag(i int, tr *tracer) error {
	for c := range fleetClients {
		p := f.plans[c][i%fleetPool]
		opID := i*fleetClients + c
		ds := tr.begin("diag", -1, opID)
		err := func() error {
			defer tr.end(ds)
			id := tr.begin("distverify.local", ds, opID)
			plan, err := sparsehypercube.ReadPlanAt(bytes.NewReader(p.data), int64(len(p.data)))
			if err != nil {
				tr.end(id)
				return err
			}
			rep := plan.Verify()
			tr.end(id)
			if !reflect.DeepEqual(rep, p.report) {
				return fmt.Errorf("local verify: report %+v, want %+v", rep, p.report)
			}
			id = tr.begin("schedio.OpenPlanAt", ds, opID)
			at, err := schedio.OpenPlanAt(bytes.NewReader(p.data), int64(len(p.data)))
			tr.end(id)
			if err != nil {
				return err
			}
			id = tr.begin("schedio.PlanAt.Check", ds, opID)
			_, err = at.Check()
			tr.end(id)
			f.cnt.add("schedio.decode_bytes", int64(len(p.data)))
			return err
		}()
		if err != nil {
			return err
		}
		if err := f.serverVerifyOnce(f.https[c].URL, p); err != nil {
			return err
		}
	}
	return nil
}

// serverVerifyOnce uploads p to the server at url, verifies it there
// with no other request in flight, and deletes it again. The growth of
// the server's planserver_verify_seconds sum across that one verify is
// the server-side time of a full cached verify; the rest of
// planserver.verify_ms is HTTP framing and, in the timed window, waiting
// for the other client.
func (f *fleet) serverVerifyOnce(url string, p *fleetPlan) error {
	if _, err := send(f.plain, http.MethodPost, url+"/v1/plans", p.data, http.StatusCreated); err != nil {
		return err
	}
	sum0, n0, err := scrapeVerify(url)
	if err != nil {
		return err
	}
	body, err := send(f.plain, http.MethodPost, url+"/v1/plans/"+p.id+"/verify", nil, http.StatusOK)
	if err != nil {
		return err
	}
	if err := expect("lone cached verify", body, p.reportJSON); err != nil {
		return err
	}
	sum1, n1, err := scrapeVerify(url)
	if err != nil {
		return err
	}
	if n1-n0 != 1 {
		return fmt.Errorf("one cached verify counted %d verifications on the server", n1-n0)
	}
	f.serverVerify += time.Duration((sum1 - sum0) * float64(time.Second))
	f.serverVerifies++
	_, err = send(f.plain, http.MethodDelete, url+"/v1/plans/"+p.id, nil, http.StatusNoContent)
	return err
}

// scrapeVerify reads planserver_verify_seconds' sum and count off the
// server's /metrics.
func scrapeVerify(url string) (sum float64, count int64, err error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		switch {
		case !ok:
		case name == "planserver_verify_seconds_sum":
			if sum, err = strconv.ParseFloat(val, 64); err != nil {
				return 0, 0, err
			}
		case name == "planserver_verify_seconds_count":
			if count, err = strconv.ParseInt(val, 10, 64); err != nil {
				return 0, 0, err
			}
		}
	}
	return sum, count, sc.Err()
}

// check has nothing to add: every op compares every response with its
// in-process reference.
func (f *fleet) check() error { return nil }

func (f *fleet) layers(sum map[string]spanTotals, ops int, m map[string]float64) {
	ms := func(d time.Duration) float64 { return perOp(float64(d)/float64(time.Millisecond), ops) }
	m["planserver.upload_ms"] = ms(sum["planserver.upload"].busy)
	m["planserver.verify_ms"] = ms(sum["planserver.verify"].busy)
	m["planserver.session_ms"] = ms(sum["planserver.session"].busy)
	m["planserver.delete_ms"] = ms(sum["planserver.delete"].busy)
	m["distverify.verify_ms"] = ms(sum["distverify.Coordinator.Verify"].busy)
	m["distverify.local_ms"] = ms(sum["distverify.local"].busy)
	m["schedio.open_ms"] = ms(sum["schedio.OpenPlanAt"].busy)
	m["schedio.decode_ms"] = ms(sum["schedio.PlanAt.Check"].busy)
	m["planserver.server_verify_ms"] = perOp(float64(f.serverVerify)/float64(time.Millisecond), f.serverVerifies)
}

// countingTransport counts the HTTP traffic of the workload's clients.
type countingTransport struct {
	base http.RoundTripper
	cnt  *counters
	dist bool // the distverify coordinator's traffic, also counted as such
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	out := max(0, req.ContentLength)
	t.cnt.add("http.requests", 1)
	t.cnt.add("http.bytes_out", out)
	if t.dist {
		t.cnt.add("distverify.bytes_sent", out)
		if req.URL.Path == "/v1/ranges/verify" {
			t.cnt.add("distverify.range_requests", 1)
		}
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		t.cnt.add("http.non2xx", 1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, cnt: t.cnt}
	return resp, nil
}

// countingBody counts a response body's bytes. Close drains whatever
// the reader left unread, so the count is the whole body whatever the
// reader's buffering, and the connection stays reusable.
type countingBody struct {
	io.ReadCloser
	cnt    *counters
	n      int64
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	if !b.closed {
		b.closed = true
		rest, _ := io.Copy(io.Discard, b.ReadCloser) // a short count only undercounts bytes_in
		b.cnt.add("http.bytes_in", b.n+rest)
	}
	return b.ReadCloser.Close()
}
