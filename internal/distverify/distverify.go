// Package distverify verifies one indexed plan across a fleet of
// planserver workers: horizontal scale-out of the parallel round-range
// verification the Plan engine runs across goroutines.
//
// The coordinator runs the cheap structural pass locally — per-range
// informed deltas and span CRCs, stitched against the plan's stored
// checksum with crc32Combine — then fans the expensive seeded
// validation of each round range out over HTTP (POST /v1/ranges/verify)
// and merges the responses with linecomm.MergeRangeResults into a
// Report byte-identical to single-process Plan.Verify. The last range
// seeds nothing, so the structural pass only checksums its raw bytes;
// the worker that validates it decodes it and re-checks that CRC.
//
// The fleet is assumed unreliable. Every request gets its own timeout;
// a failed or timed-out range goes back on the shared task queue with
// backoff, where any idle worker steals it from the slow or dead one;
// a range that exhausts its retries is verified locally; and a plan
// that cannot be distributed at all (no index, a non-broadcast scheme,
// a checksum anomaly) degrades to the local Plan.Verify — so a dying
// fleet costs throughput, never the answer.
package distverify

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"sparsehypercube"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// Coordinator fans plan verification out to a fleet of planserver
// workers. Construct with New; a Coordinator is safe for concurrent
// use.
type Coordinator struct {
	endpoints []string
	client    *http.Client
	timeout   time.Duration
	retries   int
	backoff   time.Duration
	perWorker int
	upload    bool
	logf      func(format string, args ...any)
}

// Option configures a Coordinator.
type Option func(*Coordinator)

// WithHTTPClient sets the HTTP client used for worker requests.
func WithHTTPClient(c *http.Client) Option {
	return func(co *Coordinator) { co.client = c }
}

// WithRequestTimeout bounds each worker request (default 30s). A range
// whose request times out is reassigned, so this is the reaction time
// to a dead worker, not a bound on total verification time.
func WithRequestTimeout(d time.Duration) Option {
	return func(co *Coordinator) { co.timeout = d }
}

// WithRetries sets how many times a failed range is re-dispatched to
// the fleet (default 2) before the coordinator verifies it locally.
func WithRetries(n int) Option {
	return func(co *Coordinator) { co.retries = max(0, n) }
}

// WithBackoff sets the base delay before a failed range re-enters the
// task queue (default 100ms); attempt i waits i times the base.
func WithBackoff(d time.Duration) Option {
	return func(co *Coordinator) { co.backoff = d }
}

// WithRangesPerWorker sets how many round ranges, at most, the plan is
// split into per worker endpoint (default 4). Ranges are cut at round
// boundaries to about equal byte length, so a plan whose last round
// outweighs several shares gets fewer, single-round ranges there. Finer
// grain smooths over slow workers — a stolen range costs less to redo —
// at more per-request overhead.
func WithRangesPerWorker(n int) Option {
	return func(co *Coordinator) { co.perWorker = max(1, n) }
}

// WithPlanUpload makes the coordinator upload the whole plan to each
// worker's plan cache (POST /v1/plans) up front and address ranges by
// plan id, instead of shipping each range's bytes inline in every
// request. Workers that refuse the upload, or answer a plan id with
// 404, are fed inline requests instead.
func WithPlanUpload() Option {
	return func(co *Coordinator) { co.upload = true }
}

// WithLogf sets a progress/fault logger (default: discard).
func WithLogf(logf func(format string, args ...any)) Option {
	return func(co *Coordinator) { co.logf = logf }
}

// New constructs a Coordinator over the given worker base URLs
// (e.g. "http://host:8080"). At least one worker is required.
func New(workers []string, opts ...Option) (*Coordinator, error) {
	if len(workers) == 0 {
		return nil, errors.New("distverify: no worker endpoints")
	}
	c := &Coordinator{
		endpoints: append([]string(nil), workers...),
		client:    &http.Client{},
		timeout:   30 * time.Second,
		retries:   2,
		backoff:   100 * time.Millisecond,
		perWorker: 4,
		logf:      func(string, ...any) {},
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Verify verifies an in-memory plan file across the fleet.
func (c *Coordinator) Verify(ctx context.Context, data []byte) (sparsehypercube.Report, error) {
	return c.verifyAt(ctx, bytes.NewReader(data), int64(len(data)))
}

// VerifyFile verifies the plan file at path across the fleet, reading
// it through a read-only memory mapping where the platform allows.
func (c *Coordinator) VerifyFile(ctx context.Context, path string) (sparsehypercube.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return sparsehypercube.Report{}, err
	}
	m, err := schedio.OpenMapping(f)
	if err != nil {
		f.Close()
		return sparsehypercube.Report{}, err
	}
	defer m.Close()
	return c.verifyAt(ctx, m, m.Size())
}

// verifyAt verifies a plan replayed through r across the fleet and
// returns the exact Report single-process Plan.Verify produces on the
// same bytes. The error is non-nil only when the plan cannot be opened
// at all or ctx is cancelled — worker faults degrade (retry, steal,
// verify locally), they do not fail the verification.
func (c *Coordinator) verifyAt(ctx context.Context, r io.ReaderAt, size int64) (sparsehypercube.Report, error) {
	plan, err := sparsehypercube.ReadPlanAt(r, size)
	if err != nil {
		return sparsehypercube.Report{}, err
	}
	at, err := schedio.OpenPlanAt(r, size)
	if err != nil {
		return sparsehypercube.Report{}, err
	}

	// Preconditions for distributing: a round index to split on, the
	// broadcast correctness model (the seeded range validator is the
	// broadcast validator), at least two rounds, an in-range source.
	// Everything else verifies locally — Plan.Verify handles serial,
	// parallel, and corrupted plans identically to what the distributed
	// path would conclude.
	rounds := at.NumRounds()
	source := plan.Scheme().Origin()
	cube := plan.Cube()
	if !at.Indexed() || plan.Scheme().Name() == "gossip" || rounds < 2 || source >= cube.Order() {
		c.logf("distverify: plan not distributable, verifying locally")
		return plan.Verify(), nil
	}

	j := &job{c: c, plan: plan, at: at, cube: cube, source: source}
	// Byte-balanced, like the local parallel path: a round-count split
	// would hand one worker the doubling tail as a single task.
	if j.bounds, err = at.SplitRounds(len(c.endpoints) * c.perWorker); err != nil {
		return sparsehypercube.Report{}, err
	}

	if !j.structuralPass() {
		// A decode or checksum anomaly: the serial pass is authoritative
		// (and reports corruption exactly as Plan.Verify always did).
		c.logf("distverify: structural pass failed, verifying locally")
		return plan.Verify(), nil
	}
	if c.upload {
		j.uploadPlans(ctx, r, size)
	}
	rep, ok := j.dispatch(ctx)
	if !ok {
		if err := ctx.Err(); err != nil {
			return sparsehypercube.Report{}, err
		}
		c.logf("distverify: dispatch degraded, verifying locally")
		return plan.Verify(), nil
	}
	return rep, nil
}

// job is one verification's state: the plan handles, the range bounds,
// and everything the structural pass computed.
type job struct {
	c      *Coordinator
	plan   *sparsehypercube.Plan
	at     *schedio.PlanAt
	cube   *sparsehypercube.Cube
	source uint64

	bounds   []int              // nRanges+1 round-index boundaries
	crcs     []schedio.RangeCRC // per-range span CRCs from the structural pass
	reqs     []RangeRequest     // per-range request: bounds, seed, span CRC
	informed []uint64           // per-range seed_informed echo to expect
	planIDs  map[string]string  // endpoint -> uploaded plan id ("" = inline)
}

func (j *job) nRanges() int { return len(j.bounds) - 1 }

// structuralPass is the local pass 1: scan every range but the last for
// the receivers it informs and its span CRC, checksum the last range's
// raw bytes, stitch the CRCs against the plan's stored checksum, and
// prefix-union the deltas into per-range seed bitmaps. Reports false on
// any decode or integrity anomaly.
func (j *job) structuralPass() bool {
	n := j.nRanges()
	deltas := make([][]uint64, n)
	j.crcs = make([]schedio.RangeCRC, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, max(1, runtime.GOMAXPROCS(0)))
	for w := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			errs[w] = func() error {
				lo, hi := j.bounds[w], j.bounds[w+1]
				if w == n-1 {
					// The last range seeds nothing; its CRC is all
					// CheckRangeCRCs needs, and the decode is left to the
					// worker, which re-checks the CRC against it.
					span, err := j.at.RangeBytes(lo, hi)
					if err != nil {
						return err
					}
					j.crcs[w] = schedio.RangeCRC{CRC: crc32.ChecksumIEEE(span), Bytes: int64(len(span))}
					return nil
				}
				rr, err := j.at.Range(lo, hi)
				if err != nil {
					return err
				}
				deltas[w] = linecomm.CollectInformedStream(j.cube, rr.Rounds())
				crc, err := rr.CRC()
				if err != nil {
					return err
				}
				j.crcs[w] = schedio.RangeCRC{CRC: crc, Bytes: rr.Bytes()}
				return nil
			}()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return false
		}
	}
	if err := j.at.CheckRangeCRCs(j.crcs); err != nil {
		return false
	}
	// Prefix-union the deltas into each range's seed bitmap. An empty
	// seed (range 0's) is sent as neither form.
	acc := make([]uint64, seedWords(j.cube.Order()))
	j.reqs = make([]RangeRequest, n)
	j.informed = make([]uint64, n)
	for w := range n {
		j.reqs[w] = RangeRequest{StartRound: j.bounds[w], EndRound: j.bounds[w+1], SpanCRC: j.crcs[w].CRC}
		if popCount(acc) > 0 {
			j.reqs[w].SeedBits = encodeSeedBits(acc)
		}
		j.informed[w] = informedWith(acc, j.source)
		setSeedBits(acc, deltas[w])
	}
	return true
}

// uploadPlans pushes the whole plan into each worker's plan cache so
// range requests can address it by id. Best effort: a worker that
// refuses stays on inline requests.
func (j *job) uploadPlans(ctx context.Context, r io.ReaderAt, size int64) {
	data := make([]byte, size)
	if _, err := r.ReadAt(data, 0); err != nil {
		j.c.logf("distverify: reading plan for upload: %v", err)
		return
	}
	j.planIDs = make(map[string]string, len(j.c.endpoints))
	for _, ep := range j.c.endpoints {
		id, err := j.c.uploadPlan(ctx, ep, data)
		if err != nil {
			j.c.logf("distverify: upload to %s failed, using inline ranges: %v", ep, err)
			continue
		}
		j.planIDs[ep] = id
	}
}

func (c *Coordinator) uploadPlan(ctx context.Context, endpoint string, data []byte) (string, error) {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, endpoint+"/v1/plans", bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("upload status %d", resp.StatusCode)
	}
	var info struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&info); err != nil {
		return "", err
	}
	if info.ID == "" {
		return "", errors.New("upload response carries no plan id")
	}
	return info.ID, nil
}

// task is one range dispatch attempt.
type task struct {
	idx     int
	attempt int
}

// outcome is one attempt's verdict as seen by the central loop.
type outcome struct {
	task
	res    *linecomm.Result
	status int // the worker's HTTP status, 0 if none came back
	err    error
	local  bool // a local fallback compute; its failure aborts dispatch
}

// dispatch fans the ranges out: one puller goroutine per endpoint
// drains a shared task queue (so an idle worker steals the retry of a
// range a slow or dead worker dropped), the central loop collects
// outcomes, requeues failures with backoff, and verifies locally the
// ranges whose retry budget is exhausted, and a last range a worker
// refused with 400. ok is false when ctx is cancelled
// or a local fallback itself fails — the caller then degrades to the
// full local Verify.
func (j *job) dispatch(ctx context.Context) (sparsehypercube.Report, bool) {
	n := j.nRanges()
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Every task is dispatched at most retries+1 times plus one local
	// compute, so these capacities make every send non-blocking — a
	// backoff timer firing after dispatch returns must never hang.
	queue := make(chan task, n*(j.c.retries+1))
	outcomes := make(chan outcome, n*(j.c.retries+2))
	// Largest range first, so the heavy tail starts at once and the
	// other workers share the rest.
	byBytes := make([]int, n)
	for i := range byBytes {
		byBytes[i] = i
	}
	slices.SortStableFunc(byBytes, func(a, b int) int { return cmp.Compare(j.crcs[b].Bytes, j.crcs[a].Bytes) })
	for _, i := range byBytes {
		queue <- task{idx: i}
	}
	for _, ep := range j.c.endpoints {
		go j.pull(dctx, ep, queue, outcomes)
	}

	parts := make([]*linecomm.Result, n)
	for done := 0; done < n; {
		var o outcome
		select {
		case <-ctx.Done():
			return sparsehypercube.Report{}, false
		case o = <-outcomes:
		}
		if o.err == nil {
			if parts[o.idx] == nil {
				parts[o.idx] = o.res
				done++
			}
			continue
		}
		if o.local {
			// Local validation failed on a range the CRC pass already
			// cleared — something is deeply wrong; the full serial pass
			// is the authority.
			j.c.logf("distverify: local range %d failed: %v", o.idx, o.err)
			return sparsehypercube.Report{}, false
		}
		j.c.logf("distverify: range %d attempt %d failed: %v", o.idx, o.attempt, o.err)
		// The structural pass never decoded the last range, so a worker
		// refusing it as malformed most likely refuses its bytes, as
		// every worker would: the local decode settles that at once.
		refused := o.idx == n-1 && o.status == http.StatusBadRequest
		if o.attempt < j.c.retries && !refused {
			t := task{idx: o.idx, attempt: o.attempt + 1}
			delay := time.Duration(t.attempt) * j.c.backoff
			time.AfterFunc(delay, func() { queue <- t })
			continue
		}
		go func(idx int) {
			res, err := j.localRange(idx)
			outcomes <- outcome{task: task{idx: idx}, res: res, err: err, local: true}
		}(o.idx)
	}
	res := linecomm.MergeRangeResults(j.cube.Order(), parts)
	return reportFrom(res, len(res.InformedPerRound)), true
}

// pull is one endpoint's task loop.
func (j *job) pull(ctx context.Context, endpoint string, queue <-chan task, outcomes chan<- outcome) {
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-queue:
			res, status, err := j.verifyRange(ctx, endpoint, t.idx)
			select {
			case outcomes <- outcome{task: t, res: res, status: status, err: err}:
			case <-ctx.Done():
				return
			}
		}
	}
}

// verifyRange runs one range on one worker: by plan id when the
// endpoint accepted the upload (falling back to inline if the worker
// answers 404), inline otherwise.
func (j *job) verifyRange(ctx context.Context, endpoint string, idx int) (*linecomm.Result, int, error) {
	lo, hi := j.bounds[idx], j.bounds[idx+1]
	wire := j.reqs[idx] // a copy: the plan fields are this attempt's own
	if id := j.planIDs[endpoint]; id != "" {
		wire.PlanID = id
		res, status, err := j.post(ctx, endpoint, idx, &wire)
		if status != http.StatusNotFound {
			return res, status, err
		}
		// The worker lost (or never had) the plan: ship the bytes.
		wire.PlanID = ""
	}
	h := j.at.Header()
	span, err := j.at.RangeBytes(lo, hi)
	if err != nil {
		return nil, 0, err
	}
	wire.Plan = &InlinePlan{K: h.K, Dims: h.Dims, Source: h.Source, Span: span}
	return j.post(ctx, endpoint, idx, &wire)
}

// post sends range idx's request and validates the response: the
// worker must echo the exact range, span CRC and seeded informed count
// it was asked about — a response for the wrong range, or from a worker
// that dropped the seed, is rejected, not merged — and every violation
// kind must parse.
func (j *job) post(ctx context.Context, endpoint string, idx int, wire *RangeRequest) (*linecomm.Result, int, error) {
	body, err := json.Marshal(wire)
	if err != nil {
		return nil, 0, err
	}
	rctx, cancel := context.WithTimeout(ctx, j.c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodPost, endpoint+"/v1/ranges/verify", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := j.c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	rd := io.LimitReader(resp.Body, 1<<30)
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		json.NewDecoder(rd).Decode(&e)
		return nil, resp.StatusCode, fmt.Errorf("%s: status %d: %s", endpoint, resp.StatusCode, e.Error)
	}
	var rr RangeResponse
	if err := json.NewDecoder(rd).Decode(&rr); err != nil {
		return nil, resp.StatusCode, fmt.Errorf("%s: decoding response: %w", endpoint, err)
	}
	if rr.StartRound != wire.StartRound || rr.EndRound != wire.EndRound || rr.SpanCRC != wire.SpanCRC {
		return nil, resp.StatusCode, fmt.Errorf("%s: response for range [%d,%d) crc %08x, asked [%d,%d) crc %08x",
			endpoint, rr.StartRound, rr.EndRound, rr.SpanCRC, wire.StartRound, wire.EndRound, wire.SpanCRC)
	}
	// A worker predating seed_informed echoes none; that is only
	// trusted on a request without seed_bits, which it understood.
	if rr.SeedInformed != j.informed[idx] && (rr.SeedInformed != 0 || wire.SeedBits != nil) {
		return nil, resp.StatusCode, fmt.Errorf("%s: range [%d,%d) seeded with %d informed, sent %d",
			endpoint, wire.StartRound, wire.EndRound, rr.SeedInformed, j.informed[idx])
	}
	if len(rr.InformedPerRound) != wire.EndRound-wire.StartRound {
		return nil, resp.StatusCode, fmt.Errorf("%s: response carries %d round counts for %d rounds",
			endpoint, len(rr.InformedPerRound), wire.EndRound-wire.StartRound)
	}
	res, err := rr.Result()
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("%s: %w", endpoint, err)
	}
	return res, resp.StatusCode, nil
}

// localRange verifies one range in-process — the landing spot of a
// range the fleet kept failing.
func (j *job) localRange(idx int) (*linecomm.Result, error) {
	lo, hi := j.bounds[idx], j.bounds[idx+1]
	rr, err := j.at.Range(lo, hi)
	if err != nil {
		return nil, err
	}
	rr.DisableCRC() // the structural pass already pinned this span's checksum
	seed, _, err := j.reqs[idx].ResolveSeed(j.cube.Order(), j.source)
	if err != nil {
		return nil, err
	}
	res := linecomm.ValidateStreamSeeded(j.cube, j.cube.K(), j.source,
		seed, lo, rr.Rounds(), linecomm.DefaultOptions())
	return res, rr.Err()
}

// reportFrom mirrors the facade's unexported conversion from a merged
// linecomm.Result to the public Report; the byte-identity tests pin the
// two together.
func reportFrom(res *linecomm.Result, rounds int) sparsehypercube.Report {
	rep := sparsehypercube.Report{
		Valid:         res.Valid(),
		Complete:      res.Complete,
		MinimumTime:   res.MinimumTime,
		Rounds:        rounds,
		MaxCallLength: res.MaxCallLength,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	return rep
}
