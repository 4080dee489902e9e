// Package distverify verifies one indexed plan across a fleet of
// planserver workers: horizontal scale-out of the parallel round-range
// verification the Plan engine runs across goroutines.
//
// The coordinator decodes nothing itself. It checksums each round
// range's raw bytes and stitches the CRCs against the plan's stored
// checksum with crc32Combine, then fans the validation of each range
// out over HTTP (POST /v1/ranges/verify). Each worker decodes its range,
// re-checks that CRC, and runs linecomm.ValidateStreamOpen on it: the
// range's Result plus its informed set and the callers it assumed
// informed earlier come back as bitmaps, and linecomm.MergeOpenRanges
// checks those assumptions word-wide while it merges the ranges into a
// Report byte-identical to single-process Plan.Verify — the protocol
// Plan.Verify itself runs across goroutines.
//
// The fleet is assumed unreliable. Every request gets its own timeout;
// a failed or timed-out range goes back on the shared task queue with
// backoff, where any idle worker steals it from the slow or dead one;
// a range that exhausts its retries, or that a worker refuses as
// malformed, is verified locally; and a plan that cannot be distributed
// at all (no index, a non-broadcast scheme, a checksum anomaly, a
// failed boundary assumption) degrades to the local Plan.Verify — so a
// dying fleet costs throughput, never the answer.
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
	"slices"
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
	// broadcast correctness model (the range validator is the broadcast
	// validator), at least two rounds, an in-range source.
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

	j := &job{c: c, at: at, cube: cube, source: source}
	// Byte-balanced, like the local parallel path: a round-count split
	// would hand one worker the doubling tail as a single task.
	if j.bounds, err = at.SplitRounds(len(c.endpoints) * c.perWorker); err != nil {
		return sparsehypercube.Report{}, err
	}

	if !j.checksum() {
		// A read or checksum anomaly: the serial pass is authoritative
		// (and reports corruption exactly as Plan.Verify always did).
		c.logf("distverify: span checksums failed, verifying locally")
		return plan.Verify(), nil
	}
	if c.upload {
		j.uploadPlans(ctx, r, size)
	}
	parts, ok := j.dispatch(ctx)
	if !ok {
		if err := ctx.Err(); err != nil {
			return sparsehypercube.Report{}, err
		}
		c.logf("distverify: dispatch degraded, verifying locally")
		return plan.Verify(), nil
	}
	res, ok := linecomm.MergeOpenRanges(cube.Order(), source, parts)
	if !ok {
		// A range assumed a caller informed, or a receiver fresh, that
		// the earlier ranges contradict: only a serial pass can word
		// those violations.
		c.logf("distverify: a range boundary assumption failed, verifying locally")
		return plan.Verify(), nil
	}
	return reportFrom(res, len(res.InformedPerRound)), nil
}

// job is one verification's state: the plan's index and cube, the range
// bounds, and each range's bytes and checksum.
type job struct {
	c      *Coordinator
	at     *schedio.PlanAt
	cube   *sparsehypercube.Cube
	source uint64

	bounds  []int              // nRanges+1 round-index boundaries
	spans   [][]byte           // per-range raw round bytes
	crcs    []schedio.RangeCRC // per-range span CRCs
	planIDs map[string]string  // endpoint -> uploaded plan id ("" = inline)
}

func (j *job) nRanges() int { return len(j.bounds) - 1 }

// checksum reads every range's raw bytes, checksums them without
// decoding, and stitches the CRCs against the plan's stored checksum.
// Reports false on any read or integrity anomaly.
func (j *job) checksum() bool {
	n := j.nRanges()
	j.spans = make([][]byte, n)
	j.crcs = make([]schedio.RangeCRC, n)
	for w := range n {
		span, err := j.at.RangeBytes(j.bounds[w], j.bounds[w+1])
		if err != nil {
			return false
		}
		j.spans[w] = span
		j.crcs[w] = schedio.RangeCRC{CRC: crc32.ChecksumIEEE(span), Bytes: int64(len(span))}
	}
	return j.at.CheckRangeCRCs(j.crcs) == nil
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
	part   *linecomm.OpenRange
	status int // the worker's HTTP status, 0 if none came back
	err    error
	local  bool // a local fallback compute; its failure aborts dispatch
}

// dispatch fans the ranges out: one puller goroutine per endpoint
// drains a shared task queue (so an idle worker steals the retry of a
// range a slow or dead worker dropped), the central loop collects
// outcomes, requeues failures with backoff, and verifies locally the
// ranges whose retry budget is exhausted or that a worker refused with
// 400. It returns each range's part, in round order. ok is false when
// ctx is cancelled or a local fallback itself fails — the caller then
// degrades to the full local Verify.
func (j *job) dispatch(ctx context.Context) ([]*linecomm.OpenRange, bool) {
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

	parts := make([]*linecomm.OpenRange, n)
	for done := 0; done < n; {
		var o outcome
		select {
		case <-ctx.Done():
			return nil, false
		case o = <-outcomes:
		}
		if o.err == nil {
			if parts[o.idx] == nil {
				parts[o.idx] = o.part
				done++
			}
			continue
		}
		if o.local {
			// Local validation failed on a range the CRC pass already
			// cleared — its bytes do not decode; the full serial pass is
			// the authority.
			j.c.logf("distverify: local range %d failed: %v", o.idx, o.err)
			return nil, false
		}
		j.c.logf("distverify: range %d attempt %d failed: %v", o.idx, o.attempt, o.err)
		// The coordinator decodes no range, so a worker refusing one as
		// malformed most likely refuses its bytes, as every worker
		// would: the local decode settles that at once.
		refused := o.status == http.StatusBadRequest
		if o.attempt < j.c.retries && !refused {
			t := task{idx: o.idx, attempt: o.attempt + 1}
			delay := time.Duration(t.attempt) * j.c.backoff
			time.AfterFunc(delay, func() { queue <- t })
			continue
		}
		go func(idx int) {
			part, err := j.localRange(idx)
			outcomes <- outcome{task: task{idx: idx}, part: part, err: err, local: true}
		}(o.idx)
	}
	return parts, true
}

// pull is one endpoint's task loop.
func (j *job) pull(ctx context.Context, endpoint string, queue <-chan task, outcomes chan<- outcome) {
	for {
		select {
		case <-ctx.Done():
			return
		case t := <-queue:
			part, status, err := j.verifyRange(ctx, endpoint, t.idx)
			select {
			case outcomes <- outcome{task: t, part: part, status: status, err: err}:
			case <-ctx.Done():
				return
			}
		}
	}
}

// verifyRange runs one range on one worker: by plan id when the
// endpoint accepted the upload (falling back to inline if the worker
// answers 404), inline otherwise.
func (j *job) verifyRange(ctx context.Context, endpoint string, idx int) (*linecomm.OpenRange, int, error) {
	wire := RangeRequest{StartRound: j.bounds[idx], EndRound: j.bounds[idx+1], SpanCRC: j.crcs[idx].CRC}
	if id := j.planIDs[endpoint]; id != "" {
		wire.PlanID = id
		part, status, err := j.post(ctx, endpoint, &wire)
		if status != http.StatusNotFound {
			return part, status, err
		}
		// The worker lost (or never had) the plan: ship the bytes.
		wire.PlanID = ""
	}
	h := j.at.Header()
	wire.Plan = &InlinePlan{K: h.K, Dims: h.Dims, Source: h.Source, Span: j.spans[idx]}
	return j.post(ctx, endpoint, &wire)
}

// post sends one range request and validates the response: the worker
// must echo the exact range and span CRC it was asked about — a
// response for the wrong range is rejected, not merged — carry one
// informed count per round, and ship a well-formed part (see
// RangeResponse.OpenRange): a worker that predates the bitmaps sends
// none, and is rejected too.
func (j *job) post(ctx context.Context, endpoint string, wire *RangeRequest) (*linecomm.OpenRange, int, error) {
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
	if len(rr.InformedPerRound) != wire.EndRound-wire.StartRound {
		return nil, resp.StatusCode, fmt.Errorf("%s: response carries %d round counts for %d rounds",
			endpoint, len(rr.InformedPerRound), wire.EndRound-wire.StartRound)
	}
	part, err := rr.OpenRange(j.cube.Order())
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("%s: range [%d,%d): %w", endpoint, wire.StartRound, wire.EndRound, err)
	}
	return part, resp.StatusCode, nil
}

// localRange verifies one range in-process — the landing spot of a
// range the fleet kept failing or refused.
func (j *job) localRange(idx int) (*linecomm.OpenRange, error) {
	lo, hi := j.bounds[idx], j.bounds[idx+1]
	rr, err := schedio.DecodeSpan(j.at.Header(), j.spans[idx], lo, hi)
	if err != nil {
		return nil, err
	}
	rr.DisableCRC() // the checksum pass already pinned this span's bytes
	part := linecomm.ValidateStreamOpen(j.cube, j.cube.K(), j.source, lo, rr.Rounds(), linecomm.DefaultOptions())
	return part, rr.Err()
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
