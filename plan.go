package sparsehypercube

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// Scheme is a round-by-round k-line call plan on a cube — the paper's
// central object. A scheme describes what to send; a Plan binds it to a
// concrete cube and offers every way of consuming it (streaming,
// materialising, verifying, serialising) through one engine.
//
// BroadcastScheme, GossipScheme and MultiSourceScheme cover the paper's
// workloads; external streams adapt in via RoundScheme. Future schemes
// (treecast, say) implement the same three methods, plus PlanVerifier
// when their correctness model differs from single-source broadcast —
// MultiSourceScheme uses it to run the streamed telephone-model gossip
// validator.
type Scheme interface {
	// Name is a short identifier, stored in the plan file header and
	// used to re-bind a replayed plan to its verification model.
	Name() string
	// Origin is the scheme's distinguished vertex: the broadcast source,
	// the gossip root.
	Origin() uint64
	// Rounds generates the scheme's call rounds on cube. Yielded rounds
	// and the paths inside them may reuse storage between iterations.
	Rounds(cube *Cube) iter.Seq[[]Call]
}

// PlanVerifier is implemented by schemes whose correctness model is not
// single-source broadcast: Plan.Verify dispatches here instead of the
// streaming k-line broadcast validator. GossipScheme uses it to run the
// telephone-model gossip validator.
type PlanVerifier interface {
	VerifyPlan(cube *Cube, rounds iter.Seq[[]Call]) Report
}

// BroadcastScheme is the paper's minimum-time k-line broadcast from
// Source: exactly n rounds, calls of length at most k (Broadcast_2 for
// k = 2, Broadcast_k generally, binomial broadcast for k = 1).
type BroadcastScheme struct {
	Source uint64
}

// Name implements Scheme.
func (s BroadcastScheme) Name() string { return "broadcast" }

// Origin implements Scheme.
func (s BroadcastScheme) Origin() uint64 { return s.Source }

// Rounds implements Scheme: rounds are built from the informed-set
// frontier with call paths constructed in parallel; peak memory is
// O(frontier), not the full schedule. An out-of-range Source yields no
// rounds (and Plan.Verify reports it as a violation) rather than
// panicking.
func (s BroadcastScheme) Rounds(cube *Cube) iter.Seq[[]Call] {
	if s.Source >= cube.Order() {
		return func(yield func([]Call) bool) {}
	}
	return cube.inner.ScheduleRounds(s.Source)
}

// RoundScheme adapts an arbitrary round stream — a network feed, a
// simulator, a materialised schedule's Stream() — into a Scheme, so
// external schedules flow through the same Plan engine as generated
// ones. The resulting scheme is as reusable as the underlying iterator
// (a Schedule's Stream is reusable; a live feed is not).
func RoundScheme(name string, origin uint64, rounds iter.Seq[[]Call]) Scheme {
	return roundScheme{name: name, origin: origin, seq: rounds}
}

type roundScheme struct {
	name   string
	origin uint64
	seq    iter.Seq[[]Call]
}

func (s roundScheme) Name() string                  { return s.name }
func (s roundScheme) Origin() uint64                { return s.origin }
func (s roundScheme) Rounds(*Cube) iter.Seq[[]Call] { return s.seq }

// storedScheme describes a replayed plan whose scheme name has no
// registered in-process generator; its rounds come from the decoder.
type storedScheme struct {
	name   string
	origin uint64
}

func (s storedScheme) Name() string   { return s.name }
func (s storedScheme) Origin() uint64 { return s.origin }
func (s storedScheme) Rounds(*Cube) iter.Seq[[]Call] {
	return func(yield func([]Call) bool) {}
}

// Plan is a lazy handle on a scheme bound to a cube: nothing is computed
// until one of its methods consumes the round stream.
//
//	plan := cube.Plan(sparsehypercube.BroadcastScheme{Source: 0})
//	plan.Rounds()       // stream, O(frontier) memory
//	plan.Materialize()  // snapshot into a Schedule
//	plan.Verify()       // pipe straight into the streaming validator
//	plan.WriteTo(f)     // serialise without materialising
//
// Plans over generative schemes (BroadcastScheme, GossipScheme) are
// reusable: every method regenerates the rounds. Plans returned by
// ReadPlan decode a stream and are single-use; check Err after
// consuming one outside Verify. Plans returned by ReadPlanAt replay
// through an io.ReaderAt and are reusable.
//
// A Plan is safe for concurrent use: generative and ReadPlanAt plans
// hold no mutable state between consumptions (every Verify, Rounds,
// Materialize, or WriteTo works on its own generator or decoder), and
// on a single-use ReadPlan plan exactly one consumer wins the stream —
// the others fail with a clean single-use violation instead of racing
// on the reader.
type Plan struct {
	cube    *Cube
	scheme  Scheme
	dec     *schedio.Decoder // round source for stream-replayed plans (single use)
	at      *schedio.PlanAt  // round source for random-access replays (reusable)
	copied  bool
	workers int       // Verify round-range workers: 0 auto, 1 serial
	closer  io.Closer // mapping owned by OpenPlanFile plans, else nil

	decClaimed atomic.Bool           // dec's single consumption slot
	replayErr  atomic.Pointer[error] // latest at-replay decode failure
}

// errSingleUse is folded into the Report of every consumer that loses
// the race for a stream-replayed plan's one round stream.
var errSingleUse = errors.New("sparsehypercube: replayed plan already consumed (ReadPlan plans are single-use; use ReadPlanAt for reusable, concurrent replays)")

// PlanOption configures a Plan.
type PlanOption func(*Plan)

// WithCopiedRounds makes Rounds yield freshly allocated rounds that are
// safe to retain across iteration steps, trading the allocation-free
// default for convenience.
func WithCopiedRounds() PlanOption {
	return func(p *Plan) { p.copied = true }
}

// WithVerifyWorkers sets how many round-range workers Verify may use on
// an indexed random-access plan: 1 (or any negative value) forces the
// serial streamed pass, 0 (the default) picks GOMAXPROCS, anything
// larger pins the worker count, which splits the plan into up to two
// ranges per worker. Counts beyond the number of ranges (never more
// than the rounds) add nothing, and at most GOMAXPROCS ranges — two on
// one core — are checked at once, so a huge count costs no more than
// that. Only plans that replay through ReadPlanAt (or OpenPlanFile)
// from a file carrying the per-round index (WriteIndexedTo) can be
// split; every other plan verifies serially regardless of this option.
func WithVerifyWorkers(w int) PlanOption {
	return func(p *Plan) {
		if w < 0 {
			w = 1 // negative means serial, as in the CLI's -par convention
		}
		p.workers = w
	}
}

// Plan binds a scheme to this cube.
func (c *Cube) Plan(scheme Scheme, opts ...PlanOption) *Plan {
	p := &Plan{cube: c, scheme: scheme}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Cube returns the cube the plan is bound to.
func (p *Plan) Cube() *Cube { return p.cube }

// Scheme returns the scheme the plan executes.
func (p *Plan) Scheme() Scheme { return p.scheme }

// roundSource returns the plan's round stream together with the
// decode-status check for this particular consumption. Each call hands
// out an independent source, which is what makes concurrent consumption
// safe.
func (p *Plan) roundSource() (iter.Seq[[]Call], func() error) {
	switch {
	case p.dec != nil:
		if !p.decClaimed.CompareAndSwap(false, true) {
			// Record the misuse so Err surfaces it to consumers that do
			// not check per-consumption status (Rounds, Materialize) —
			// a second consumption must never look like an empty plan.
			p.storeReplayErr(errSingleUse)
			return func(yield func([]Call) bool) {}, func() error { return errSingleUse }
		}
		return p.dec.Rounds(), p.dec.Err
	case p.at != nil:
		d, err := p.at.NewDecoder()
		if err != nil {
			p.storeReplayErr(err)
			return func(yield func([]Call) bool) {}, func() error { return err }
		}
		seq := func(yield func([]Call) bool) {
			for round := range d.Rounds() {
				if !yield(round) {
					return
				}
			}
			p.storeReplayErr(d.Err())
		}
		return seq, d.Err
	}
	return p.scheme.Rounds(p.cube), func() error { return nil }
}

func (p *Plan) storeReplayErr(err error) {
	if err != nil {
		p.replayErr.Store(&err)
	}
}

// Rounds streams the plan one round at a time. By default the yielded
// slice and the paths inside it are reused between iterations — copy
// anything that must outlive the step, or build the plan with
// WithCopiedRounds.
func (p *Plan) Rounds() iter.Seq[[]Call] {
	seq, _ := p.roundSource()
	if !p.copied {
		return seq
	}
	return copiedSeq(seq)
}

// copiedSeq wraps a round stream so every yielded round is freshly
// allocated (the WithCopiedRounds contract).
func copiedSeq(seq iter.Seq[[]Call]) iter.Seq[[]Call] {
	return func(yield func([]Call) bool) {
		for round := range seq {
			if !yield(linecomm.CloneRound(round)) {
				return
			}
		}
	}
}

// Materialize snapshots the plan into a Schedule with freshly allocated
// storage. For replayed plans, check Err afterwards: a decode failure
// truncates the snapshot.
func (p *Plan) Materialize() *Schedule {
	seq, _ := p.roundSource()
	out := &Schedule{Source: p.scheme.Origin()}
	for round := range seq {
		out.Rounds = append(out.Rounds, linecomm.CloneRound(round))
	}
	return out
}

// Verify checks the plan against its scheme's correctness model: the
// k-line broadcast validator (edge existence, call lengths, per-round
// edge- and receiver-disjointness, caller knowledge, completion,
// minimality) unless the scheme is a PlanVerifier. For replayed plans a
// decode failure is folded into the report as a violation, so a
// truncated or corrupted file can never verify. A cube too large for
// the validator's edge-slot sets (n >= 27) is refused: the Report
// holds one simulation-cap-exceeded violation and no round is
// generated or decoded.
//
// On an indexed random-access plan (ReadPlanAt or OpenPlanFile over a
// WriteIndexedTo file) Verify is automatically parallel: the round
// stream is split by index into contiguous ranges of about equal byte
// length, each decoded and checked once by one of WithVerifyWorkers
// workers (GOMAXPROCS by default; counts beyond the number of ranges
// add nothing), and the merged Report is identical — violation for
// violation, byte for byte — to the serial pass. Any decode or checksum
// anomaly on the fast path, or a plan whose ranges disagree at a
// boundary (a caller not yet informed, a receiver informed twice),
// falls back to the authoritative serial pass, so such files report
// exactly as they always did. Every other plan verifies in one streamed
// serial pass.
func (p *Plan) Verify() Report {
	if rep, ok := p.verifyParallel(); ok {
		return rep
	}
	var rep Report
	seq, errf := p.roundSource()
	if pv, ok := p.scheme.(PlanVerifier); ok {
		if p.copied {
			seq = copiedSeq(seq) // custom verifiers may retain rounds
		}
		rep = pv.VerifyPlan(p.cube, seq)
	} else {
		res := linecomm.ValidateStream(p.cube.inner, p.cube.K(), p.scheme.Origin(), seq)
		rep = reportFrom(res, len(res.InformedPerRound))
	}
	if err := errf(); err != nil {
		rep.Valid = false
		rep.Violations = append(rep.Violations, fmt.Sprintf("replay: %v", err))
	}
	return rep
}

// verifyParallel is the indexed fast path of Verify: split the round
// stream into contiguous ranges of about equal byte length and verify
// each once, in parallel, with an open boundary — the informed set at
// its start, the only state crossing a range boundary, is assumed, not
// computed — pinning its span CRC during that one decode. The merge
// then checks every range's assumptions against the ranges before it.
// ok is false when the plan is not eligible — not random-access, not
// indexed, a custom-verifier scheme, fewer than two rounds or workers —
// or when any range sees a decode/integrity anomaly or a failed
// boundary assumption; the caller then runs the serial pass, whose
// Report is authoritative (and, for clean plans, identical to the
// merged one by construction). Workers beyond the number of ranges
// would have nothing to do, and beyond GOMAXPROCS (or two) could not
// run at once, so the pool is clamped to both before anything is sized.
func (p *Plan) verifyParallel() (Report, bool) {
	if p.at == nil || !p.at.Indexed() {
		return Report{}, false
	}
	if _, ok := p.scheme.(PlanVerifier); ok {
		return Report{}, false
	}
	workers := p.workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rounds := p.at.NumRounds()
	if workers < 2 || rounds < 2 {
		return Report{}, false
	}
	order := p.cube.Order()
	source := p.scheme.Origin()
	if source >= order {
		return Report{}, false // trivial, and the serial path words the violation
	}
	// Up to two ranges per worker, balanced by bytes: broadcast doubles
	// its calls every round, so the last round alone is about half the
	// plan, and the finer split lets the earlier ranges share the other
	// worker. There are never more ranges than rounds.
	bounds, err := p.at.SplitRounds(2 * min(workers, rounds))
	if err != nil {
		return Report{}, false
	}
	nr := len(bounds) - 1
	// A pool slot holds decode scratch and validator state: no more
	// slots than ranges, nor than can run at once (two on one core, so
	// a pinned count still splits).
	workers = min(workers, nr, max(2, runtime.GOMAXPROCS(0)))
	ranges := make([]*schedio.RoundRange, nr)
	for i := range nr {
		if ranges[i], err = p.at.Range(bounds[i], bounds[i+1]); err != nil {
			return Report{}, false
		}
	}
	bySize := make([]int, nr)
	for i := range bySize {
		bySize[i] = i
	}
	slices.SortStableFunc(bySize, func(a, b int) int {
		return cmp.Compare(ranges[b].Bytes(), ranges[a].Bytes())
	})

	// Largest range first, so the heavy last round starts at once while
	// the other workers take the rest. The range split is the
	// parallelism: each validator runs one pass per call on its pool
	// goroutine, and each pool slot decodes all its ranges into one
	// scratch, so the decode storage grows once per slot, not per range.
	scratch := make([]schedio.RoundScratch, workers)
	parts := make([]*linecomm.OpenRange, nr)
	crcs := make([]schedio.RangeCRC, nr)
	if !runRanges(workers, bySize, func(w, i int) error {
		rr := ranges[i]
		rr.UseScratch(&scratch[w])
		parts[i] = linecomm.ValidateStreamOpen(p.cube.inner, p.cube.K(), source,
			bounds[i], rr.Rounds(), linecomm.DefaultOptions())
		crc, err := rr.CRC()
		if err != nil {
			return err
		}
		crcs[i] = schedio.RangeCRC{CRC: crc, Bytes: rr.Bytes()}
		return nil
	}) {
		return Report{}, false
	}
	if err := p.at.CheckRangeCRCs(crcs); err != nil {
		return Report{}, false
	}
	res, ok := linecomm.MergeOpenRanges(order, source, parts)
	if !ok {
		return Report{}, false
	}
	return reportFrom(res, len(res.InformedPerRound)), true
}

// runRanges runs f on every range index in idx, in that order, across a
// pool of at most workers goroutines, and reports whether every call
// succeeded. f also receives its goroutine's slot in [0, workers), which
// no other running call shares. After the first failure no further
// index is started.
func runRanges(workers int, idx []int, f func(w, i int) error) bool {
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup
	)
	for w := range min(workers, len(idx)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(idx) || failed.Load() {
					return
				}
				if f(w, idx[k]) != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return !failed.Load()
}

// Err reports the decode status of a replayed plan: nil for generative
// plans, and nil for replayed plans whose stream (as far as consumed)
// decoded cleanly with a matching checksum. A second consumption of a
// single-use ReadPlan plan surfaces here as well — yielding nothing is
// misuse, not an empty plan. For ReadPlanAt plans — where every
// consumption replays independently — it reports the most recently
// completed consumption's failure, if any.
func (p *Plan) Err() error {
	if p.dec != nil {
		if err := p.dec.Err(); err != nil {
			return err
		}
	}
	if e := p.replayErr.Load(); e != nil {
		return *e
	}
	return nil
}

// WriteTo serialises the plan in the compact binary round format of
// internal/schedio, streaming straight off the round generator — the
// schedule is never materialised, so million-vertex plans encode at
// O(frontier) memory. It implements io.WriterTo. The file replays with
// ReadPlan.
func (p *Plan) WriteTo(w io.Writer) (int64, error) {
	return p.writeTo(w, schedio.Write)
}

// WriteIndexedTo is WriteTo plus a per-round byte index appended after
// the checksum, enabling random access per round through ReadPlanAt —
// the form to store when a plan will be served to many concurrent
// verifiers. Indexed files replay with ReadPlan and ReadPlanAt alike.
func (p *Plan) WriteIndexedTo(w io.Writer) (int64, error) {
	return p.writeTo(w, schedio.WriteIndexed)
}

func (p *Plan) writeTo(w io.Writer, write func(io.Writer, schedio.Header, iter.Seq[[]Call]) (int64, error)) (int64, error) {
	h := schedio.Header{
		K:      p.cube.K(),
		Dims:   p.cube.Dims(),
		Scheme: p.scheme.Name(),
		Source: p.scheme.Origin(),
	}
	inner, errf := p.roundSource()
	n, err := write(w, h, inner)
	if err == nil {
		err = errf() // re-encoding a broken replay must not silently truncate
	}
	return n, err
}

// ReadPlan opens a plan written by Plan.WriteTo: it decodes the header,
// reconstructs the cube from the stored parameter vector (default level
// choices, as New/NewWithDims produce), and returns a single-use Plan
// whose rounds replay from r one round at a time — nothing is
// materialised. Known scheme names re-bind to their verification model
// (a stored gossip plan verifies under the gossip validator); unknown
// names verify under the broadcast model.
//
//	f, _ := os.Open("plan.shcp")
//	plan, err := sparsehypercube.ReadPlan(f)
//	report := plan.Verify() // decode failures surface as violations
func ReadPlan(r io.Reader) (*Plan, error) {
	dec, err := schedio.NewDecoder(r)
	if err != nil {
		return nil, err
	}
	cube, scheme, err := bindHeader(dec.Header())
	if err != nil {
		return nil, err
	}
	return &Plan{cube: cube, scheme: scheme, dec: dec}, nil
}

// ReadPlanAt opens a plan through an io.ReaderAt — a memory-mapped or
// in-memory plan file, an os.File — and returns a reusable Plan safe
// for concurrent use: every Verify (or Rounds, Materialize, WriteTo)
// replays the file through its own decoder, so N verifiers share one
// copy of the bytes and nothing else. When the file carries a round
// index (WriteIndexedTo), its integrity is checked here.
//
// Unlike ReadPlan, decode failures of one consumption do not poison the
// handle; each Verify folds its own replay status into its Report.
//
// When the file carries the round index, Verify on the returned plan
// splits it across round-range workers (see WithVerifyWorkers).
func ReadPlanAt(r io.ReaderAt, size int64, opts ...PlanOption) (*Plan, error) {
	at, err := schedio.OpenPlanAt(r, size)
	if err != nil {
		return nil, err
	}
	cube, scheme, err := bindHeader(at.Header())
	if err != nil {
		return nil, err
	}
	p := &Plan{cube: cube, scheme: scheme, at: at}
	for _, o := range opts {
		o(p)
	}
	return p, nil
}

// OpenPlanFile opens the plan file at path for random-access replay
// through a read-only memory mapping — every verifier (in this process
// and any other mapping the same file) shares the one page-cache copy
// of the bytes — falling back transparently to positional file reads on
// platforms without mmap. The returned Plan behaves exactly like a
// ReadPlanAt plan: reusable, safe for concurrent use, automatically
// parallel on indexed files. Call Close to release the mapping.
func OpenPlanFile(path string, opts ...PlanOption) (*Plan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := schedio.OpenMapping(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	p, err := ReadPlanAt(m, m.Size(), opts...)
	if err != nil {
		m.Close()
		return nil, err
	}
	p.closer = m
	return p, nil
}

// Close releases the file mapping held by a plan opened with
// OpenPlanFile. It is a no-op (and returns nil) for every other plan.
// A closed plan must not be consumed again.
func (p *Plan) Close() error {
	if p.closer == nil {
		return nil
	}
	c := p.closer
	p.closer = nil
	return c.Close()
}

// Indexed reports whether the plan replays from a file carrying the
// per-round byte index (WriteIndexedTo) through ReadPlanAt or
// OpenPlanFile — the precondition for parallel Verify and per-round
// random access. Generative and stream-replayed plans report false.
func (p *Plan) Indexed() bool {
	return p.at != nil && p.at.Indexed()
}

// bindHeader reconstructs the cube a stored plan was generated on
// (default level choices, as New/NewWithDims produce) and re-binds the
// stored scheme name to its verification model. Known scheme names
// re-bind to their validators (a stored gossip plan verifies under the
// gossip model); unknown names verify under the broadcast model.
func bindHeader(h schedio.Header) (*Cube, Scheme, error) {
	inner, err := core.New(core.Params{K: h.K, Dims: h.Dims})
	if err != nil {
		return nil, nil, fmt.Errorf("sparsehypercube: plan header: %w", err)
	}
	var scheme Scheme
	switch h.Scheme {
	case "broadcast":
		scheme = BroadcastScheme{Source: h.Source}
	case "gossip":
		scheme = GossipScheme{Root: h.Source}
	default:
		scheme = storedScheme{name: h.Scheme, origin: h.Source}
	}
	return &Cube{inner: inner}, scheme, nil
}
