// Command sparsecube constructs, inspects, schedules, verifies, and
// exports sparse hypercubes from the command line.
//
// Usage:
//
//	sparsecube describe  -k 3 -n 12 [-dims 2,5,12]
//	sparsecube stats     -k 2 -n 15
//	sparsecube schedule  -k 2 -n 8 -source 0 [-quiet]
//	sparsecube verify    -k 2 -n 10 [-sources 16]
//	sparsecube verify    -in plan.shcp -workers http://host1:8388,http://host2:8388
//	sparsecube neighbors -k 2 -n 8 -vertex 5
//	sparsecube export    -k 2 -n 6 [-format dot|edges]
//	sparsecube bounds    -n 20
//	sparsecube plan      -k 3 -n 20 -source 0 [-scheme broadcast|gossip] [-index] -o plan.shcp
//	sparsecube replay    -in plan.shcp [-quiet] [-par W]
//	sparsecube serve     [-addr :8388] [-max-upload N] [-spill-dir DIR]
//	                     [-max-plans N] [-max-plan-bytes N] [-session-ttl D]
//	                     [-drain-timeout D]
//
// plan streams a scheme to disk in the compact binary round format
// without materialising it (-index appends the per-round byte index a
// serving process uses for random access); replay decodes the file and
// re-verifies it against the cube reconstructed from the stored
// parameters — the write-once/verify-many pair. With -par W, replay
// memory-maps the file and splits verification across W round-range
// workers (0 picks GOMAXPROCS; requires -index at plan time for actual
// parallelism), the Report identical to the serial pass. serve exposes
// the same verification engine over HTTP to many concurrent sessions
// (see internal/planserver for the endpoint contract); -spill-dir makes
// uploads spill to disk and serve off memory-mapped files instead of
// heap copies, and a restart over the same directory re-verifies and
// re-serves everything it spilled. The cached set is LRU-bounded by
// -max-plans and -max-plan-bytes (eviction keeps the spill file; only
// DELETE unlinks), sessions idle past -session-ttl are reaped, GET
// /healthz and /metrics expose the operational surface, and SIGTERM
// drains gracefully for up to -drain-timeout before the process
// exits. verify -workers is the other side of serve: it runs the
// cheap structural pass over an indexed plan file locally, fans the
// round ranges out to the listed planserver instances for seeded
// validation, and stitches a Report identical to the single-process
// verify (see internal/distverify); ranges from unreachable or slow
// workers fall back to local validation, so the Report is the same with
// a degraded fleet — just slower.
//
// Results go to stdout; diagnostics (violation listings, warnings,
// errors) go to stderr, so scripts can parse the one without the other.
//
// Vertices print as n-bit strings (dimension n first), as in the paper.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sparsehypercube"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/distverify"
	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/planserver"
	"sparsehypercube/internal/topo"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	k := fs.Int("k", 2, "call-length bound k")
	n := fs.Int("n", 10, "cube dimension n (order 2^n)")
	dims := fs.String("dims", "", "explicit parameter vector n_1,...,n_{k-1},n (overrides auto)")
	source := fs.Uint64("source", 0, "broadcast source vertex")
	vertex := fs.Uint64("vertex", 0, "vertex to inspect")
	sources := fs.Int("sources", 8, "number of sources to verify")
	format := fs.String("format", "dot", "export format: dot or edges")
	quiet := fs.Bool("quiet", false, "suppress per-call output")
	scheme := fs.String("scheme", "broadcast", "plan scheme: broadcast or gossip")
	out := fs.String("o", "plan.shcp", "plan output file")
	in := fs.String("in", "", "plan file to replay")
	index := fs.Bool("index", false, "append the per-round byte index for random-access serving")
	par := fs.Int("par", -1, "replay: verify across this many round-range workers over a memory-mapped plan (0 = GOMAXPROCS, -1 = serial streamed replay)")
	workers := fs.String("workers", "", "verify: comma-separated planserver base URLs to distribute an indexed plan's round ranges across (needs -in)")
	addr := fs.String("addr", ":8388", "serve: listen address")
	maxUpload := fs.Int64("max-upload", planserver.DefaultMaxUpload, "serve: largest accepted upload in bytes")
	maxN := fs.Int("max-n", planserver.DefaultMaxN, "serve: largest cube dimension verified")
	spillDir := fs.String("spill-dir", "", "serve: spill uploaded plans to this directory and serve them memory-mapped (rescanned on restart)")
	maxPlans := fs.Int("max-plans", 1024, "serve: cached-plan count budget; least-recently-used plans evict past it (0 = unbounded)")
	maxPlanBytes := fs.Int64("max-plan-bytes", 0, "serve: cached-plan byte budget, same eviction (0 = unbounded)")
	sessionTTL := fs.Duration("session-ttl", 30*time.Minute, "serve: reap incremental sessions idle this long (0 = never)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "serve: how long a SIGTERM drain waits for in-flight work")
	if err := fs.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	switch cmd {
	case "replay":
		if err := runReplay(os.Stdout, os.Stderr, *in, *quiet, *par); err != nil {
			fatal(err)
		}
		return
	case "verify":
		if *workers != "" {
			if err := runDistVerify(os.Stdout, os.Stderr, *in, *workers, *quiet); err != nil {
				fatal(err)
			}
			return
		}
		cube, err := buildCube(*k, *n, *dims)
		if err != nil {
			fatal(err)
		}
		if err := runVerify(os.Stdout, cube, *sources); err != nil {
			fatal(err)
		}
		return
	case "plan":
		cube, err := buildCube(*k, *n, *dims)
		if err != nil {
			fatal(err)
		}
		if err := runPlan(os.Stdout, os.Stderr, cube, *scheme, *source, *out, *index); err != nil {
			fatal(err)
		}
		return
	case "serve":
		fmt.Fprintf(os.Stderr, "sparsecube: serving plan verification on %s\n", *addr)
		opts := []planserver.Option{
			planserver.WithMaxUpload(*maxUpload), planserver.WithMaxN(*maxN),
			planserver.WithMaxPlans(*maxPlans), planserver.WithMaxPlanBytes(*maxPlanBytes),
			planserver.WithSessionTTL(*sessionTTL),
			planserver.WithLogf(func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "sparsecube: "+format+"\n", args...)
			}),
		}
		if *spillDir != "" {
			fmt.Fprintf(os.Stderr, "sparsecube: spilling uploaded plans to %s (served memory-mapped, reloaded on restart)\n", *spillDir)
			opts = append(opts, planserver.WithSpillDir(*spillDir))
		}
		ps := planserver.New(opts...)
		defer ps.Close()
		srv := &http.Server{
			Addr:    *addr,
			Handler: ps.Handler(),
			// The peers are untrusted: never let a dribbling client hold a
			// connection open unboundedly. ReadTimeout stays generous —
			// plan uploads are legitimately large streams.
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       15 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		}
		if err := runServe(srv, ps, *drainTimeout); err != nil {
			fatal(err)
		}
		return
	}

	s, err := build(*k, *n, *dims)
	if cmd != "bounds" && err != nil {
		fatal(err)
	}

	switch cmd {
	case "describe":
		fmt.Print(s.Describe())
	case "stats":
		fmt.Printf("params:      %s\n", s.Params())
		fmt.Printf("order:       2^%d = %d\n", s.N(), s.Order())
		fmt.Printf("max degree:  %d (Q_%d has %d)\n", s.MaxDegree(), s.N(), s.N())
		fmt.Printf("min degree:  %d\n", s.MinDegree())
		fmt.Printf("edges:       %d (Q_%d has %d)\n", s.NumEdges(), s.N(), uint64(s.N())<<uint(s.N()-1))
		fmt.Printf("lower bound: %d (Theorems 2-3)\n", core.LowerBoundDegree(s.K(), s.N()))
	case "schedule":
		sched := s.BroadcastSchedule(*source)
		res := linecomm.Validate(s, s.K(), sched)
		if !*quiet {
			fmt.Print(sched.Format(s.N()))
		}
		fmt.Printf("rounds: %d, calls: %d, max length: %d, valid: %v, minimum time: %v\n",
			len(sched.Rounds), sched.TotalCalls(), res.MaxCallLength, res.Valid(), res.MinimumTime)
		if err := res.Err(); err != nil {
			fatal(err)
		}
	case "neighbors":
		for _, v := range s.Neighbors(*vertex) {
			fmt.Println(topo.BitString(v, s.N()))
		}
	case "export":
		g, err := s.Graph()
		if err != nil {
			fatal(err)
		}
		label := func(v int) string { return topo.BitString(uint64(v), s.N()) }
		switch *format {
		case "dot":
			err = graph.WriteDOT(os.Stdout, g, "sparsehypercube", label)
		case "edges":
			err = graph.WriteEdgeList(os.Stdout, g, label)
		default:
			err = fmt.Errorf("unknown format %q", *format)
		}
		if err != nil {
			fatal(err)
		}
	case "bounds":
		fmt.Printf("%-4s %-12s %-12s %-12s\n", "k", "lower", "upper", "Q_n degree")
		for kk := 1; kk <= 6 && kk < *n; kk++ {
			upper := "-"
			switch {
			case kk == 1:
				upper = strconv.Itoa(*n)
			case kk == 2:
				upper = strconv.Itoa(core.UpperBoundTheorem5(*n))
			case *n > kk:
				upper = strconv.Itoa(core.UpperBoundTheorem7(kk, *n))
			}
			fmt.Printf("%-4d %-12d %-12s %-12d\n", kk, core.LowerBoundDegree(kk, *n), upper, *n)
		}
	default:
		usage()
	}
}

func build(k, n int, dims string) (*core.SparseHypercube, error) {
	if dims == "" {
		return core.NewAuto(k, n)
	}
	vec, err := parseDims(dims)
	if err != nil {
		return nil, err
	}
	return core.New(core.Params{K: len(vec), Dims: vec})
}

// buildCube is build for the public facade (the plan subcommand speaks
// Scheme/Plan, not internal/core).
func buildCube(k, n int, dims string) (*sparsehypercube.Cube, error) {
	if dims == "" {
		return sparsehypercube.New(k, n)
	}
	vec, err := parseDims(dims)
	if err != nil {
		return nil, err
	}
	return sparsehypercube.NewWithDims(len(vec), vec)
}

// runVerify checks the broadcast from sources evenly spaced sources with
// Plan.Verify, which streams each schedule into the validator and
// refuses a cube past the validator's caps (n >= 27) before generating
// a round.
func runVerify(w io.Writer, cube *sparsehypercube.Cube, sources int) error {
	step := max(cube.Order()/uint64(max(sources, 1)), 1)
	checked := 0
	for src := uint64(0); src < cube.Order(); src += step {
		rep := cube.Plan(sparsehypercube.BroadcastScheme{Source: src}).Verify()
		if !rep.Valid {
			return fmt.Errorf("source %d: %d violations, first: %s", src, len(rep.Violations),
				strings.Join(rep.Violations[:min(5, len(rep.Violations))], "; "))
		}
		if !rep.MinimumTime {
			return fmt.Errorf("source %d: not minimum time", src)
		}
		checked++
	}
	fmt.Fprintf(w, "OK: %d sources broadcast in %d rounds with calls <= %d\n", checked, cube.N(), cube.K())
	return nil
}

// maxFlagDim bounds -dims entries; it matches the codec's header bound
// (internal/schedio maxDim), itself above core.MaxN.
const maxFlagDim = 64

// parseDims parses and validates a -dims vector: every entry must be an
// integer in [1, maxFlagDim], strictly increasing — duplicates and
// out-of-range entries are rejected up front with the offender named,
// instead of surfacing later as an opaque construction failure.
func parseDims(dims string) ([]int, error) {
	parts := strings.Split(dims, ",")
	vec := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad -dims entry %q", p)
		}
		if v < 1 || v > maxFlagDim {
			return nil, fmt.Errorf("-dims entry %d outside [1,%d]", v, maxFlagDim)
		}
		if len(vec) > 0 {
			if prev := vec[len(vec)-1]; v == prev {
				return nil, fmt.Errorf("duplicate -dims entry %d", v)
			} else if v < prev {
				return nil, fmt.Errorf("-dims entry %d out of order after %d (entries must be strictly increasing)", v, prev)
			}
		}
		vec = append(vec, v)
	}
	return vec, nil
}

// runPlan streams the chosen scheme to out in the binary round format,
// never materialising the schedule. Diagnostics go to errw, results to
// w.
func runPlan(w, errw io.Writer, cube *sparsehypercube.Cube, schemeName string, source uint64, out string, indexed bool) error {
	if source >= cube.Order() {
		return fmt.Errorf("source %d outside [0,%d)", source, cube.Order())
	}
	var scheme sparsehypercube.Scheme
	switch schemeName {
	case "broadcast":
		scheme = sparsehypercube.BroadcastScheme{Source: source}
	case "gossip":
		scheme = sparsehypercube.GossipScheme{Root: source}
		if 2*(cube.Order()-1) > linecomm.MaxGossipCertifyExchanges {
			fmt.Fprintf(errw, "sparsecube: warning: all-source gossip verification decides plans of at most %d exchanges (2^22 vertices); this 2^%d-vertex plan will write (and stream) fine but `replay` verification will report the knowledge half as simulation-cap-exceeded\n", linecomm.MaxGossipCertifyExchanges, cube.N())
		}
	default:
		return fmt.Errorf("unknown scheme %q (want broadcast or gossip)", schemeName)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	plan := cube.Plan(scheme)
	var n int64
	if indexed {
		n, err = plan.WriteIndexedTo(f)
	} else {
		n, err = plan.WriteTo(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Don't leave a truncated, CRC-less file where a good plan may
		// have been.
		os.Remove(out)
		return err
	}
	fmt.Fprintf(w, "wrote %s: %s scheme from %d, k = %d, dims = %v, %d bytes\n",
		out, scheme.Name(), scheme.Origin(), cube.K(), cube.Dims(), n)
	return nil
}

// runReplay decodes a plan file and re-verifies it against the cube
// reconstructed from the stored parameters. The verification summary
// goes to w (stdout); violation listings are diagnostics and go to
// errw (stderr), so a script parsing the summary never sees them.
//
// par < 0 is the classic serial streamed replay (one forward pass, no
// random access needed). par >= 0 memory-maps the file and verifies it
// through the round-range engine with that many workers (0 picks
// GOMAXPROCS); the Report is identical either way.
func runReplay(w, errw io.Writer, in string, quiet bool, par int) error {
	if in == "" {
		return fmt.Errorf("replay needs -in <plan file>")
	}
	var plan *sparsehypercube.Plan
	if par >= 0 {
		p, err := sparsehypercube.OpenPlanFile(in, sparsehypercube.WithVerifyWorkers(par))
		if err != nil {
			return err
		}
		defer p.Close()
		if !p.Indexed() {
			fmt.Fprintf(errw, "sparsecube: warning: %s has no round index (write it with `plan -index`); -par verifies serially\n", in)
		} else if _, custom := p.Scheme().(sparsehypercube.PlanVerifier); custom {
			fmt.Fprintf(errw, "sparsecube: warning: %s scheme verifies under a custom model; -par verifies serially\n", p.Scheme().Name())
		}
		plan = p
	} else {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		p, err := sparsehypercube.ReadPlan(f)
		if err != nil {
			return err
		}
		plan = p
	}
	cube := plan.Cube()
	fmt.Fprintf(w, "plan: %s scheme from %d, k = %d, dims = %v, order = %d\n",
		plan.Scheme().Name(), plan.Scheme().Origin(), cube.K(), cube.Dims(), cube.Order())
	rep := plan.Verify()
	fmt.Fprintf(w, "rounds: %d, max length: %d, valid: %v, complete: %v, minimum time: %v\n",
		rep.Rounds, rep.MaxCallLength, rep.Valid, rep.Complete, rep.MinimumTime)
	if !rep.Valid {
		if !quiet {
			for _, v := range rep.Violations {
				fmt.Fprintln(errw, " ", v)
			}
		}
		return fmt.Errorf("plan failed verification (%d violations)", len(rep.Violations))
	}
	return nil
}

// runDistVerify verifies the plan file at in by distributing its round
// ranges across the comma-separated planserver base URLs. The printed
// summary matches replay's; the Report itself is identical to what a
// single-process verify of the same file produces.
func runDistVerify(w, errw io.Writer, in, workerList string, quiet bool) error {
	if in == "" {
		return fmt.Errorf("verify -workers needs -in <plan file>")
	}
	var endpoints []string
	for _, e := range strings.Split(workerList, ",") {
		e = strings.TrimSpace(e)
		if e == "" {
			continue
		}
		if !strings.Contains(e, "://") {
			e = "http://" + e
		}
		endpoints = append(endpoints, e)
	}
	c, err := distverify.New(endpoints,
		distverify.WithPlanUpload(),
		// Coordinator messages already carry their own "distverify:" prefix.
		distverify.WithLogf(func(format string, args ...any) {
			fmt.Fprintf(errw, "sparsecube: "+format+"\n", args...)
		}))
	if err != nil {
		return err
	}
	fmt.Fprintf(errw, "sparsecube: distributing round ranges across %d workers\n", len(endpoints))
	rep, err := c.VerifyFile(context.Background(), in)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "rounds: %d, max length: %d, valid: %v, complete: %v, minimum time: %v\n",
		rep.Rounds, rep.MaxCallLength, rep.Valid, rep.Complete, rep.MinimumTime)
	if !rep.Valid {
		if !quiet {
			for _, v := range rep.Violations {
				fmt.Fprintln(errw, " ", v)
			}
		}
		return fmt.Errorf("plan failed verification (%d violations)", len(rep.Violations))
	}
	return nil
}

// runServe listens until the process is told to stop (SIGTERM or
// ctrl-C), then drains gracefully: the listener stops accepting, the
// http.Server waits out in-flight requests, and planserver.Drain
// force-closes open sessions and waits for running verifications —
// all bounded by drainTimeout.
func runServe(srv *http.Server, ps *planserver.Server, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining
	fmt.Fprintf(os.Stderr, "sparsecube: draining (up to %s)\n", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	serr := srv.Shutdown(dctx)
	if derr := ps.Drain(dctx); serr == nil {
		serr = derr
	}
	if serr != nil {
		return fmt.Errorf("drain incomplete: %w", serr)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "sparsecube: drained cleanly")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sparsecube:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sparsecube <describe|stats|schedule|verify|neighbors|export|bounds|plan|replay|serve> [flags]")
	os.Exit(2)
}
