// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload per process against the library through its exported
// functions, checks every result against a reference, and prints the
// workload's metrics; the last line of standard output is one JSON
// object. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload hypercube-n18 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it splits the window into a traced half, which records
// spans around every call into a layer and every iterator boundary
// between layers and reports the per-layer metrics, and an untraced half
// that gives the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// gomaxprocs is fixed so that runs on hosts with more cores stay
// comparable: the benchmark targets a 2-CPU sandbox.
const gomaxprocs = 2

// setupRuns is how many times set-up runs; setup_s is the median.
const setupRuns = 5

// memoryLimit bounds the heap while collection is off in the measurement
// loops: the runtime collects if the heap nears it.
const memoryLimit = 2 << 30

// minOps is the untraced sample floor: 100 ops leave 10 samples beyond
// the p90. A run keeps measuring past --seconds until it has them, up to
// overrun more.
const (
	minOps  = 100
	overrun = 60 * time.Second
)

// workload is one benchmark workload after set-up.
type workload interface {
	// clients is the number of closed-loop client loops; their ops run
	// concurrently, one per client per cycle.
	clients() int
	// op runs client c's op of cycle i. tr is nil in untraced runs; a
	// traced op records its spans under op id opID.
	op(c, i int, tr *tracer, opID int) error
	// diag runs the traced-only diagnostics of cycle i, outside the timed
	// window (serial re-runs, in-process comparisons).
	diag(i int, tr *tracer) error
	// check is the once-per-run cross-engine correctness check, run
	// outside set-up and the timed window.
	check() error
	// counts returns the workload's exact work counters.
	counts() *counters
	// layers derives the per-layer time metrics from the traced spans of
	// ops traced ops.
	layers(sum map[string]spanTotals, ops int, m map[string]float64)
	close()
}

// workloadSpec names a workload and builds it from a seed.
type workloadSpec struct {
	name string
	why  string
	// warmup cycles run before measuring and are discarded.
	warmup int
	// countCycles is how many traced cycles the exact counts cover, so
	// they repeat for a given seed however long the run is.
	countCycles int
	setup       func(seed int64) (workload, error)
}

var workloads = []workloadSpec{
	{
		name:        "hypercube-n18",
		why:         "the paper's object end to end in process: generate, encode, replay and verify a k=2 n=18 broadcast plan, then verify n=14 all-source gossip",
		warmup:      2,
		countCycles: hypercubePool,
		setup:       func(seed int64) (workload, error) { return newHypercube(18, 14, seed) },
	},
	{
		name:        "fleet-n16",
		why:         "planserver and distverify over loopback HTTP, 1 client and 2 servers: upload, cached verify, distributed verify, session and delete of n=16 plans",
		warmup:      2,
		countCycles: fleetPool,
		setup:       func(seed int64) (workload, error) { return newFleet(16, seed) },
	},
	{
		name:        "graph-n16",
		why:         "the CSR validator on 2^16-vertex random 8-regular and 8-tree graphs, 4 sources each; no codec or HTTP, so it must not move with the hypercube path",
		warmup:      3,
		countCycles: 1,
		setup:       func(seed int64) (workload, error) { return newGraphWorkload(1<<16, seed) },
	},
}

// metricSpec describes one reported metric.
type metricSpec struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"maxrss_mb", "MB", "lower"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reads 0. The work
// counts (unit count or B, go.* aside) are exact per-op counts over the
// first countCycles traced cycles; ms metrics are means per traced op.
var perLayer = []metricSpec{
	{"core.generate_ms", "ms", "lower"},
	{"core.calls", "count", "lower"},
	{"core.gossip_generate_ms", "ms", "lower"},
	{"schedio.encode_ms", "ms", "lower"},
	{"schedio.plan_bytes", "B", "lower"},
	{"schedio.open_ms", "ms", "lower"},
	{"schedio.decode_ms", "ms", "lower"},
	{"schedio.decode_bytes", "B", "lower"},
	{"linecomm.validate_ms", "ms", "lower"},
	{"linecomm.hops", "count", "lower"},
	{"linecomm.gossip_validate_ms", "ms", "lower"},
	{"linecomm.gossip_calls", "count", "lower"},
	{"linecomm.tree_rounds_ms", "ms", "lower"},
	{"linecomm.tree_rounds_ms.regular8", "ms", "lower"},
	{"linecomm.tree_rounds_ms.ktree8", "ms", "lower"},
	{"linecomm.tree_rounds_generate_ms.ktree8", "ms", "lower"},
	{"linecomm.csr_validate_ms", "ms", "lower"},
	{"linecomm.csr_validate_ms.regular8", "ms", "lower"},
	{"linecomm.csr_validate_ms.ktree8", "ms", "lower"},
	{"linecomm.rounds", "count", "lower"},
	{"graph.build_ms", "ms", "lower"},
	{"sparsehypercube.verify_ms", "ms", "lower"},
	{"sparsehypercube.verify_serial_ms", "ms", "lower"},
	{"sparsehypercube.verify_cpu_ms", "ms", "lower"},
	{"planserver.upload_ms", "ms", "lower"},
	{"planserver.verify_ms", "ms", "lower"},
	{"planserver.session_ms", "ms", "lower"},
	{"planserver.delete_ms", "ms", "lower"},
	{"planserver.server_verify_ms", "ms", "lower"},
	{"distverify.verify_ms", "ms", "lower"},
	{"distverify.local_ms", "ms", "lower"},
	{"distverify.range_requests", "count", "lower"},
	{"distverify.bytes_sent", "B", "lower"},
	{"http.requests", "count", "lower"},
	{"http.bytes_in", "B", "lower"},
	{"http.bytes_out", "B", "lower"},
	{"http.non2xx", "count", "lower"},
	{"go.gc_cpu_ms", "ms", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"trace.ops_per_s", "1/s", "higher"},
	{"trace.untraced_ops_per_s", "1/s", "higher"},
	{"trace.overhead_frac", "1", "lower"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 30, "measurement window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == o.workload {
			spec = &workloads[i]
		}
	}
	if spec == nil || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)
	res, err := bench(spec, o, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// phase is what one measurement loop observed.
type phase struct {
	latMs   []float64     // per op
	window  time.Duration // sum of cycle wall times; collections and diagnostics excluded
	cpu     time.Duration
	alloc   uint64
	gcCPU   time.Duration // process CPU of the collections between cycles
	gcPause time.Duration // their stop-the-world pauses
	ops     int
	failed  int
}

// setupAll runs set-up setupRuns times and keeps the last instance.
func setupAll(spec *workloadSpec, seed int64) (workload, []float64, error) {
	var w workload
	var secs []float64
	for range setupRuns {
		if w != nil {
			w.close()
			w = nil
		}
		runtime.GC()
		t0 := time.Now()
		next, err := spec.setup(seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
		w = next
	}
	return w, secs, nil
}

func bench(spec *workloadSpec, o options, stdout, stderr io.Writer) (*result, error) {
	start := time.Now()
	w, setupSecs, err := setupAll(spec, o.seed)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{Correct: true, Metrics: make(map[string]metricValue)}
	reported := 0
	fail := func(err error) {
		res.Correct = false
		if reported++; reported <= 5 {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", spec.name, err)
		}
	}
	if err := w.check(); err != nil {
		fail(fmt.Errorf("cross-engine check: %w", err))
	}
	// From here on the runtime collects only between cycles (runPhase).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(memoryLimit))
	warm := runPhase(w, 0, spec.warmup*w.clients(), nil, nil, fail)
	budget := time.Duration(o.seconds * float64(time.Second))
	fmt.Fprintf(stdout, "# %s seed=%d nproc=%d gomaxprocs=%d go=%s setup_runs=%d\n",
		spec.name, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), len(setupSecs))

	phases := []*phase{warm}
	if o.trace == 0 {
		p := runPhase(w, budget, minOps, nil, nil, fail)
		phases = append(phases, p)
		endToEndMetrics(res, p, setupSecs)
	} else {
		tr := newTracer()
		if s, ok := w.(interface{ startTrace() error }); ok {
			if err := s.startTrace(); err != nil {
				fail(fmt.Errorf("starting the trace: %w", err))
			}
		}
		c0 := w.counts().snapshot()
		var cN map[string]int64
		countOps := spec.countCycles * w.clients()
		traced := runPhase(w, budget/2, countOps, tr, func(i int) {
			if i == spec.countCycles-1 {
				cN = w.counts().snapshot()
			}
		}, fail)
		untraced := runPhase(w, budget/2, countOps, nil, nil, fail)
		phases = append(phases, traced, untraced)
		layerMetrics(res, w, tr, traced, untraced, c0, cN, countOps)
		if err := dumpSpans(tr, spec.name, o.seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
		}
	}
	for _, p := range phases {
		res.Attempted += p.ops
		res.Failed += p.failed
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	printHuman(stdout, res, phases[len(phases)-1])
	fmt.Fprintf(stdout, "# failed_frac %.6g (failed %d of %d attempted ops)  wall %.1fs\n",
		float64(res.Failed)/float64(max(1, res.Attempted)), res.Failed, res.Attempted, time.Since(start).Seconds())
	return res, nil
}

// runPhase runs closed-loop cycles until budget has passed and at least
// least ops ops ran (giving up overrun past the budget). Each cycle runs
// one op per client concurrently after a forced collection, so no op pays
// for an earlier op's garbage; with collection otherwise off (see bench),
// no collection runs inside a cycle either. The collection, the samples
// around it and the traced-only diagnostics lie outside the timed window.
// onCycle, when non-nil, runs after each cycle.
func runPhase(w workload, budget time.Duration, least int, tr *tracer, onCycle func(i int), fail func(error)) *phase {
	p := &phase{}
	nc := w.clients()
	lat := make([]time.Duration, nc)
	errs := make([]error, nc)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if (el >= budget && p.ops >= least) || el >= budget+overrun {
			break
		}
		gc0 := cpuTime()
		runtime.GC()
		p.gcCPU += cpuTime() - gc0
		runtime.ReadMemStats(&ms0)
		p.gcPause += time.Duration(ms0.PauseTotalNs - ms1.PauseTotalNs)
		cpu0 := cpuTime()
		t0 := time.Now()
		if nc == 1 {
			errs[0] = w.op(0, i, tr, i)
			lat[0] = time.Since(t0)
		} else {
			var wg sync.WaitGroup
			for c := range nc {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c0 := time.Now()
					errs[c] = w.op(c, i, tr, i*nc+c)
					lat[c] = time.Since(c0)
				}()
			}
			wg.Wait()
		}
		p.window += time.Since(t0)
		p.cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		p.alloc += ms1.TotalAlloc - ms0.TotalAlloc
		for c := range nc {
			p.latMs = append(p.latMs, float64(lat[c])/float64(time.Millisecond))
			p.ops++
			if errs[c] != nil {
				p.failed++
				fail(fmt.Errorf("cycle %d client %d: %w", i, c, errs[c]))
			}
		}
		if tr != nil {
			if err := w.diag(i, tr); err != nil {
				fail(fmt.Errorf("cycle %d diagnostics: %w", i, err))
			}
		}
		if onCycle != nil {
			onCycle(i)
		}
	}
	return p
}

func perOp(total float64, ops int) float64 { return total / float64(max(1, ops)) }

func endToEndMetrics(res *result, p *phase, setupSecs []float64) {
	_, maxRSS := rusage()
	p90, _, _ := percentile90(p.latMs)
	v := map[string]float64{
		"setup_s":         median(setupSecs),
		"op_p50_ms":       median(p.latMs),
		"op_p90_ms":       p90,
		"ops_per_s":       float64(p.ops) / p.window.Seconds(),
		"cpu_ms_per_op":   perOp(float64(p.cpu)/float64(time.Millisecond), p.ops),
		"alloc_mb_per_op": perOp(float64(p.alloc)/(1<<20), p.ops),
		"maxrss_mb":       float64(maxRSS) / (1 << 20),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: v[m.name], Unit: m.unit}
	}
}

// layerMetrics fills the per-layer metrics of a traced run. The exact
// counts are the counters' growth over the first countOps traced ops
// (c0 before them, cN after), per op.
func layerMetrics(res *result, w workload, tr *tracer, traced, untraced *phase, c0, cN map[string]int64, countOps int) {
	m := make(map[string]float64)
	for name, n := range cN {
		m[name] = perOp(float64(n-c0[name]), countOps)
	}
	w.layers(summarize(tr.snapshot()), traced.ops, m)
	m["go.gc_cpu_ms"] = perOp(float64(untraced.gcCPU)/float64(time.Millisecond), untraced.ops)
	m["go.gc_pause_ms"] = perOp(float64(untraced.gcPause)/float64(time.Millisecond), untraced.ops)
	tops := float64(traced.ops) / traced.window.Seconds()
	uops := float64(untraced.ops) / untraced.window.Seconds()
	m["trace.ops_per_s"] = tops
	m["trace.untraced_ops_per_s"] = uops
	m["trace.overhead_frac"] = 1 - tops/uops
	for _, spec := range perLayer {
		res.Metrics[spec.name] = metricValue{Value: m[spec.name], Unit: spec.unit}
	}
}

// printHuman prints every metric by name with its unit, and for the p90
// the sample count behind it.
func printHuman(w io.Writer, res *result, p *phase) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Metrics[name]
		fmt.Fprintf(w, "%-36s %14.6g %s", name, v.Value, v.Unit)
		if name == "op_p90_ms" {
			_, beyond, valid := percentile90(p.latMs)
			fmt.Fprintf(w, "  (n=%d, %d beyond, valid=%t)", len(p.latMs), beyond, valid)
		}
		fmt.Fprintln(w)
	}
}

// dumpSpans writes the traced run's spans under .bench_build/trace.
func dumpSpans(tr *tracer, name string, seed int64) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed)))
	if err != nil {
		return err
	}
	if err := tr.writeSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
