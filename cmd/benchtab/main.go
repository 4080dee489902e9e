// Command benchtab regenerates every evaluation artifact of the paper —
// the figures, worked examples, and bound tables — as markdown tables.
//
// Usage:
//
//	benchtab           # run every experiment
//	benchtab -exp thm5 # run one experiment (fig1..fig5, ex1, ex3, ex6,
//	                   # thm1, lower, thm4, thm5, thm6, thm7, cor1, cor2,
//	                   # lem2, zoo, ablation, congestion, stream, replay,
//	                   # multicore, ...)
//	benchtab -tsv      # tab-separated output instead of markdown
//
//	benchtab -exp multicore -procs 1,4,8 -json BENCH_multicore.json
//	                   # worker-pool scaling curves; -json also writes
//	                   # the machine-readable trajectory file
//
//	benchtab -exp gossip [-gossip-n 22]
//	                   # the §5 gossip tables plus the streamed n = 18..22
//	                   # gather-scatter trajectory (timing experiment, so
//	                   # it is skipped under -exp all, like multicore)
//
//	benchtab -exp serve [-serve-n 14] [-serve-reqs 96] [-serve-workers 8]
//	         [-serve-ops 60] [-json BENCH_serve.json]
//	                   # plan verification service throughput: concurrent
//	                   # sessions verifying one cached plan over HTTP,
//	                   # then a lifecycle-churn phase (mixed upload/
//	                   # verify/delete against an eviction-sized cache)
//	                   # (timing experiment, skipped under -exp all; the
//	                   # trajectory defaults to BENCH_serve.json)
//
//	benchtab -exp mmap [-mmap-n 20] [-json BENCH_mmap.json]
//	                   # mmap-backed parallel round-range verification:
//	                   # one indexed plan on disk, opened memory-mapped,
//	                   # verified at W = 1..8 workers with every Report
//	                   # checked identical to serial (timing experiment,
//	                   # skipped under -exp all; the curve defaults to
//	                   # BENCH_mmap.json)
//
// Experiment ids match DESIGN.md's per-experiment index.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sparsehypercube/internal/analysis"
)

type experiment struct {
	id  string
	run func(tsv bool)
}

func main() {
	exp := flag.String("exp", "all", "experiment id (or 'all')")
	tsv := flag.Bool("tsv", false, "emit TSV instead of markdown")
	procs := flag.String("procs", "1,4,8", "GOMAXPROCS settings for -exp multicore")
	mcN := flag.Int("multicore-n", 20, "cube dimension for -exp multicore")
	gossipN := flag.Int("gossip-n", 22, "largest cube dimension for the -exp gossip streamed trajectory")
	serveN := flag.Int("serve-n", 14, "cube dimension for -exp serve")
	serveReqs := flag.Int("serve-reqs", 96, "requests per concurrency level for -exp serve")
	serveWorkers := flag.Int("serve-workers", 8, "workers for the -exp serve churn phase")
	serveOps := flag.Int("serve-ops", 60, "per-worker operations for the -exp serve churn phase")
	mmapN := flag.Int("mmap-n", 20, "cube dimension for -exp mmap")
	jsonOut := flag.String("json", "", "also write the multicore/serve/mmap trajectory as JSON to this file")
	flag.Parse()

	procList, err := parseProcs(*procs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(2)
	}
	want := strings.ToLower(*exp)
	if *jsonOut == "" {
		// The serve and mmap trajectories are acceptance artifacts; record
		// them by default so running the experiment always leaves the curve
		// behind.
		switch want {
		case "serve", "exp-serve":
			*jsonOut = "BENCH_serve.json"
		case "mmap", "exp-mmap":
			*jsonOut = "BENCH_mmap.json"
		}
	}

	experiments := []experiment{
		{"fig1", func(t bool) { emit(analysis.RunFig1(8), t) }},
		{"fig2", func(t bool) { emit(analysis.RunFig2(), t) }},
		{"fig3", func(t bool) { emit(analysis.RunFig3(), t) }},
		{"fig4", func(t bool) {
			tb, formatted := analysis.RunFig4()
			emit(tb, t)
			fmt.Println(formatted)
		}},
		{"fig5", func(t bool) { fmt.Println("### EXP-FIG5 — window partition (Fig. 5)\n\n" + analysis.RunFig5()) }},
		{"ex1", func(t bool) { emit(analysis.RunEx1(), t) }},
		{"ex3", func(t bool) { emit(analysis.RunEx3(), t) }},
		{"ex6", func(t bool) { emit(analysis.RunEx6(), t) }},
		{"thm1", func(t bool) { emit(analysis.RunFig1(9), t) }},
		{"lower", func(t bool) { emit(analysis.RunLowerBounds(40), t) }},
		{"thm4", func(t bool) { emit(analysis.RunThm4(9), t) }},
		{"thm5", func(t bool) { emit(analysis.RunThm5(40), t) }},
		{"thm6", func(t bool) { emit(analysis.RunThm6(), t) }},
		{"thm7", func(t bool) { emit(analysis.RunThm7(40), t) }},
		{"cor1", func(t bool) { emit(analysis.RunCor1(40), t) }},
		{"cor2", func(t bool) { emit(analysis.RunCor2(32), t) }},
		{"lem2", func(t bool) { emit(analysis.RunLem2(16), t) }},
		{"zoo", func(t bool) { emit(analysis.RunZoo(), t) }},
		{"permzoo", func(t bool) { emit(analysis.RunPermZoo(), t) }},
		{"ablation", func(t bool) { emit(analysis.RunAblation(12), t) }},
		{"congestion", func(t bool) { emit(analysis.RunCongestion(), t) }},
		{"diameter", func(t bool) { emit(analysis.RunDiameter(), t) }},
		{"gossip", func(t bool) {
			emit(analysis.RunGossip(), t)
			// The streamed n >= 18 trajectory is a timing experiment
			// (multi-second all-source simulations): like multicore it
			// runs only when asked for by name, not under -exp all.
			if want != "all" {
				emit(analysis.RunGossipStream(min(18, *gossipN), *gossipN), t)
			}
		}},
		{"tree", func(t bool) { emit(analysis.RunTreecast(), t) }},
		{"stream", func(t bool) { emit(analysis.RunStream(16), t) }},
		{"replay", func(t bool) { emit(analysis.RunReplay(16), t) }},
		{"multicore", func(t bool) {
			tb, res := analysis.RunMulticore(*mcN, procList, 3)
			emit(tb, t)
			if *jsonOut != "" {
				if err := writeMulticoreJSON(*jsonOut, res); err != nil {
					fmt.Fprintln(os.Stderr, "benchtab:", err)
					os.Exit(1)
				}
			}
		}},
		{"mbg", func(t bool) { emit(analysis.RunMbg(), t) }},
		{"serve", func(t bool) {
			tb, res := analysis.RunServe(*serveN, []int{1, 2, 4, 8, 16, 32, 64}, *serveReqs)
			emit(tb, t)
			ctb, churn := analysis.RunServeChurn(*serveN, *serveWorkers, *serveOps)
			emit(ctb, t)
			res.Churn = churn
			if *jsonOut != "" {
				if err := writeServeJSON(*jsonOut, res); err != nil {
					fmt.Fprintln(os.Stderr, "benchtab:", err)
					os.Exit(1)
				}
			}
		}},
		{"mmap", func(t bool) {
			tb, res := analysis.RunMmap(*mmapN, []int{1, 2, 3, 4, 5, 6, 7, 8}, 3)
			emit(tb, t)
			if *jsonOut != "" {
				if err := writeMmapJSON(*jsonOut, res); err != nil {
					fmt.Fprintln(os.Stderr, "benchtab:", err)
					os.Exit(1)
				}
			}
		}},
	}

	found := false
	for _, e := range experiments {
		// multicore, serve and mmap are timing experiments (GOMAXPROCS
		// churn, repeated million-vertex runs, wall-clock measurement):
		// meaningful only in isolation, so they never ride along with
		// -exp all.
		if want == "all" && (e.id == "multicore" || e.id == "serve" || e.id == "mmap") {
			continue
		}
		if want == "all" || want == e.id || "exp-"+e.id == want {
			e.run(*tsv)
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; known ids:", *exp)
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, " %s", e.id)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
}

func emit(t *analysis.Table, tsv bool) {
	if tsv {
		fmt.Print(t.TSV())
	} else {
		fmt.Println(t.Markdown())
	}
}

// parseProcs parses the -procs list, rejecting anything that would make
// the scaling curve nonsense: non-integers, zero or negative settings,
// and duplicate entries (which would silently re-run a level and skew
// "best of" comparisons).
func parseProcs(s string) ([]int, error) {
	var out []int
	seen := make(map[int]bool)
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -procs entry %q", part)
		}
		if p < 1 {
			return nil, fmt.Errorf("-procs entry %d is not a positive GOMAXPROCS", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("duplicate -procs entry %d", p)
		}
		seen[p] = true
		out = append(out, p)
	}
	return out, nil
}

func writeMulticoreJSON(path string, res *analysis.MulticoreResult) error {
	return writeJSONFile(path, res.WriteJSON)
}

func writeServeJSON(path string, res *analysis.ServeResult) error {
	return writeJSONFile(path, res.WriteJSON)
}

func writeMmapJSON(path string, res *analysis.MmapResult) error {
	return writeJSONFile(path, res.WriteJSON)
}

func writeJSONFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
