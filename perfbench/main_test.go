package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
)

// TestFailedFracAccounting forces one reference mismatch and one 4xx
// answer on a small fleet and checks that both count as failed ops and
// nothing else does.
func TestFailedFracAccounting(t *testing.T) {
	f, err := newFleet(8, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	// The first plan expects a wrong verify answer; the second is
	// corrupted, so its upload gets a 400.
	f.plans[0][0].reportJSON = []byte("{\"valid\":false}\n")
	f.plans[0][1].data = bytes.Clone(f.plans[0][1].data)
	f.plans[0][1].data[len(f.plans[0][1].data)/2] ^= 0xff

	var errs []error
	p := runPhase(f, 0, 2*fleetPool, nil, nil, func(err error) { errs = append(errs, err) })
	if p.ops != 8 || p.failed != 4 || len(errs) != 4 {
		t.Fatalf("ops %d failed %d errors %v; want 8 ops, 4 failed", p.ops, p.failed, errs)
	}
	if !strings.Contains(errs[0].Error()+errs[1].Error(), "cached verify: response") {
		t.Errorf("no mismatch among %v", errs)
	}
	if !strings.Contains(errs[0].Error()+errs[1].Error(), "status 400") {
		t.Errorf("no 4xx among %v", errs)
	}
	if got := f.counts().snapshot()["http.non2xx"]; got != 2 {
		t.Errorf("http.non2xx = %d, want 2", got)
	}
	res := &result{Correct: true}
	res.Attempted, res.Failed = p.ops, p.failed
	if frac := float64(res.Failed) / float64(res.Attempted); frac != 0.5 {
		t.Errorf("failed_frac %v, want 0.5", frac)
	}
}

// failing is a one-client workload whose ops fail from cycle failFrom.
type failing struct {
	cnt      counters
	failFrom int
}

func (w *failing) clients() int { return 1 }
func (w *failing) op(_, i int, _ *tracer, _ int) error {
	if i >= w.failFrom {
		return errors.New("forced")
	}
	return nil
}
func (w *failing) diag(int, *tracer) error                               { return nil }
func (w *failing) check() error                                          { return nil }
func (w *failing) counts() *counters                                     { return &w.cnt }
func (w *failing) layers(map[string]spanTotals, int, map[string]float64) {}
func (w *failing) close()                                                {}

// TestFailureMakesRunIncorrect checks that one failed op marks the
// result incorrect and still reports every end-to-end metric.
func TestFailureMakesRunIncorrect(t *testing.T) {
	spec := &workloadSpec{name: "failing", warmup: 1,
		setup: func(int64) (workload, error) { return &failing{failFrom: minOps - 1}, nil }}
	var out, errOut bytes.Buffer
	res, err := bench(spec, options{seed: 1, seconds: 0.001}, &out, &errOut)
	if err != nil || res.Correct || res.Failed != 1 || res.Attempted != minOps+1 {
		t.Fatalf("err %v, result %+v", err, res)
	}
	for _, m := range endToEnd {
		if _, ok := res.Metrics[m.name]; !ok {
			t.Errorf("missing %s", m.name)
		}
	}
	if !strings.Contains(out.String(), "failed_frac") {
		t.Errorf("no failed_frac line in %q", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "graph-n16", "--trace", "2"},
		{"--workload", "graph-n16", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

// TestBenchmarkSpec keeps BENCHMARK.json in step with the metric and
// workload tables the program reports.
func TestBenchmarkSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q %q, program has %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if (metricSpec{m.Name, m.Unit, m.Better}) != endToEnd[i] || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %d: %+v, program has %+v", i, m, endToEnd[i])
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	for i, m := range spec.PerLayer {
		if (metricSpec{m.Name, m.Unit, m.Better}) != perLayer[i] {
			t.Errorf("per-layer %d: %+v, program has %+v", i, m, perLayer[i])
		}
	}
}
