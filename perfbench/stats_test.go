package main

import (
	"bytes"
	"strings"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so quantile must sort
	}
	return out
}

func TestPercentile90(t *testing.T) {
	for _, tc := range []struct {
		n      int
		want   float64
		beyond int
		valid  bool
	}{
		{n: 1, want: 1, beyond: 0},
		{n: 10, want: 9, beyond: 1},
		{n: 99, want: 90, beyond: 9},
		{n: 100, want: 90, beyond: 10, valid: true},
		{n: 101, want: 91, beyond: 10, valid: true},
		{n: 250, want: 225, beyond: 25, valid: true},
	} {
		v, beyond, valid := percentile90(seq(tc.n))
		if v != tc.want || beyond != tc.beyond || valid != tc.valid {
			t.Errorf("n=%d: p90 %v beyond %d valid %t, want %v %d %t", tc.n, v, beyond, valid, tc.want, tc.beyond, tc.valid)
		}
	}
	if v, beyond, valid := percentile90(nil); v != 0 || beyond != 0 || valid {
		t.Errorf("empty: %v %d %t", v, beyond, valid)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

// TestP90SampleCountPrinted pins the human-readable line: the p90 is
// printed with the samples behind it and whether the rule holds.
func TestP90SampleCountPrinted(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{
		{100, "(n=100, 10 beyond, valid=true)"},
		{50, "(n=50, 5 beyond, valid=false)"},
	} {
		res := &result{Metrics: map[string]metricValue{"op_p90_ms": {Value: 1, Unit: "ms"}}}
		var out bytes.Buffer
		printHuman(&out, res, &phase{latMs: seq(tc.n)})
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("n=%d: printed %q, want it to contain %q", tc.n, out.String(), tc.want)
		}
	}
}
