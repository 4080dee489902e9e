package linecomm

import (
	"fmt"
	"strings"
	"testing"
)

// resultWithViolations builds a Result carrying n distinct violations.
func resultWithViolations(n int) *Result {
	r := &Result{}
	for i := 0; i < n; i++ {
		r.Violations = append(r.Violations, Violation{
			Round: i, Call: i, Kind: PathInvalid, Msg: fmt.Sprintf("synthetic %d", i),
		})
	}
	return r
}

// TestErrTruncation pins the Err() rendering contract: up to five
// violations are spelled out, anything beyond is folded into a "(x more)"
// suffix.
func TestErrTruncation(t *testing.T) {
	cases := []struct {
		violations int
		spelled    int
		more       string
	}{
		{4, 4, ""},
		{5, 5, ""},
		{7, 5, "(2 more)"},
	}
	for _, tc := range cases {
		err := resultWithViolations(tc.violations).Err()
		if err == nil {
			t.Fatalf("%d violations: Err() = nil", tc.violations)
		}
		msg := err.Error()
		if !strings.Contains(msg, fmt.Sprintf("%d violations:", tc.violations)) {
			t.Errorf("%d violations: missing count header in %q", tc.violations, msg)
		}
		if got := strings.Count(msg, "synthetic"); got != tc.spelled {
			t.Errorf("%d violations: %d spelled out, want %d: %q", tc.violations, got, tc.spelled, msg)
		}
		if tc.more == "" {
			if strings.Contains(msg, "more)") {
				t.Errorf("%d violations: unexpected truncation suffix in %q", tc.violations, msg)
			}
		} else if !strings.Contains(msg, tc.more) {
			t.Errorf("%d violations: missing %q in %q", tc.violations, tc.more, msg)
		}
	}
}

// TestCallAccessorsGuardEmptyPath pins the zero-value contract: the
// endpoint accessors must not panic on an empty path, and Endpoints
// distinguishes vertex 0 from a missing path.
func TestCallAccessorsGuardEmptyPath(t *testing.T) {
	var zero Call
	if zero.From() != 0 || zero.To() != 0 || zero.Length() != 0 {
		t.Fatalf("zero call accessors: From=%d To=%d Length=%d, want all 0",
			zero.From(), zero.To(), zero.Length())
	}
	if _, _, ok := zero.Endpoints(); ok {
		t.Fatal("Endpoints on zero call reported ok")
	}
	c := Call{Path: []uint64{3, 1, 5}}
	from, to, ok := c.Endpoints()
	if !ok || from != 3 || to != 5 || c.From() != 3 || c.To() != 5 || c.Length() != 2 {
		t.Fatalf("populated call accessors wrong: %d %d %v", from, to, ok)
	}
}

// TestValidateEmptyPathCall pins that a zero-value call in a round is an
// ordinary PathInvalid finding, on every validator engine, not a panic.
func TestValidateEmptyPathCall(t *testing.T) {
	for name, net := range engines(3) {
		t.Run(name, func(t *testing.T) {
			s := &Schedule{Source: 0, Rounds: []Round{{{Path: []uint64{0, 1}}, {}}}}
			mustMatchSerial(t, net, 1, s)
			res := Validate(net, 1, s)
			found := false
			for _, v := range res.Violations {
				if v.Kind == PathInvalid && v.Call == 1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("empty-path call not reported as PathInvalid: %+v", res.Violations)
			}
		})
	}
}
