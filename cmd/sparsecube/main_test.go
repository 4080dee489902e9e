package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sparsehypercube/internal/planserver"
)

func TestBuildAuto(t *testing.T) {
	s, err := build(2, 15, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 15 {
		t.Errorf("n = %d", s.N())
	}
	if s.MaxDegree() > 8 {
		t.Errorf("auto params degraded: Delta = %d", s.MaxDegree())
	}
}

func TestBuildExplicitDims(t *testing.T) {
	s, err := build(0, 0, "2,4,7")
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != 3 || s.N() != 7 {
		t.Errorf("k=%d n=%d", s.K(), s.N())
	}
	if _, err := build(0, 0, "2,x"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := build(0, 0, "7,2"); err == nil {
		t.Error("expected validation error")
	}
	// Whitespace tolerated.
	if _, err := build(0, 0, " 3 , 9 "); err != nil {
		t.Errorf("whitespace dims rejected: %v", err)
	}
}

// TestPlanReplayRoundTrip drives the write-once/verify-many subcommand
// pair end to end through a temp file.
func TestPlanReplayRoundTrip(t *testing.T) {
	cube, err := buildCube(2, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.shcp")
	var out, errOut strings.Builder
	if err := runPlan(&out, &errOut, cube, "broadcast", 3, path, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "broadcast scheme from 3") {
		t.Errorf("plan output: %q", out.String())
	}
	out.Reset()
	if err := runReplay(&out, &errOut, path, false, -1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "minimum time: true") {
		t.Errorf("replay output: %q", out.String())
	}

	// A truncated file must fail replay, not pass quietly — and its
	// violation listing must land on stderr, not in the parseable stdout.
	enc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.shcp")
	if err := os.WriteFile(trunc, enc[:len(enc)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if err := runReplay(&out, &errOut, trunc, false, -1); err == nil {
		t.Fatal("truncated plan replayed successfully")
	}
	if strings.Contains(out.String(), "replay:") {
		t.Errorf("violations leaked onto stdout: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "replay:") {
		t.Errorf("violations missing from stderr: %q", errOut.String())
	}
	if !strings.Contains(out.String(), "valid: false") {
		t.Errorf("summary missing from stdout: %q", out.String())
	}

	if err := runPlan(&out, &errOut, cube, "nonesuch", 0, path, false); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := runReplay(&out, &errOut, "", true, -1); err == nil {
		t.Fatal("missing -in accepted")
	}
}

// TestIndexedPlanReplayRoundTrip: -index appends the serving index and
// the file still replays exactly like a plain one.
func TestIndexedPlanReplayRoundTrip(t *testing.T) {
	cube, err := buildCube(2, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(t.TempDir(), "plain.shcp")
	indexed := filepath.Join(t.TempDir(), "indexed.shcp")
	var out, errOut strings.Builder
	if err := runPlan(&out, &errOut, cube, "broadcast", 3, plain, false); err != nil {
		t.Fatal(err)
	}
	if err := runPlan(&out, &errOut, cube, "broadcast", 3, indexed, true); err != nil {
		t.Fatal(err)
	}
	pb, _ := os.ReadFile(plain)
	ib, _ := os.ReadFile(indexed)
	if len(ib) <= len(pb) {
		t.Fatalf("indexed plan (%d B) not larger than plain (%d B)", len(ib), len(pb))
	}
	out.Reset()
	if err := runReplay(&out, &errOut, indexed, false, -1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "minimum time: true") {
		t.Errorf("indexed replay output: %q", out.String())
	}
}

// TestParallelReplay drives `replay -par`: the memory-mapped parallel
// path must print exactly the summary the serial path prints, and
// -par on an unindexed plan must warn on stderr yet still verify.
func TestParallelReplay(t *testing.T) {
	cube, err := buildCube(2, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	indexed := filepath.Join(t.TempDir(), "indexed.shcp")
	plain := filepath.Join(t.TempDir(), "plain.shcp")
	var out, errOut strings.Builder
	if err := runPlan(&out, &errOut, cube, "broadcast", 3, indexed, true); err != nil {
		t.Fatal(err)
	}
	if err := runPlan(&out, &errOut, cube, "broadcast", 3, plain, false); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := runReplay(&out, &errOut, indexed, false, -1); err != nil {
		t.Fatal(err)
	}
	serial := out.String()
	for _, par := range []int{0, 1, 4} {
		out.Reset()
		errOut.Reset()
		if err := runReplay(&out, &errOut, indexed, false, par); err != nil {
			t.Fatal(err)
		}
		if out.String() != serial {
			t.Errorf("-par %d summary diverged:\n%q\n%q", par, out.String(), serial)
		}
		if strings.Contains(errOut.String(), "warning") {
			t.Errorf("-par %d warned on an indexed plan: %q", par, errOut.String())
		}
	}

	// Unindexed plan: warn (stderr only), verify serially, same summary.
	out.Reset()
	errOut.Reset()
	if err := runReplay(&out, &errOut, plain, false, 4); err != nil {
		t.Fatal(err)
	}
	if out.String() != serial {
		t.Errorf("unindexed -par summary diverged:\n%q\n%q", out.String(), serial)
	}
	if !strings.Contains(errOut.String(), "no round index") {
		t.Errorf("missing unindexed warning: %q", errOut.String())
	}

	// An indexed gossip plan verifies under its custom model — -par must
	// say so instead of silently running serial.
	gossip := filepath.Join(t.TempDir(), "gossip.shcp")
	cube8, err := buildCube(2, 8, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := runPlan(&out, &errOut, cube8, "gossip", 0, gossip, true); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errOut.Reset()
	if err := runReplay(&out, &errOut, gossip, false, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errOut.String(), "custom model") {
		t.Errorf("missing custom-model warning: %q", errOut.String())
	}
}

// TestParseDims pins the flag validation: duplicates and out-of-range
// entries are rejected with the offender named.
func TestParseDims(t *testing.T) {
	for _, tc := range []struct {
		in      string
		wantErr string
	}{
		{"2,5,12", ""},
		{" 3 , 9 ", ""},
		{"2,x", `bad -dims entry "x"`},
		{"2,5,5,12", "duplicate -dims entry 5"},
		{"7,2", "-dims entry 2 out of order after 7"},
		{"0,3", "-dims entry 0 outside [1,64]"},
		{"-4", "-dims entry -4 outside [1,64]"},
		{"2,65", "-dims entry 65 outside [1,64]"},
	} {
		vec, err := parseDims(tc.in)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("parseDims(%q): unexpected error %v", tc.in, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("parseDims(%q) accepted: %v", tc.in, vec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseDims(%q) error = %q, want it to name the offender as %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestGossipPlanReplayRoundTrip drives the gossip half of the
// write-once/verify-many pair: a streamed 2^15-vertex gather-scatter plan
// — past the old serial simulation cap — written to disk and replayed
// through the streamed gossip validator to full completion.
func TestGossipPlanReplayRoundTrip(t *testing.T) {
	cube, err := buildCube(2, 15, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "gossip.shcp")
	var out, errOut strings.Builder
	if err := runPlan(&out, &errOut, cube, "gossip", 5, path, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gossip scheme from 5") {
		t.Errorf("plan output: %q", out.String())
	}
	out.Reset()
	if err := runReplay(&out, &errOut, path, false, -1); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "rounds: 30") || !strings.Contains(got, "complete: true") {
		t.Errorf("gossip replay output: %q", got)
	}
}

// TestDistVerify drives `verify -in plan.shcp -workers ...` against an
// httptest planserver fleet: the printed summary must match what a
// local replay prints, URLs without a scheme get http:// prefixed, and
// the error paths (missing -in, no usable endpoints) refuse up front.
func TestDistVerify(t *testing.T) {
	cube, err := buildCube(2, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.shcp")
	var out, errOut strings.Builder
	if err := runPlan(&out, &errOut, cube, "broadcast", 3, path, true); err != nil {
		t.Fatal(err)
	}
	var urls []string
	for range 2 {
		ts := httptest.NewServer(planserver.New().Handler())
		defer ts.Close()
		urls = append(urls, strings.TrimPrefix(ts.URL, "http://"))
	}
	out.Reset()
	errOut.Reset()
	if err := runDistVerify(&out, &errOut, path, strings.Join(urls, ","), false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "minimum time: true") {
		t.Errorf("distverify output: %q", out.String())
	}

	var serial strings.Builder
	if err := runReplay(&serial, &errOut, path, false, -1); err != nil {
		t.Fatal(err)
	}
	if want := out.String(); !strings.HasSuffix(serial.String(), want) {
		t.Errorf("summary diverged from serial replay:\ndist:   %q\nserial: %q", want, serial.String())
	}

	if err := runDistVerify(&out, &errOut, "", urls[0], true); err == nil {
		t.Error("missing -in accepted")
	}
	if err := runDistVerify(&out, &errOut, path, " , ", true); err == nil {
		t.Error("empty worker list accepted")
	}
	missing := filepath.Join(t.TempDir(), "missing.shcp")
	if err := runDistVerify(&out, &errOut, missing, urls[0], true); err == nil {
		t.Error("missing plan file accepted")
	}
}

// TestVerifyRefusesBeyondCaps: verify checks each source through
// Plan.Verify, so a cube past the streamed validator's caps is refused
// at once instead of materialising 2^27-vertex schedules.
func TestVerifyRefusesBeyondCaps(t *testing.T) {
	cube, err := buildCube(2, 27, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var out strings.Builder
	err = runVerify(&out, cube, 1)
	if err == nil || !strings.Contains(err.Error(), "simulation-cap-exceeded") {
		t.Fatalf("verify -n 27: err %v, want a simulation-cap-exceeded refusal", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("verify -n 27 took %v to refuse, want under a second", d)
	}
	if out.Len() != 0 {
		t.Errorf("refused verify printed %q", out.String())
	}
}

// TestVerifySources: a valid run keeps its one OK line.
func TestVerifySources(t *testing.T) {
	cube, err := buildCube(2, 10, "")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runVerify(&out, cube, 8); err != nil {
		t.Fatal(err)
	}
	if want := "OK: 8 sources broadcast in 10 rounds with calls <= 2\n"; out.String() != want {
		t.Errorf("verify output %q, want %q", out.String(), want)
	}
}
