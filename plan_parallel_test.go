package sparsehypercube

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"sparsehypercube/internal/schedio"
)

// indexedPlanBytes encodes the cube's broadcast plan from src with the
// per-round index — the parallel-verification substrate.
func indexedPlanBytes(t *testing.T, cube *Cube, src uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := cube.Plan(BroadcastScheme{Source: src}).WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// verifyAt replays data through ReadPlanAt with the given worker count.
func verifyAt(t *testing.T, data []byte, workers int) Report {
	t.Helper()
	plan, err := ReadPlanAt(bytes.NewReader(data), int64(len(data)), WithVerifyWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	return plan.Verify()
}

// TestParallelVerifyMatchesSerial is the acceptance gate for parallel
// round-range verification: on intact k ∈ {1,2,3} plans the Report of
// every worker count must be reflect.DeepEqual to the serial pass (and
// to direct generate+verify).
func TestParallelVerifyMatchesSerial(t *testing.T) {
	for _, kn := range [][2]int{{1, 6}, {2, 10}, {3, 12}} {
		k, n := kn[0], kn[1]
		cube, err := New(k, n)
		if err != nil {
			t.Fatal(err)
		}
		src := cube.Order() / 3
		data := indexedPlanBytes(t, cube, src)
		direct := cube.Plan(BroadcastScheme{Source: src}).Verify()
		serial := verifyAt(t, data, 1)
		if !reflect.DeepEqual(direct, serial) {
			t.Fatalf("k=%d: serial replay diverged from direct:\n%+v\n%+v", k, direct, serial)
		}
		if !serial.Valid || !serial.MinimumTime {
			t.Fatalf("k=%d: intact plan did not verify: %+v", k, serial)
		}
		for _, w := range []int{0, 2, 3, 5, 8} {
			if got := verifyAt(t, data, w); !reflect.DeepEqual(serial, got) {
				t.Fatalf("k=%d workers=%d: parallel Report diverged:\nserial:   %+v\nparallel: %+v",
					k, w, serial, got)
			}
		}
	}
}

// mutateSchedule applies one named structural corruption to a
// materialised public schedule; cross-range effects (early uninformed
// callers, late re-informs) included on purpose.
func mutateSchedule(name string, s *Schedule, order uint64) {
	last := len(s.Rounds) - 1
	switch name {
	case "drop-middle-call":
		mid := s.Rounds[last/2]
		s.Rounds[last/2] = mid[:len(mid)-1]
	case "duplicate-call":
		r := s.Rounds[last/2]
		s.Rounds[last/2] = append(r, r[0])
	case "retarget-receiver":
		r := s.Rounds[last]
		if len(r) >= 2 {
			r[1].Path[len(r[1].Path)-1] = r[0].Path[len(r[0].Path)-1]
		}
	case "overlong-call":
		c := &s.Rounds[last][0]
		tail := c.Path[len(c.Path)-1]
		c.Path = append(c.Path, tail^1, tail^1^2)
	case "out-of-range-vertex":
		c := &s.Rounds[last/2][0]
		c.Path[len(c.Path)-1] = order + 7
	case "reinform-earlier-vertex":
		// Retarget a last-round call back along the edge that informed
		// its caller in one hop, to that informant (not the source): a
		// receiver informed rounds earlier, so in another range whenever
		// the last round has a range of its own. Only a boundary check
		// can see it.
		informant := map[uint64]uint64{}
		for _, r := range s.Rounds[:last] {
			for _, c := range r {
				if len(c.Path) == 2 && c.Path[0] != s.Source {
					informant[c.Path[1]] = c.Path[0]
				}
			}
		}
		for i, c := range s.Rounds[last] {
			if p, ok := informant[c.Path[0]]; ok {
				s.Rounds[last][i].Path = []uint64{c.Path[0], p}
				return
			}
		}
		panic("reinform-earlier-vertex: no last-round caller was informed in one hop")
	case "uninformed-early-caller":
		// Hoist the last round's first call to round 0: its caller
		// cannot know yet, and every receiver it fed stays dark longer —
		// divergence that crosses every range boundary.
		c := s.Rounds[last][0]
		s.Rounds[last] = s.Rounds[last][1:]
		s.Rounds[0] = append(s.Rounds[0], c)
	}
}

// TestParallelVerifyMutatedPlans: structurally valid but semantically
// broken plans (violations, incompleteness) must produce byte-identical
// Reports from the parallel and serial paths — the violations
// themselves, their order, and their messages included. Each mutation
// must also send at least one call past the validator's clean-call
// kernel to its exact path, the only source of violations.
func TestParallelVerifyMutatedPlans(t *testing.T) {
	names := []string{"drop-middle-call", "duplicate-call", "retarget-receiver",
		"overlong-call", "out-of-range-vertex", "uninformed-early-caller"}
	for _, kn := range [][2]int{{1, 6}, {2, 9}, {3, 12}} {
		k, n := kn[0], kn[1]
		cube, err := New(k, n)
		if err != nil {
			t.Fatal(err)
		}
		src := uint64(1)
		for _, name := range names {
			s := cube.Plan(BroadcastScheme{Source: src}).Materialize()
			mutateSchedule(name, s, cube.Order())
			var buf bytes.Buffer
			h := schedio.Header{K: cube.K(), Dims: cube.Dims(), Scheme: "broadcast", Source: src}
			if _, err := schedio.EncodeIndexed(&buf, h, toInner(s)); err != nil {
				t.Fatal(err)
			}
			count := CountCallPaths()
			serial := verifyAt(t, buf.Bytes(), 1)
			if serial.Valid && serial.Complete && serial.MinimumTime {
				t.Fatalf("k=%d %s: mutation went undetected", k, name)
			}
			if _, exact := count(); exact == 0 {
				t.Fatalf("k=%d %s: no call reached the validator's exact path", k, name)
			}
			for _, w := range []int{2, 4, 8} {
				if got := verifyAt(t, buf.Bytes(), w); !reflect.DeepEqual(serial, got) {
					t.Fatalf("k=%d %s workers=%d: Report diverged:\nserial:   %+v\nparallel: %+v",
						k, name, w, serial, got)
				}
			}
		}
	}
}

// TestParallelVerifyOpenMergeRejects: a plan whose last range re-informs
// a vertex an earlier range informed is caught only when the ranges
// merge — the last range alone assumes its receiver fresh. The merge
// must reject it, and Verify, falling back to the serial pass, must
// report exactly the serial Report.
func TestParallelVerifyOpenMergeRejects(t *testing.T) {
	for _, kn := range [][2]int{{1, 6}, {2, 9}, {3, 12}} {
		k, n := kn[0], kn[1]
		cube, err := New(k, n)
		if err != nil {
			t.Fatal(err)
		}
		const src = 1
		s := cube.Plan(BroadcastScheme{Source: src}).Materialize()
		mutateSchedule("reinform-earlier-vertex", s, cube.Order())
		var buf bytes.Buffer
		h := schedio.Header{K: cube.K(), Dims: cube.Dims(), Scheme: "broadcast", Source: src}
		if _, err := schedio.EncodeIndexed(&buf, h, toInner(s)); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		count := CountCallPaths()
		serial := verifyAt(t, data, 1)
		if _, exact := count(); exact == 0 {
			t.Fatalf("k=%d: no call reached the validator's exact path", k)
		}
		if !slices.ContainsFunc(serial.Violations, func(v string) bool {
			return strings.Contains(v, "already informed")
		}) {
			t.Fatalf("k=%d: serial Report shows no re-informed receiver: %+v", k, serial)
		}
		for _, w := range []int{2, 4, 8} {
			plan, err := ReadPlanAt(bytes.NewReader(data), int64(len(data)), WithVerifyWorkers(w))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := plan.verifyParallel(); ok {
				t.Fatalf("k=%d workers=%d: the open merge accepted a re-informed vertex", k, w)
			}
			if got := plan.Verify(); !reflect.DeepEqual(serial, got) {
				t.Fatalf("k=%d workers=%d: Report diverged:\nserial:   %+v\nparallel: %+v", k, w, serial, got)
			}
		}
	}
}

// TestParallelVerifyHugeWorkerCounts: worker counts far beyond the
// number of ranges add nothing and must cost nothing — they verify
// like any parallel count, to the serial Report (the allocation side is
// gated by TestCodecGateN16).
func TestParallelVerifyHugeWorkerCounts(t *testing.T) {
	cube, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 3)
	serial := verifyAt(t, data, 1)
	for _, w := range []int{math.MaxInt, 1 << 20} {
		plan, err := ReadPlanAt(bytes.NewReader(data), int64(len(data)), WithVerifyWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := plan.verifyParallel(); !ok {
			t.Fatalf("workers=%d: the parallel path refused an intact plan", w)
		}
		if got := plan.Verify(); !reflect.DeepEqual(serial, got) {
			t.Fatalf("workers=%d: Report diverged:\nserial:   %+v\nparallel: %+v", w, serial, got)
		}
	}
}

// TestParallelVerifyReadsOnce: a two-worker Verify of the k = 2,
// n = 16 plan of TestCodecGateN16 decodes every round range once, so it
// reads no more than the plan's size — and the fast path, not a serial
// fallback behind it, produced the Report.
func TestParallelVerifyReadsOnce(t *testing.T) {
	cube, err := New(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 5)
	cr := &CountingReaderAt{R: bytes.NewReader(data)}
	plan, err := ReadPlanAt(cr, int64(len(data)), WithVerifyWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	cr.Swap()
	if rep := plan.Verify(); !rep.Valid || !rep.MinimumTime {
		t.Fatalf("intact plan did not verify: %+v", rep)
	}
	if got := cr.Swap(); got > int64(len(data)) {
		t.Errorf("two-worker Verify read %d bytes of a %d-byte plan", got, len(data))
	}
	if _, ok := plan.verifyParallel(); !ok {
		t.Error("the parallel path refused an intact plan")
	}
}

// TestParallelVerifyCorruptedPlans: random byte corruption anywhere in
// the file must leave the parallel path's Report identical to serial —
// by detecting the anomaly (range decode failure, index disagreement,
// checksum mismatch) and deferring to the authoritative serial pass.
func TestParallelVerifyCorruptedPlans(t *testing.T) {
	cube, err := New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 3)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 60; trial++ {
		mut := append([]byte(nil), data...)
		off := rng.Intn(len(mut))
		mut[off] ^= byte(1 + rng.Intn(255))
		serialPlan, serr := ReadPlanAt(bytes.NewReader(mut), int64(len(mut)), WithVerifyWorkers(1))
		parPlan, perr := ReadPlanAt(bytes.NewReader(mut), int64(len(mut)), WithVerifyWorkers(8))
		if (serr == nil) != (perr == nil) {
			t.Fatalf("trial %d (offset %d): open split: serial err %v, parallel err %v", trial, off, serr, perr)
		}
		if serr != nil {
			continue // corruption caught at open time, identically
		}
		serial := serialPlan.Verify()
		par := parPlan.Verify()
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("trial %d (offset %d): corrupted-plan Report diverged:\nserial:   %+v\nparallel: %+v",
				trial, off, serial, par)
		}
	}
}

// TestParallelVerifyConcurrent hammers one parallel plan handle from
// many goroutines — the serving pattern — under the race detector.
func TestParallelVerifyConcurrent(t *testing.T) {
	cube, err := New(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 0)
	plan, err := ReadPlanAt(bytes.NewReader(data), int64(len(data)), WithVerifyWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Verify()
	var wg sync.WaitGroup
	reports := make([]Report, 8)
	for i := range reports {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reports[i] = plan.Verify()
		}()
	}
	wg.Wait()
	for i, got := range reports {
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("goroutine %d: %+v != %+v", i, got, want)
		}
	}
}

// TestOpenPlanFile: the mmap-backed open produces the same Reports as
// in-memory replay, parallel verification included, and Close is safe.
func TestOpenPlanFile(t *testing.T) {
	cube, err := New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 5)
	path := filepath.Join(t.TempDir(), "plan.shcp")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	want := verifyAt(t, data, 1)
	for _, w := range []int{1, 4} {
		plan, err := OpenPlanFile(path, WithVerifyWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Indexed() {
			t.Fatal("mapped plan lost its index")
		}
		if got := plan.Verify(); !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: mapped Report diverged: %+v != %+v", w, got, want)
		}
		if err := plan.Close(); err != nil {
			t.Fatal(err)
		}
		if err := plan.Close(); err != nil {
			t.Fatalf("second Close: %v", err)
		}
	}
	if _, err := OpenPlanFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("missing file accepted")
	}
	// Close on a generative plan is a no-op.
	if err := cube.Plan(BroadcastScheme{Source: 0}).Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParallelVerifyEdgeCases: plans the splitter must refuse to split
// (and verify serially instead, identically).
func TestParallelVerifyEdgeCases(t *testing.T) {
	// A gossip plan verifies through its PlanVerifier — always serial,
	// same Report at any worker setting.
	cube, err := New(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cube.Plan(GossipScheme{Root: 2}).WriteIndexedTo(&buf); err != nil {
		t.Fatal(err)
	}
	gs := verifyAt(t, buf.Bytes(), 1)
	if !gs.Valid || !gs.Complete {
		t.Fatalf("gossip plan did not verify: %+v", gs)
	}
	if got := verifyAt(t, buf.Bytes(), 8); !reflect.DeepEqual(gs, got) {
		t.Fatalf("gossip Report diverged under workers: %+v != %+v", got, gs)
	}

	// An empty plan (out-of-range origin generates no rounds) cannot be
	// split; the violation must come out the same either way.
	var empty bytes.Buffer
	if _, err := cube.Plan(BroadcastScheme{Source: cube.Order() + 5}).WriteIndexedTo(&empty); err != nil {
		t.Fatal(err)
	}
	es := verifyAt(t, empty.Bytes(), 1)
	if es.Valid {
		t.Fatalf("empty plan verified: %+v", es)
	}
	if got := verifyAt(t, empty.Bytes(), 8); !reflect.DeepEqual(es, got) {
		t.Fatalf("empty-plan Report diverged: %+v != %+v", got, es)
	}

	// An unindexed file replayed through ReadPlanAt stays serial.
	var plain bytes.Buffer
	if _, err := cube.Plan(BroadcastScheme{Source: 1}).WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	ps := verifyAt(t, plain.Bytes(), 1)
	if got := verifyAt(t, plain.Bytes(), 8); !reflect.DeepEqual(ps, got) {
		t.Fatalf("unindexed Report diverged: %+v != %+v", got, ps)
	}
	plan, err := ReadPlanAt(bytes.NewReader(plain.Bytes()), int64(plain.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Indexed() {
		t.Error("unindexed plan reports Indexed")
	}
}

// TestParallelVerifyMoreRangesThanWorkers: the byte-balanced split
// hands two workers more ranges than there are workers, and the merged
// Report still matches the serial pass.
func TestParallelVerifyMoreRangesThanWorkers(t *testing.T) {
	cube, err := New(2, 12)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 7)
	at, err := schedio.OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	bounds, err := at.SplitRounds(2 * workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds)-1 <= workers {
		t.Fatalf("split %v gives no more ranges than %d workers", bounds, workers)
	}
	serial := verifyAt(t, data, 1)
	if !serial.Valid || !serial.MinimumTime {
		t.Fatalf("intact plan did not verify: %+v", serial)
	}
	if got := verifyAt(t, data, workers); !reflect.DeepEqual(serial, got) {
		t.Fatalf("Report diverged:\nserial:   %+v\nparallel: %+v", serial, got)
	}
}

// TestParallelVerifyLastRangeCRC: every range is decoded once, so a
// corruption that decodes cleanly and lies only in the last range's
// bytes is caught by the CRC of that one decode alone. The parallel
// path must then defer to the serial pass, Report for Report.
func TestParallelVerifyLastRangeCRC(t *testing.T) {
	cube, err := New(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	data := indexedPlanBytes(t, cube, 3)
	at, err := schedio.OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	const workers = 2
	bounds, err := at.SplitRounds(2 * workers)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := bounds[len(bounds)-2], bounds[len(bounds)-1]
	span, err := at.RangeBytes(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(data, span)
	if start < 0 {
		t.Fatal("last range's bytes not found in the plan")
	}
	// Flip the low bit of a single-byte varint inside the span, keeping
	// the one whose mutated span still decodes cleanly as a range.
	mutated := -1
	for off := range span {
		if span[off]&0x80 != 0 || (off > 0 && span[off-1]&0x80 != 0) {
			continue
		}
		mut := append([]byte(nil), span...)
		mut[off] ^= 1
		rr, err := schedio.DecodeSpan(at.Header(), mut, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		for range rr.Rounds() {
		}
		if rr.Err() == nil {
			mutated = start + off
			break
		}
	}
	if mutated < 0 {
		t.Fatal("no byte of the last range mutates to a clean decode")
	}
	mut := append([]byte(nil), data...)
	mut[mutated] ^= 1
	serial := verifyAt(t, mut, 1)
	if serial.Valid {
		t.Fatalf("corrupted plan verified serially: %+v", serial)
	}
	if got := verifyAt(t, mut, workers); !reflect.DeepEqual(serial, got) {
		t.Fatalf("Report diverged:\nserial:   %+v\nparallel: %+v", serial, got)
	}
}
