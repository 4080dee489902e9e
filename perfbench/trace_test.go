package main

import (
	"iter"
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "a", ID: 0, Parent: -1, Start: 0, End: 100 * ms, Busy: 100 * ms},
		{Name: "b", ID: 1, Parent: 0, Start: 10 * ms, End: 60 * ms, Busy: 50 * ms},
		{Name: "c", ID: 2, Parent: 1, Start: 20 * ms, End: 30 * ms, Busy: 10 * ms},
		// d overlaps b: a's children cover [10,80], not 50+30.
		{Name: "d", ID: 3, Parent: 0, Start: 50 * ms, End: 80 * ms, Busy: 30 * ms},
		// e sticks out of its parent c; only the part inside c counts.
		{Name: "e", ID: 4, Parent: 2, Start: 25 * ms, End: 40 * ms, Busy: 15 * ms},
	}
	want := []time.Duration{30 * ms, 40 * ms, 5 * ms, 30 * ms, 15 * ms}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
	sum := summarize(append(spans, span{Name: "b", ID: 5, Parent: -1, Start: 0, End: 7 * ms, Busy: 7 * ms}))
	if b := sum["b"]; b.busy != 57*ms || b.self != 47*ms {
		t.Errorf("summary of b: %+v", b)
	}
}

// spin busy-waits for d, so the time is spent on this goroutine.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func producer(n int, cost time.Duration) iter.Seq[int] {
	return func(yield func(int) bool) {
		for i := range n {
			spin(cost)
			if !yield(i) {
				return
			}
		}
		spin(cost) // work after the last value is still producing
	}
}

// TestSplitSumsToPipeline pins the iterator-boundary spans: the
// producer's busy time and the consumer's self time add up to the wall
// time of the pipeline they split, and each side gets its own work.
func TestSplitSumsToPipeline(t *testing.T) {
	const n = 5
	prodCost, consCost := 2*time.Millisecond, 3*time.Millisecond
	for _, stop := range []int{0, 2} { // drain, and a consumer that stops early
		tr := newTracer()
		pipe := tr.begin("consumer", -1, 0)
		seen := 0
		for range split(tr, "producer", pipe, 0, producer(n, prodCost), func(int) { seen++ }) {
			spin(consCost)
			if seen == stop {
				break
			}
		}
		tr.end(pipe)
		spans := tr.snapshot()
		self := selfTimes(spans)
		var prod, cons span
		var consSelf time.Duration
		for i, s := range spans {
			switch s.Name {
			case "producer":
				prod = s
			case "consumer":
				cons, consSelf = s, self[i]
			}
		}
		if !prod.Split || prod.Parent != cons.ID {
			t.Fatalf("stop=%d: producer span %+v", stop, prod)
		}
		if prod.Busy+consSelf != cons.Busy {
			t.Errorf("stop=%d: producer %v + consumer %v != pipeline %v", stop, prod.Busy, consSelf, cons.Busy)
		}
		// Each side did at least its own work and, allowing for timer
		// slack, not the other side's.
		consumed, produced := stop, stop
		if stop == 0 {
			consumed, produced = n, n+1 // the producer works once more after its last value
		}
		if seen != consumed {
			t.Errorf("stop=%d: each saw %d values", stop, seen)
		}
		if minP := time.Duration(produced) * prodCost; prod.Busy < minP || prod.Busy > minP+time.Duration(consumed)*consCost/2 {
			t.Errorf("stop=%d: producer busy %v, want about %v", stop, prod.Busy, minP)
		}
		if minC := time.Duration(consumed) * consCost; consSelf < minC || consSelf > minC+time.Duration(produced)*prodCost/2 {
			t.Errorf("stop=%d: consumer self %v, want about %v", stop, consSelf, minC)
		}
	}
}

func TestCounters(t *testing.T) {
	var c counters
	c.add("x", 2)
	snap := c.snapshot()
	c.add("x", 3)
	if snap["x"] != 2 || c.snapshot()["x"] != 5 {
		t.Errorf("snapshot %v, now %v", snap, c.snapshot())
	}
}
