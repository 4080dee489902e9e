package main

import (
	"cmp"
	"encoding/json"
	"io"
	"iter"
	"maps"
	"slices"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans are recorded by the
// benchmark around calls into the program's layers; the program itself
// carries no instrumentation.
type span struct {
	Name   string        `json:"name"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Op     int           `json:"op"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	// Busy is the time actually spent inside the span: End-Start for an
	// ordinary span; for the producer side of an iterator boundary (Split)
	// only the intervals spent producing, which interleave with the
	// consumer's work between Start and End.
	Busy  time.Duration `json:"busy_ns"`
	Split bool          `json:"split,omitempty"`
}

// tracer keeps the spans of a traced run in memory until the run ends.
// It is safe for concurrent use.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now()}
}

// begin opens a span and returns its id; close it with end.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Op: op, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.Busy = now, now-s.Start
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
}

// split wraps seq, the producer side of an iterator boundary whose
// consumer runs inside span parent. The time spent inside seq is recorded
// as one Split span named name under parent: Start at the first pull,
// End when the stream ends, Busy the sum of the producing intervals. The
// consumer's share is what remains of the parent, its self time, so the
// two add up to the wall time of the pipeline. each, when non-nil, sees
// every yielded value (to count work); its time counts as producing.
func split[T any](t *tracer, name string, parent, op int, seq iter.Seq[T], each func(T)) iter.Seq[T] {
	return func(yield func(T) bool) {
		start := time.Now()
		mark := start
		var busy time.Duration
		defer func() {
			end := time.Now()
			busy += end.Sub(mark)
			t.record(span{Name: name, Parent: parent, Op: op,
				Start: start.Sub(t.epoch), End: end.Sub(t.epoch), Busy: busy, Split: true})
		}()
		for v := range seq {
			if each != nil {
				each(v)
			}
			busy += time.Since(mark)
			ok := yield(v)
			mark = time.Now()
			if !ok {
				return
			}
		}
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns every span's self time: its Busy time minus the part
// of it its children cover. Ordinary children cover the union of their
// intervals, clipped to the parent, so children that overlap are not
// counted twice. A Split child covers its Busy time, which by
// construction lies in gaps of its parent's own work.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		var covered time.Duration
		var ivs [][2]time.Duration
		for _, c := range children[s.ID] {
			if c.Split {
				covered += c.Busy
				continue
			}
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
		var curLo, curHi time.Duration
		for j, iv := range ivs {
			switch {
			case j == 0:
				curLo, curHi = iv[0], iv[1]
			case iv[0] > curHi:
				covered += curHi - curLo
				curLo, curHi = iv[0], iv[1]
			default:
				curHi = max(curHi, iv[1])
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		self[i] = max(0, s.Busy-covered)
	}
	return self
}

// spanTotals sums, per span name, the Busy and self times of spans.
type spanTotals struct {
	busy, self time.Duration
}

func summarize(spans []span) map[string]spanTotals {
	self := selfTimes(spans)
	out := make(map[string]spanTotals)
	for i, s := range spans {
		tot := out[s.Name]
		tot.busy += s.Busy
		tot.self += self[i]
		out[s.Name] = tot
	}
	return out
}

// writeSpans writes spans as JSON lines.
func (t *tracer) writeSpans(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// counters accumulates exact work counts (calls, hops, bytes, requests)
// by name. It is safe for concurrent use.
type counters struct {
	mu sync.Mutex
	m  map[string]int64
}

func (c *counters) add(name string, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += v
}

func (c *counters) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return maps.Clone(c.m)
}
