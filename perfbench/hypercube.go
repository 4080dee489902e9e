package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"time"

	"sparsehypercube"
	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
	"sparsehypercube/internal/schedio"
)

// hypercubePool is how many seeded broadcast sources the hypercube
// workload cycles through.
const hypercubePool = 4

// hypercube is the hypercube-n18 workload. One op generates the k = 2
// broadcast from a seeded source, encodes it as an indexed plan into a
// reused buffer, replays it with ReadPlanAt and verifies it (parallel
// over round ranges), then verifies all-source gossip on the n = 14 cube.
type hypercube struct {
	cnt         counters
	cube, gcube *sparsehypercube.Cube
	ccore       *core.SparseHypercube // the broadcast cube, for the layer-level traced op
	sources     []uint64
	ref, gref   []sparsehypercube.Report
	buf         bytes.Buffer
	verifyCPU   time.Duration // process CPU inside the traced ops' Plan.Verify
}

func newHypercube(n, gossipN int, seed int64) (*hypercube, error) {
	h := &hypercube{}
	var err error
	if h.cube, err = sparsehypercube.New(2, n); err != nil {
		return nil, err
	}
	if h.gcube, err = sparsehypercube.New(2, gossipN); err != nil {
		return nil, err
	}
	if h.ccore, err = core.NewAuto(2, n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(uint64(seed), 0x68797065726375))
	seen := make(map[uint64]bool)
	for len(h.sources) < hypercubePool {
		src := rng.Uint64N(h.cube.Order())
		if !seen[src] {
			seen[src] = true
			h.sources = append(h.sources, src)
		}
	}
	// References come from the generative serial pass, which shares no
	// codec or range-split code with the op.
	for _, src := range h.sources {
		rep := h.cube.Plan(sparsehypercube.BroadcastScheme{Source: src}).Verify()
		if !rep.Valid || !rep.Complete || rep.Rounds != n {
			return nil, fmt.Errorf("reference broadcast from %d: %+v", src, rep)
		}
		h.ref = append(h.ref, rep)
		grep := h.gcube.Plan(sparsehypercube.GossipScheme{Root: h.gossipRoot(src)}).Verify()
		if !grep.Valid || !grep.Complete {
			return nil, fmt.Errorf("reference gossip from %d: %+v", h.gossipRoot(src), grep)
		}
		h.gref = append(h.gref, grep)
	}
	return h, nil
}

func (h *hypercube) gossipRoot(src uint64) uint64 { return src % h.gcube.Order() }
func (h *hypercube) clients() int                 { return 1 }
func (h *hypercube) counts() *counters            { return &h.cnt }
func (h *hypercube) close()                       {}

// encode writes the indexed plan from src into the reused buffer.
func (h *hypercube) encode(src uint64) ([]byte, error) {
	h.buf.Reset()
	if _, err := h.cube.Plan(sparsehypercube.BroadcastScheme{Source: src}).WriteIndexedTo(&h.buf); err != nil {
		return nil, err
	}
	return h.buf.Bytes(), nil
}

func (h *hypercube) op(_, i int, tr *tracer, opID int) error {
	k := i % len(h.sources)
	if tr != nil {
		return h.tracedOp(k, tr, opID)
	}
	src := h.sources[k]
	data, err := h.encode(src)
	if err != nil {
		return err
	}
	plan, err := sparsehypercube.ReadPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	if rep := plan.Verify(); !reflect.DeepEqual(rep, h.ref[k]) {
		return fmt.Errorf("broadcast from %d: report %+v, want %+v", src, rep, h.ref[k])
	}
	root := h.gossipRoot(src)
	if rep := h.gcube.Plan(sparsehypercube.GossipScheme{Root: root}).Verify(); !reflect.DeepEqual(rep, h.gref[k]) {
		return fmt.Errorf("gossip from %d: report %+v, want %+v", root, rep, h.gref[k])
	}
	return nil
}

// tracedOp is op with each layer call and each iterator boundary between
// layers in its own span. It does the same work as op:
// Plan.WriteIndexedTo is schedio.WriteIndexed over core.ScheduleRounds,
// and a GossipScheme plan's Verify is GossipScheme.VerifyPlan over
// GossipScheme.Rounds.
func (h *hypercube) tracedOp(k int, tr *tracer, opID int) error {
	src := h.sources[k]
	opSpan := tr.begin("op", -1, opID)
	defer tr.end(opSpan)

	h.buf.Reset()
	hdr := schedio.Header{K: h.cube.K(), Dims: h.cube.Dims(), Scheme: "broadcast", Source: src}
	id := tr.begin("schedio.WriteIndexed", opSpan, opID)
	n, err := schedio.WriteIndexed(&h.buf, hdr, split(tr, "core.ScheduleRounds", id, opID,
		h.ccore.ScheduleRounds(src), func(r linecomm.Round) { h.cnt.add("core.calls", int64(len(r))) }))
	tr.end(id)
	if err != nil {
		return err
	}
	h.cnt.add("schedio.plan_bytes", n)
	data := h.buf.Bytes()

	id = tr.begin("sparsehypercube.ReadPlanAt", opSpan, opID)
	plan, err := sparsehypercube.ReadPlanAt(bytes.NewReader(data), int64(len(data)))
	tr.end(id)
	if err != nil {
		return err
	}
	id = tr.begin("sparsehypercube.Plan.Verify", opSpan, opID)
	cpu0 := cpuTime()
	rep := plan.Verify()
	h.verifyCPU += cpuTime() - cpu0
	tr.end(id)
	if !reflect.DeepEqual(rep, h.ref[k]) {
		return fmt.Errorf("broadcast from %d: report %+v, want %+v", src, rep, h.ref[k])
	}

	gs := sparsehypercube.GossipScheme{Root: h.gossipRoot(src)}
	id = tr.begin("sparsehypercube.GossipScheme.VerifyPlan", opSpan, opID)
	got := gs.VerifyPlan(h.gcube, split(tr, "sparsehypercube.GossipScheme.Rounds", id, opID,
		gs.Rounds(h.gcube), func(r []sparsehypercube.Call) { h.cnt.add("linecomm.gossip_calls", int64(len(r))) }))
	tr.end(id)
	if !reflect.DeepEqual(got, h.gref[k]) {
		return fmt.Errorf("gossip from %d: report %+v, want %+v", gs.Root, got, h.gref[k])
	}
	return nil
}

// diag re-verifies the plan the traced op left in the buffer: serially
// through the facade (WithVerifyWorkers(1)), and as the bare serial
// pipeline schedio decoder -> linecomm.ValidateStream, which splits the
// serial verify into decode and validate.
func (h *hypercube) diag(i int, tr *tracer) error {
	k := i % len(h.sources)
	src, data := h.sources[k], h.buf.Bytes()
	ds := tr.begin("diag", -1, i)
	defer tr.end(ds)

	id := tr.begin("sparsehypercube.Plan.Verify/serial", ds, i)
	plan, err := sparsehypercube.ReadPlanAt(bytes.NewReader(data), int64(len(data)), sparsehypercube.WithVerifyWorkers(1))
	if err != nil {
		tr.end(id)
		return err
	}
	rep := plan.Verify()
	tr.end(id)
	if !reflect.DeepEqual(rep, h.ref[k]) {
		return fmt.Errorf("serial verify from %d: report %+v, want %+v", src, rep, h.ref[k])
	}

	id = tr.begin("schedio.OpenPlanAt", ds, i)
	at, err := schedio.OpenPlanAt(bytes.NewReader(data), int64(len(data)))
	tr.end(id)
	if err != nil {
		return err
	}
	dec, err := at.NewDecoder()
	if err != nil {
		return err
	}
	id = tr.begin("linecomm.ValidateStream", ds, i)
	res := linecomm.ValidateStream(h.ccore, h.cube.K(), src, split(tr, "schedio.Decoder.Rounds", id, i,
		dec.Rounds(), func(r linecomm.Round) { h.cnt.add("linecomm.hops", hops(r)) }))
	tr.end(id)
	if err := dec.Err(); err != nil {
		return err
	}
	h.cnt.add("schedio.decode_bytes", dec.Consumed())
	if got := reportOf(res); !reflect.DeepEqual(got, h.ref[k]) {
		return fmt.Errorf("decoded stream from %d: report %+v, want %+v", src, got, h.ref[k])
	}
	return nil
}

// check compares the parallel range-split Report with the serial one on
// the first pooled plan.
func (h *hypercube) check() error {
	data, err := h.encode(h.sources[0])
	if err != nil {
		return err
	}
	par, err := sparsehypercube.ReadPlanAt(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return err
	}
	ser, err := sparsehypercube.ReadPlanAt(bytes.NewReader(data), int64(len(data)), sparsehypercube.WithVerifyWorkers(1))
	if err != nil {
		return err
	}
	if !par.Indexed() {
		return fmt.Errorf("encoded plan carries no round index")
	}
	if p, s := par.Verify(), ser.Verify(); !reflect.DeepEqual(p, s) {
		return fmt.Errorf("parallel report %+v, serial %+v", p, s)
	}
	return nil
}

func (h *hypercube) layers(sum map[string]spanTotals, ops int, m map[string]float64) {
	ms := func(d time.Duration) float64 { return perOp(float64(d)/float64(time.Millisecond), ops) }
	m["core.generate_ms"] = ms(sum["core.ScheduleRounds"].busy)
	m["schedio.encode_ms"] = ms(sum["schedio.WriteIndexed"].self)
	m["schedio.open_ms"] = ms(sum["schedio.OpenPlanAt"].busy)
	m["schedio.decode_ms"] = ms(sum["schedio.Decoder.Rounds"].busy)
	m["linecomm.validate_ms"] = ms(sum["linecomm.ValidateStream"].self)
	m["sparsehypercube.verify_ms"] = ms(sum["sparsehypercube.Plan.Verify"].busy)
	m["sparsehypercube.verify_serial_ms"] = ms(sum["sparsehypercube.Plan.Verify/serial"].busy)
	m["sparsehypercube.verify_cpu_ms"] = ms(h.verifyCPU)
	m["core.gossip_generate_ms"] = ms(sum["sparsehypercube.GossipScheme.Rounds"].busy)
	m["linecomm.gossip_validate_ms"] = ms(sum["sparsehypercube.GossipScheme.VerifyPlan"].self)
}

// hops counts the edges the calls of one round occupy.
func hops(r linecomm.Round) int64 {
	var n int64
	for _, c := range r {
		n += int64(max(0, len(c.Path)-1))
	}
	return n
}

// reportOf is the facade's Report for a broadcast validation result.
func reportOf(res *linecomm.Result) sparsehypercube.Report {
	rep := sparsehypercube.Report{
		Valid:         res.Valid(),
		Complete:      res.Complete,
		MinimumTime:   res.MinimumTime,
		Rounds:        len(res.InformedPerRound),
		MaxCallLength: res.MaxCallLength,
	}
	for _, v := range res.Violations {
		rep.Violations = append(rep.Violations, v.String())
	}
	return rep
}
