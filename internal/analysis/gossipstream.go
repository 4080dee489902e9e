package analysis

import (
	"time"

	"sparsehypercube/internal/core"
	"sparsehypercube/internal/linecomm"
)

// RunGossipStream exercises the streamed gossip engine end to end
// (EXP-GOSSIP-STREAM): per n it generates the 2n-round gather-scatter
// scheme round by round (core.ScheduleGossipRounds, k = 2, root 0) and
// feeds it straight into the streamed telephone-model validator
// (linecomm.ValidateGossipStream with the root as hub), so the doubled
// schedule is never materialised. Every vertex is a token source — the
// paper's full gossip problem — and the hub certificate decides it
// exactly up to n = 22, the largest cube whose gather-scatter fits
// MaxGossipCertifyExchanges. Wall time is the perf-trajectory quantity.
func RunGossipStream(nMin, nMax int) *Table {
	t := &Table{
		ID:    "EXP-GOSSIP-STREAM",
		Title: "Streamed gather-scatter gossip pipeline (SS5 at the n >= 18 regime)",
		Headers: []string{"k", "n", "N", "sources", "calls", "rounds",
			"maxlen", "valid", "complete", "min-known", "ms"},
	}
	const k = 2
	for n := nMin; n <= nMax; n++ {
		p, err := core.AutoParams(k, n)
		if err != nil {
			continue
		}
		s, err := core.New(p)
		if err != nil {
			continue
		}
		order := s.Order()
		if 2*(order-1) > linecomm.MaxGossipCertifyExchanges {
			t.Note("stopped at n = %d: gather-scatter beyond the %d-exchange certificate log", n-1, linecomm.MaxGossipCertifyExchanges)
			break
		}
		calls := 0
		counted := func(yield func(linecomm.Round) bool) {
			for r := range s.ScheduleGossipRounds(0) {
				calls += len(r)
				if !yield(r) {
					return
				}
			}
		}
		start := time.Now()
		res := linecomm.ValidateGossipStream(s, k, 0, counted)
		elapsed := time.Since(start)
		t.AddRow(k, n, order, "all", calls, res.Rounds, res.MaxCallLength,
			res.Valid(), res.Complete, res.MinKnown, elapsed.Seconds()*1e3)
	}
	t.Note("Rounds are rebuilt from the precomputed broadcast frontier and validated as they stream, so the doubled schedule never exists in memory; completeness is decided by the hub certificate in a few linear passes over the exchange log, with the token-shard simulation (order x tokens <= %d cells) as its fallback.", linecomm.MaxGossipSimulateCells)
	return t
}
