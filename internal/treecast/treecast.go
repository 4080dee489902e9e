// Package treecast schedules line broadcasts (unbounded call length, the
// k = N-1 end of the paper's scale) on arbitrary trees. The paper's §2
// recalls that every connected graph is a minimal (N-1)-line broadcast
// graph [Farley 1980]; this package makes that end of the scale
// executable: a territory-splitting scheduler that achieves the
// ceil(log2 N) minimum on most trees and never exceeds it by much, plus
// exact certification for small trees via the exhaustive checker.
//
// Scheduling model: territories are edge-disjoint subtrees, each with one
// informed owner. Each round every owner calls a vertex v in its
// territory; the territory then splits at a cut vertex into the owner's
// side and v's side. Both sides remain subtrees sharing only the cut
// vertex, so calls of different territories stay edge-disjoint forever.
// The split search (cut vertex x subset-sum over component sizes) finds a
// split meeting the doubling budget whenever one exists in this family;
// when none exists (rare — see the spider counterexample in the tests),
// the scheduler takes the most balanced split available and may spend one
// extra round. Optimal schedules routing through foreign territories
// (which the line model permits) can beat the split family; the
// exhaustive checker certifies those cases independently.
package treecast

import (
	"fmt"
	"sort"

	"sparsehypercube/internal/graph"
	"sparsehypercube/internal/intmath"
	"sparsehypercube/internal/linecomm"
)

// Planner schedules line broadcasts on one tree.
type Planner struct {
	g *graph.Graph
	n int
}

// New validates that g is a tree and returns a planner.
func New(g *graph.Graph) (*Planner, error) {
	if !graph.IsTree(g) {
		return nil, fmt.Errorf("treecast: graph is not a tree")
	}
	return &Planner{g: g, n: g.NumVertices()}, nil
}

// MinimumRounds returns ceil(log2 N).
func (p *Planner) MinimumRounds() int {
	return intmath.CeilLog2(uint64(p.n))
}

// territory is a subtree with exactly one informed owner; member records
// membership, uninformed the vertices still to reach (owner excluded,
// shared cut vertices counted in exactly one territory).
type territory struct {
	owner      int
	member     map[int]bool
	uninformed map[int]bool
}

// Schedule computes a line broadcast from src. The result is always a
// valid schedule informing every vertex; Rounds is ceil(log2 N) whenever
// the split family suffices (always on paths, stars, complete binary
// trees, tri-trees, and random trees in the tests) and at most a round or
// two more otherwise.
func (p *Planner) Schedule(src int) (*linecomm.Schedule, error) {
	if src < 0 || src >= p.n {
		return nil, fmt.Errorf("treecast: source %d outside [0,%d)", src, p.n)
	}
	root := &territory{
		owner:      src,
		member:     make(map[int]bool, p.n),
		uninformed: make(map[int]bool, p.n),
	}
	for v := 0; v < p.n; v++ {
		root.member[v] = true
		if v != src {
			root.uninformed[v] = true
		}
	}
	sched := &linecomm.Schedule{Source: uint64(src)}
	active := []*territory{root}
	for budget := p.MinimumRounds(); ; budget-- {
		var round linecomm.Round
		var next []*territory
		progress := false
		for _, t := range active {
			if len(t.uninformed) == 0 {
				continue
			}
			a, b, call := p.split(t, budget)
			round = append(round, call)
			progress = true
			if len(a.uninformed) > 0 {
				next = append(next, a)
			}
			if len(b.uninformed) > 0 {
				next = append(next, b)
			}
		}
		if !progress {
			break
		}
		sched.Rounds = append(sched.Rounds, round)
		active = next
		if len(sched.Rounds) > 4*p.n {
			return nil, fmt.Errorf("treecast: scheduler failed to converge")
		}
	}
	return sched, nil
}

// split chooses a cut vertex and a component grouping for territory t,
// preferring splits that fit the remaining budget (both sides coverable
// in budget-1 rounds), falling back to the most balanced split found.
// It returns the two successor territories and the owner's call.
func (p *Planner) split(t *territory, budget int) (*territory, *territory, linecomm.Call) {
	q := len(t.uninformed)
	// Feasible window for the owner-side count a: the far side gets
	// q - a uninformed, one of which is informed by this round's call.
	// Need a <= 2^(budget-1) - 1 and q - a <= 2^(budget-1).
	half := 1
	if budget >= 1 {
		half = 1 << uint(budget-1)
	}
	bestScore := -1 << 30
	var bestA, bestB map[int]bool // vertex sets (components), owner side / far side
	var bestCut int

	// Deterministic cut order: map iteration order must not influence the
	// schedule (ties are broken toward the smallest cut vertex).
	cuts := make([]int, 0, len(t.member))
	for v := range t.member {
		cuts = append(cuts, v)
	}
	sort.Ints(cuts)
	for _, cut := range cuts {
		comps := p.componentsWithin(t, cut)
		if len(comps) == 0 {
			continue
		}
		// Locate the owner's component (owner may be the cut itself).
		ownerComp := -1
		for i, c := range comps {
			if c.members[t.owner] {
				ownerComp = i
			}
		}
		cutWeight := 0
		if t.uninformed[cut] {
			cutWeight = 1
		}
		// Choose a subset of components (always including the owner's,
		// when the owner is not the cut) for the owner side, minimising
		// the doubling overshoot. The cut vertex is counted on the far
		// side. Subset-sum DP over uninformed counts.
		assign := chooseGrouping(comps, ownerComp, cutWeight, half)
		if assign == nil {
			continue
		}
		aSet := map[int]bool{}
		bSet := map[int]bool{}
		aCount, bCount := 0, cutWeight
		for i, c := range comps {
			dst := bSet
			if assign[i] {
				dst = aSet
			}
			for v := range c.members {
				dst[v] = true
			}
			if assign[i] {
				aCount += c.uninformed
			} else {
				bCount += c.uninformed
			}
		}
		if bCount == 0 {
			continue // the far side must contain the call target
		}
		// Score: feasible splits (both sides within budget) beat
		// infeasible ones; among them prefer balance.
		feasible := aCount <= half-1 && bCount <= half
		score := -abs(aCount - (q - q/2 - 1))
		if feasible {
			score += 1 << 20
		}
		if score > bestScore {
			bestScore = score
			bestA, bestB, bestCut = aSet, bSet, cut
		}
	}

	// Build successor territories. The far side's new owner is the
	// nearest uninformed vertex to the old owner within the far side
	// (often the cut vertex itself).
	aT := &territory{owner: t.owner, member: bestA, uninformed: map[int]bool{}}
	aT.member[bestCut] = true
	for v := range bestA {
		if t.uninformed[v] && v != bestCut {
			aT.uninformed[v] = true
		}
	}
	bT := &territory{member: bestB, uninformed: map[int]bool{}}
	bT.member[bestCut] = true
	for v := range bestB {
		if t.uninformed[v] {
			bT.uninformed[v] = true
		}
	}
	if t.uninformed[bestCut] {
		bT.uninformed[bestCut] = true
	}
	target := p.nearestUninformed(t.owner, bT)
	delete(bT.uninformed, target)
	bT.owner = target
	call := linecomm.Call{Path: p.pathWithin(t, t.owner, target)}
	return aT, bT, call
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// component is a connected piece of a territory minus its cut vertex.
type component struct {
	members    map[int]bool
	uninformed int
}

// componentsWithin returns the connected components of t's subtree with
// cut removed, in deterministic order (smallest contained vertex first).
func (p *Planner) componentsWithin(t *territory, cut int) []component {
	seen := map[int]bool{cut: true}
	var comps []component
	for _, start := range sortedKeys(t.member) {
		if seen[start] {
			continue
		}
		c := component{members: map[int]bool{}}
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c.members[v] = true
			if t.uninformed[v] {
				c.uninformed++
			}
			for _, w := range p.g.Neighbors(v) {
				wi := int(w)
				if t.member[wi] && !seen[wi] {
					seen[wi] = true
					stack = append(stack, wi)
				}
			}
		}
		comps = append(comps, c)
	}
	return comps
}

// chooseGrouping picks which components go to the owner side: assign[i]
// true means component i is on the owner's side. ownerComp (if >= 0) is
// forced to the owner side; cutWeight (the cut vertex's uninformed count)
// lands on the far side. Returns nil when no grouping leaves the far side
// nonempty. Prefers groupings with ownerSide <= half-1 and
// farSide <= half; otherwise minimises the larger side.
func chooseGrouping(comps []component, ownerComp, cutWeight, half int) []bool {
	total := cutWeight
	for _, c := range comps {
		total += c.uninformed
	}
	type cand struct {
		idx    int
		weight int
	}
	var free []cand
	base := 0
	if ownerComp >= 0 {
		base = comps[ownerComp].uninformed
	}
	for i, c := range comps {
		if i != ownerComp {
			free = append(free, cand{i, c.uninformed})
		}
	}
	// Subset-sum DP over free components tracking one witness per sum.
	// All iteration is over sorted keys so the chosen witness — and hence
	// the whole schedule — is a pure function of the tree and source.
	type entry struct {
		prev   int // index into entries of predecessor
		picked int // free index picked, -1 at root
	}
	sums := map[int]int{base: 0} // ownerSide weight -> entry index
	entries := []entry{{prev: -1, picked: -1}}
	order := make([]cand, len(free))
	copy(order, free)
	sort.Slice(order, func(i, j int) bool {
		if order[i].weight != order[j].weight {
			return order[i].weight > order[j].weight
		}
		return order[i].idx < order[j].idx
	})
	for fi, c := range order {
		keys := sortedKeys(sums)
		for _, s := range keys {
			ei := sums[s]
			ns := s + c.weight
			if _, ok := sums[ns]; !ok {
				entries = append(entries, entry{prev: ei, picked: fi})
				sums[ns] = len(entries) - 1
			}
		}
	}
	// Pick the best achievable owner-side sum. The far side holds
	// far = total - s uninformed (cut weight included via total) and must
	// be nonempty to host the call target.
	bestSum, bestScore := -1, -1<<30
	for _, s := range sortedKeys(sums) {
		far := total - s
		if far < 1 {
			continue
		}
		feasible := s <= half-1 && far <= half
		score := -max(s, far)
		if feasible {
			score += 1 << 20
		}
		if score > bestScore {
			bestScore, bestSum = score, s
		}
	}
	if bestSum < 0 {
		return nil
	}
	assign := make([]bool, len(comps))
	if ownerComp >= 0 {
		assign[ownerComp] = true
	}
	for ei := sums[bestSum]; ei > 0 || entries[ei].picked >= 0; ei = entries[ei].prev {
		e := entries[ei]
		if e.picked < 0 {
			break
		}
		assign[order[e.picked].idx] = true
		if e.prev < 0 {
			break
		}
	}
	return assign
}

// nearestUninformed returns the uninformed vertex of bT closest to from
// in the tree (BFS over the whole tree; the unique tree path determines
// distance). Ties break toward the smallest vertex id for determinism.
func (p *Planner) nearestUninformed(from int, bT *territory) int {
	dist := graph.BFS(p.g, from)
	best, bestD := -1, 1<<30
	for _, v := range sortedKeys(bT.uninformed) {
		if int(dist[v]) < bestD {
			best, bestD = v, int(dist[v])
		}
	}
	return best
}

// sortedKeys returns the keys of an int-keyed map in increasing order.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// pathWithin returns the unique tree path from u to v.
func (p *Planner) pathWithin(t *territory, u, v int) []uint64 {
	ipath := graph.ShortestPath(p.g, u, v)
	path := make([]uint64, len(ipath))
	for i, x := range ipath {
		path[i] = uint64(x)
	}
	return path
}
