package core

import (
	"slices"
	"sort"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// gpAlloc is one (node, coupons) pair of a guaranteed path's allocation K̂.
type gpAlloc struct {
	node int32
	k    int32
}

// guaranteedPath is one g(s, vi): the set of users visited at levels <= the
// end user's level when the end user was reached, with the allocation K̂
// under which every traversed edge is independent. The chain and K̂ are not
// stored: chainOf and gpForest.allocOf derive them from the parent links
// and the visit order, for the few paths SCM actually tries.
type guaranteedPath struct {
	seed    int32
	end     int32
	level   int32
	parent  int32           // DFS-tree parent of end (-1 when end == seed)
	rank    int32           // end's adjacency position in parent's out-list
	index   int32           // visit index: the record's position in gpForest.paths
	up      *guaranteedPath // the parent's record (nil for the seed)
	cost    float64         // c(s, end) = Csc(K̂), closed form
	benefit float64         // b(s, end): expected benefit incl. dependent extras
}

// gpForest holds GPI's output for one run: every guaranteed path in visit
// order, each seed's paths contiguous and starting with the seed's own.
type gpForest struct {
	paths []*guaranteedPath
}

// chainOf returns the path seed → … → end through the DFS tree.
func chainOf(gp *guaranteedPath) []int32 {
	chain := make([]int32, gp.level+1)
	for r := gp; r != nil; r = r.up {
		chain[r.level] = r.end
	}
	return chain
}

// allocOf returns gp's K̂ in visit order: every user visited by then above
// the end's level that has DFS-tree children covers up to the adjacency
// position of its last child so far (DESIGN.md fidelity note 3). The
// children are the records in gp's seed segment of the visit order.
func (f *gpForest) allocOf(gp *guaranteedPath) []gpAlloc {
	root := gp
	for root.up != nil {
		root = root.up
	}
	seg := f.paths[root.index : gp.index+1]
	khat := make([]int32, len(seg))
	for _, r := range seg[1:] {
		if r.up.level < gp.level {
			khat[r.up.index-root.index] = r.rank + 1
		}
	}
	var alloc []gpAlloc
	for i, k := range khat {
		if k > 0 {
			alloc = append(alloc, gpAlloc{node: seg[i].end, k: k})
		}
	}
	return alloc
}

// The traversal prices every path incrementally. A guaranteed path ending
// at level L costs the K̂ cost of every visited user above L and is worth
// the benefit of every visited user at or above L plus one hop of
// dependent-edge extras. The DFS only ever changes the user on top of its
// stack — its K̂ grows as it gains children — and only visits at the level
// just below it, so sums over the levels at or above the top are fixed
// while the top stays put. Each DFS frame therefore carries those prefix
// sums (pathSums) and a record adds only the top's terms, in O(1).

// levelRow holds one DFS level's sums for the current seed.
type levelRow struct {
	cost    float64 // Σ cCost of the level's finished users
	benefit float64 // Σ B(v)·act(v) of the level's visited users
	// extra is the difference array of the dependent-edge extras over end
	// levels: a holder v's edge to u counts for paths ending in
	// [ℓ(v)+1, ℓ(u)), open-ended while u is unvisited, and is added at the
	// range's start and subtracted at its end.
	extra float64
}

// levelSums is the per-level accumulator of one seed's traversal. It grows
// with the deepest level touched and resets in O(levels used).
type levelSums []levelRow

// at returns level l's row, growing the accumulator to reach it. The
// pointer is valid until the next growth.
func (ls *levelSums) at(l int32) *levelRow {
	for int(l) >= len(*ls) {
		*ls = append(*ls, levelRow{})
	}
	return &(*ls)[l]
}

func (ls *levelSums) reset() {
	clear(*ls)
	*ls = (*ls)[:0]
}

// pathSums are the sums a DFS frame hands to the paths below it: for the
// frame's user v at level ℓ, the cost of every level above ℓ plus v's
// finished siblings, and the benefit and extras of the levels down to ℓ.
// A path ending at a child of v costs cost + cCost[v].
type pathSums struct {
	cost, benefit, extra float64
}

// below returns the sums a child frame hands on, given the child level's
// row and the current cost of the receiver's user, the child's parent.
func (p pathSums) below(row *levelRow, parentCost float64) pathSums {
	return pathSums{
		cost:    p.cost + parentCost + row.cost,
		benefit: p.benefit + row.benefit,
		extra:   p.extra + row.extra,
	}
}

// pendingEdge is one coupon holder's edge to a user it reached before the
// user was visited; the extras it adds stop where that user is visited.
type pendingEdge struct {
	from, pos, to int32
	next          int32 // next entry pending on the same target; -1 ends
}

// dfsState is the per-seed traversal bookkeeping. Node-indexed arrays are
// reused across seeds and reset along the visit order and the pending
// list, so a reset costs O(visited + pending), not O(V).
type dfsState struct {
	level []int32   // -1 = unvisited
	khat  []int32   // K̂(v): last DFS child's adjacency position + 1; 0 while childless
	act   []float64 // activation probability down the DFS tree, fixed at the visit
	cCost []float64 // NodeSCCost(v, K̂(v)); 0 while childless
	rpOff []int32   // start of v's redeem-probability row under K̂(v) in rpBuf
	pend  []int32   // head of the edges pending on v; -1 = none
	order []int32   // visit order

	rpBuf   []float64 // redeem-probability rows of this seed's coupon holders
	rpNext  []float64 // scratch: the row under a tentative K̂
	pending []pendingEdge
	sums    levelSums
}

// gpiState returns the solver's reusable DFS state, creating it on first
// use.
func (s *solver) gpiState() *dfsState {
	if s.gpiSt == nil {
		n := s.inst.G.NumNodes()
		st := &dfsState{
			level: make([]int32, n),
			khat:  make([]int32, n),
			act:   make([]float64, n),
			cCost: make([]float64, n),
			rpOff: make([]int32, n),
			pend:  make([]int32, n),
		}
		for i := range st.level {
			st.level[i] = -1
			st.pend[i] = -1
		}
		s.gpiSt = st
	}
	return s.gpiSt
}

// reset rewinds the state for a new seed, clearing only what the previous
// traversal touched.
func (st *dfsState) reset() {
	for _, v := range st.order {
		st.level[v] = -1
		st.khat[v] = 0
		st.cCost[v] = 0
	}
	for _, e := range st.pending {
		st.pend[e.to] = -1
	}
	st.order = st.order[:0]
	st.pending = st.pending[:0]
	st.rpBuf = st.rpBuf[:0]
	st.sums.reset()
}

// row returns v's redeem-probability row under K̂(v); v must hold coupons.
func (st *dfsState) row(v int32, deg int) []float64 {
	off := int(st.rpOff[v])
	return st.rpBuf[off : off+deg]
}

// identifyGuaranteedPaths runs phase 3 of S3CA (Alg. 2) against the ID
// result d: for every seed, a DFS in descending influence-probability
// order, visiting a user only while the guaranteed cost of the grown path
// set stays within Binv − cseed(s). Each visit yields one guaranteed path.
func (s *solver) identifyGuaranteedPaths(d *diffusion.Deployment) *gpForest {
	forest := &gpForest{}
	for i, seed := range d.Seeds() {
		if s.aborted() {
			break
		}
		s.dfsFromSeed(seed, forest)
		s.emit(i+1, 0, 0)
	}
	return forest
}

func (s *solver) dfsFromSeed(seed int32, forest *gpForest) {
	in := s.inst
	budget := in.Budget - in.SeedCost[seed]
	if budget < 0 {
		return
	}
	st := s.gpiState()
	st.reset()
	st.visit(in, seed, 0, 1)
	s.touch(seed)
	rootSums := pathSums{}.below(st.sums.at(0), 0)
	root := forest.record(&guaranteedPath{
		seed: seed, end: seed, parent: -1, rank: -1,
		benefit: rootSums.benefit + rootSums.extra,
	})

	// The visit cap (Options.GPILimit) bounds the enumeration per seed: the
	// DFS explores descending-probability-first, so the cap keeps exactly
	// the strongest paths — the ones SCM's amelioration ranking would pick
	// anyway — and drops the long low-probability tail.
	visits := 1
	limit := s.opts.GPILimit

	var walk func(v int32, rec *guaranteedPath, sums pathSums) bool
	walk = func(v int32, rec *guaranteedPath, sums pathSums) bool {
		targets, _ := in.G.OutEdges(v)
		l := st.level[v] + 1
		for pos, t := range targets {
			if limit > 0 && visits >= limit {
				return false // visit cap reached: unwind the whole traversal
			}
			if st.level[t] >= 0 {
				continue // cross edge; the node keeps its first visit
			}
			// Price t's visit: it raises K̂(v) to pos+1 and nothing else
			// above t's level.
			cv := s.priceRow(st, v, pos+1)
			cost := sums.cost + cv
			if cost > budget {
				// Prune: stop t's unvisited lower-probability siblings,
				// resume at the parent's next sibling.
				return true
			}
			s.growKhat(st, v, int32(pos+1), cv)
			st.visit(in, t, l, st.act[v]*st.row(v, len(targets))[pos])
			s.touch(t)
			visits++
			tSums := sums.below(st.sums.at(l), cv)
			tRec := forest.record(&guaranteedPath{
				seed: seed, end: t, level: l, parent: v, rank: int32(pos), up: rec,
				cost: cost, benefit: tSums.benefit + tSums.extra,
			})
			ok := walk(t, tRec, tSums)
			st.sums.at(l).cost += st.cCost[t] // t is finished
			if !ok {
				return false
			}
		}
		return true
	}
	walk(seed, root, rootSums)
}

// priceRow computes v's redeem-probability row under k coupons into
// st.rpNext and returns its closed-form SC cost, NodeSCCost(v, k), without
// changing the traversal state.
func (s *solver) priceRow(st *dfsState, v int32, k int) float64 {
	_, probs := s.inst.G.OutEdges(v)
	st.rpNext = slices.Grow(st.rpNext[:0], len(probs))[:len(probs)]
	diffusion.RedeemProbsInto(st.rpNext, probs, k)
	return s.inst.RowSCCost(v, st.rpNext)
}

// growKhat commits K̂(v) = k, whose row priceRow left in st.rpNext and
// whose cost is cost, re-pricing v's dependent-edge extras. A redeem
// probability at a position below the old K̂ does not depend on K̂, bit for
// bit, so only the positions from the old K̂ on change. On v's first child
// every edge to an unvisited user is also entered on that user's pending
// list, so the user's visit can close the extras' range without a reverse
// adjacency.
func (s *solver) growKhat(st *dfsState, v int32, k int32, cost float64) {
	in := s.inst
	targets, _ := in.G.OutEdges(v)
	old := st.khat[v]
	if old == 0 {
		st.rpOff[v] = int32(len(st.rpBuf))
		st.rpBuf = append(st.rpBuf, make([]float64, len(targets))...)
	}
	row := st.row(v, len(targets))
	from := st.level[v] + 1 // extras count for paths ending at levels >= from
	p := st.act[v]
	for j := int(old); j < len(targets); j++ {
		u := targets[j]
		lu := st.level[u]
		if lu >= 0 && lu <= from {
			// u is visited at or above from, so it is inside every path
			// set v's extras count for.
			row[j] = st.rpNext[j]
			continue
		}
		delta := in.Benefit[u]*p*st.rpNext[j] - in.Benefit[u]*p*row[j]
		row[j] = st.rpNext[j]
		st.sums.at(from).extra += delta
		if lu >= 0 {
			st.sums.at(lu).extra -= delta // counted up to u's level
		} else if old == 0 {
			st.pending = append(st.pending, pendingEdge{from: v, pos: int32(j), to: u, next: st.pend[u]})
			st.pend[u] = int32(len(st.pending) - 1)
		}
	}
	st.khat[v] = k
	st.cCost[v] = cost
}

// visit marks t visited at level l with activation probability act, adds
// its benefit to the level's sum and closes every pending extras range that
// points at it: a holder w's edge to t stops counting for paths ending at
// t's level or deeper.
func (st *dfsState) visit(in *diffusion.Instance, t, l int32, act float64) {
	st.level[t] = l
	st.act[t] = act
	st.order = append(st.order, t)
	st.sums.at(l).benefit += in.Benefit[t] * act
	for e := st.pend[t]; e >= 0; e = st.pending[e].next {
		pe := st.pending[e]
		w := pe.from
		c := in.Benefit[t] * st.act[w] * st.row(w, in.G.OutDegree(w))[pe.pos]
		st.sums.at(max(st.level[w]+1, l)).extra -= c
	}
	st.pend[t] = -1
}

// record appends gp to the forest, stamping its visit index.
func (f *gpForest) record(gp *guaranteedPath) *guaranteedPath {
	gp.index = int32(len(f.paths))
	f.paths = append(f.paths, gp)
	return gp
}

// sortByAmelioration orders paths by descending amelioration index, the
// SCM examination order. The AI of g(s,vi) is (b(s,vi) − b(s,vj)) /
// (c(s,vi) − c(s,vj)) with vj the end's nearest ancestor that the current
// deployment can already activate.
func (f *gpForest) sortByAmelioration(s *solver, d *diffusion.Deployment) []scoredPath {
	influenced := influencedSet(s.inst.G, d)
	scored := make([]scoredPath, 0, len(f.paths))
	for _, gp := range f.paths {
		anc := nearestActivatedAncestor(gp, influenced)
		if anc == nil || anc.end == gp.end {
			continue // the end is already reachable: nothing to create
		}
		ai := safeRatio(gp.benefit-anc.benefit, gp.cost-anc.cost)
		if ai <= 0 {
			continue
		}
		scored = append(scored, scoredPath{gp: gp, anchor: anc, ai: ai})
	}
	sort.Slice(scored, func(i, j int) bool {
		if scored[i].ai != scored[j].ai {
			return scored[i].ai > scored[j].ai
		}
		if scored[i].gp.seed != scored[j].gp.seed {
			return scored[i].gp.seed < scored[j].gp.seed
		}
		return scored[i].gp.end < scored[j].gp.end
	})
	return scored
}

type scoredPath struct {
	gp     *guaranteedPath
	anchor *guaranteedPath // GP of the nearest activated ancestor
	ai     float64
}

// nearestActivatedAncestor walks the parent records upward from the end and
// returns the closest one whose user is marked influenced. The seed is
// always influenced, so a record is always found.
func nearestActivatedAncestor(gp *guaranteedPath, influenced []bool) *guaranteedPath {
	for r := gp; r != nil; r = r.up {
		if influenced[r.end] {
			return r
		}
	}
	return nil
}

// influencedSet marks every user with positive activation probability under
// d: users reachable from the seeds through coupon-holding users.
// (Saturated dependent edges — where earlier probability-1 siblings always
// exhaust the coupons — are conservatively included; their marginal gain
// evaluates to zero. DESIGN.md fidelity note 2.)
func influencedSet(g *graph.Graph, d *diffusion.Deployment) []bool {
	mark := make([]bool, g.NumNodes())
	var queue []int32
	for _, seed := range d.Seeds() {
		if !mark[seed] {
			mark[seed] = true
			queue = append(queue, seed)
		}
	}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		if d.K(v) == 0 {
			continue
		}
		ts, _ := g.OutEdges(v)
		for _, t := range ts {
			if !mark[t] {
				mark[t] = true
				queue = append(queue, t)
			}
		}
	}
	return mark
}
