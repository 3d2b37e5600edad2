package core

import (
	"sort"

	"s3crm/internal/diffusion"
)

// gpAlloc is one (node, coupons) pair of a guaranteed path's allocation K̂.
type gpAlloc struct {
	node int32
	k    int32
}

// guaranteedPath is one g(s, vi): the set of users visited at levels <= the
// end user's level when the end user was reached, with the allocation K̂
// under which every traversed edge is independent.
type guaranteedPath struct {
	seed    int32
	end     int32
	level   int32
	parent  int32     // DFS-tree parent of end (-1 when end == seed)
	chain   []int32   // path seed → … → end through the DFS tree
	alloc   []gpAlloc // K̂: nodes with at least one coupon in the GP
	cost    float64   // c(s, end) = Csc(K̂), closed form
	benefit float64   // b(s, end): expected benefit incl. dependent extras
}

// gpForest holds GPI's output for one run: all guaranteed paths plus the
// per-seed DFS structure needed by SCM (parent pointers for ancestor
// walks).
type gpForest struct {
	paths []*guaranteedPath
	// byEnd finds the GP record for a (seed, node) pair; ancestors of any
	// GP end always have records because they were visited first.
	byEnd map[int64]*guaranteedPath
}

func gpKey(seed, node int32) int64 { return int64(seed)<<32 | int64(uint32(node)) }

// dfsState is the per-seed traversal bookkeeping. All per-node state lives
// in node-indexed arrays reused across seeds (reset walks the visit order,
// so a reset costs O(visited), not O(V)) — the GPI enumeration recomputes
// path costs O(|order|) times per visit, and map lookups used to dominate
// its profile.
type dfsState struct {
	seed     int32
	level    []int32 // -1 = unvisited
	parent   []int32
	children [][]int32 // DFS-tree children, in visit order
	maxPos   []int32   // highest adjacency position among tree children
	order    []int32   // visit order

	act   []float64 // gpBenefit scratch: activation probability down the tree
	inSet []bool    // gpBenefit scratch: membership of the current path set

	// Per-node caches keyed to the node's current K̂ = maxPos+1, refreshed
	// by updateGPNode exactly where the DFS tree changes shape (a child
	// gained or a prune reverted). The path sweeps then read array slots
	// instead of recomputing redeem-probability prefixes per query — the
	// values and every summation order are unchanged, so the enumeration
	// stays bit-identical to the uncached implementation.
	cCost   []float64   // NodeSCCost(v, K̂(v)); 0 for childless nodes
	rpCache [][]float64 // redeem probabilities of v's adjacency under K̂(v)
}

// gpiState returns the solver's reusable DFS state, creating it on first
// use.
func (s *solver) gpiState() *dfsState {
	if s.gpiSt == nil {
		n := s.inst.G.NumNodes()
		st := &dfsState{
			level:    make([]int32, n),
			parent:   make([]int32, n),
			children: make([][]int32, n),
			maxPos:   make([]int32, n),
			act:      make([]float64, n),
			inSet:    make([]bool, n),
			cCost:    make([]float64, n),
			rpCache:  make([][]float64, n),
		}
		for i := range st.level {
			st.level[i] = -1
		}
		s.gpiSt = st
	}
	return s.gpiSt
}

// reset rewinds the state for a new seed, clearing only what the previous
// traversal touched.
func (st *dfsState) reset(seed int32) {
	for _, v := range st.order {
		st.level[v] = -1
		st.children[v] = st.children[v][:0]
		st.maxPos[v] = 0
		st.cCost[v] = 0
	}
	st.order = st.order[:0]
	st.seed = seed
	st.level[seed] = 0
	st.parent[seed] = -1
	st.order = append(st.order, seed)
}

// khat returns the GP allocation K̂ of node v for a path ending at level
// endLevel: the coupons needed so every visited child edge of v is
// independent. Nodes at the end level hold no coupons (their children are
// beyond the path).
func (st *dfsState) khat(v int32, endLevel int32) int32 {
	if st.level[v] >= endLevel {
		return 0
	}
	if len(st.children[v]) == 0 {
		return 0
	}
	// Cover up to the deepest adjacency position among tree children so
	// every traversed edge is independent even when an earlier-position
	// sibling was skipped as already-visited (DESIGN.md fidelity note 3).
	return st.maxPos[v] + 1
}

// identifyGuaranteedPaths runs phase 3 of S3CA (Alg. 2) against the ID
// result d: for every seed, a DFS in descending influence-probability
// order, visiting a user only while the guaranteed cost of the grown path
// set stays within Binv − cseed(s). Each visit yields one guaranteed path.
func (s *solver) identifyGuaranteedPaths(d *diffusion.Deployment) *gpForest {
	forest := &gpForest{byEnd: make(map[int64]*guaranteedPath)}
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
	st.reset(seed)
	s.touch(seed)
	forest.record(s, st, seed)

	// The visit cap (Options.GPILimit) bounds the enumeration per seed: the
	// DFS explores descending-probability-first, so the cap keeps exactly
	// the strongest paths — the ones SCM's amelioration ranking would pick
	// anyway — and drops the long low-probability tail whose per-visit
	// sweeps grow quadratically with the visited set.
	visits := 1
	limit := s.opts.GPILimit

	var walk func(v int32) bool
	walk = func(v int32) bool {
		targets, _ := in.G.OutEdges(v)
		for pos, t := range targets {
			if limit > 0 && visits >= limit {
				return false // visit cap reached: unwind the whole traversal
			}
			if st.level[t] >= 0 {
				continue // cross edge; the node keeps its first visit
			}
			// Tentatively extend the DFS tree with t.
			st.level[t] = st.level[v] + 1
			st.parent[t] = v
			st.children[v] = append(st.children[v], t)
			if int32(pos) > st.maxPos[v] || len(st.children[v]) == 1 {
				st.maxPos[v] = int32(pos)
			}
			s.updateGPNode(st, v)
			st.order = append(st.order, t)
			cost := s.gpCost(st, t)
			if cost > budget {
				// Revert and prune: stop t's unvisited lower-probability
				// siblings, resume at the parent's next sibling.
				st.order = st.order[:len(st.order)-1]
				st.children[v] = st.children[v][:len(st.children[v])-1]
				recomputeMaxPos(in, st, v)
				s.updateGPNode(st, v)
				st.level[t] = -1
				return true
			}
			s.touch(t)
			visits++
			forest.record(s, st, t)
			if !walk(t) {
				return false
			}
		}
		return true
	}
	walk(seed)
}

// updateGPNode refreshes v's cached guaranteed-allocation cost and redeem
// probabilities after its DFS children changed. K̂(v) is maxPos+1 (fidelity
// note 3); childless nodes carry no coupons and cost nothing.
func (s *solver) updateGPNode(st *dfsState, v int32) {
	if len(st.children[v]) == 0 {
		st.cCost[v] = 0
		return
	}
	k := int(st.maxPos[v] + 1)
	st.cCost[v] = s.inst.NodeSCCost(v, k)
	_, probs := s.inst.G.OutEdges(v)
	if cap(st.rpCache[v]) < len(probs) {
		st.rpCache[v] = make([]float64, len(probs))
	}
	st.rpCache[v] = st.rpCache[v][:len(probs)]
	diffusion.RedeemProbsInto(st.rpCache[v], probs, k)
}

func recomputeMaxPos(in *diffusion.Instance, st *dfsState, v int32) {
	st.maxPos[v] = 0
	for _, c := range st.children[v] {
		if p := int32(in.G.NeighborRank(v, c)); p > st.maxPos[v] {
			st.maxPos[v] = p
		}
	}
}

// record finalizes the guaranteed path ending at end and appends it.
func (f *gpForest) record(s *solver, st *dfsState, end int32) {
	gp := &guaranteedPath{
		seed:   st.seed,
		end:    end,
		level:  st.level[end],
		parent: st.parent[end],
	}
	// chain seed → end
	var rev []int32
	for v := end; v != -1; v = st.parent[v] {
		rev = append(rev, v)
	}
	gp.chain = make([]int32, len(rev))
	for i := range rev {
		gp.chain[i] = rev[len(rev)-1-i]
	}
	gp.cost = s.gpCost(st, end)
	gp.benefit = s.gpBenefit(st, end)
	for _, v := range st.order {
		if k := st.khat(v, gp.level); k > 0 {
			gp.alloc = append(gp.alloc, gpAlloc{node: v, k: k})
		}
	}
	f.paths = append(f.paths, gp)
	f.byEnd[gpKey(st.seed, end)] = gp
}

// gpCost computes the guaranteed cost of the path ending at end: the
// closed-form expected SC cost of the K̂ allocation. Per-node costs come
// from the cCost cache (refreshed by updateGPNode wherever the tree
// changes), summed in visit order exactly as the uncached sweep did.
func (s *solver) gpCost(st *dfsState, end int32) float64 {
	endLevel := st.level[end]
	total := 0.0
	for _, v := range st.order {
		if st.level[v] < endLevel && st.cCost[v] != 0 {
			total += st.cCost[v]
		}
	}
	return total
}

// gpBenefit computes b(s, end): the expected benefit of deploying seed s
// with the K̂ allocation, including one layer of dependent-edge extras to
// unvisited users (the prose of Example 2: "the expected benefit of a GP
// involves not only the visited users but also the users connected by the
// dependent edges").
func (s *solver) gpBenefit(st *dfsState, end int32) float64 {
	in := s.inst
	endLevel := st.level[end]
	// Activation probability along the DFS tree. Within the guaranteed
	// allocation every tree edge is independent, so the probability is the
	// product of edge probabilities down the chain. The act/inSet arrays
	// are solver scratch, cleared along the visit order before returning.
	st.act[st.seed] = 1
	total := 0.0
	for _, v := range st.order {
		if st.level[v] <= endLevel {
			st.inSet[v] = true
		}
	}
	for _, v := range st.order {
		if !st.inSet[v] {
			continue
		}
		p := st.act[v]
		total += in.Benefit[v] * p
		k := st.khat(v, endLevel)
		if k == 0 {
			continue
		}
		targets, _ := in.G.OutEdges(v)
		// k == maxPos+1 whenever khat is non-zero, which is exactly the
		// allocation the rpCache row was built for.
		rp := st.rpCache[v]
		for j, t := range targets {
			if st.inSet[t] && st.parent[t] == v {
				st.act[t] = p * rp[j] // tree child: independent edge
				continue
			}
			if st.inSet[t] {
				continue // cross edge to a counted user: avoid double count
			}
			// Dependent (or surplus independent) edge to an unvisited
			// user: one-hop expected benefit.
			total += in.Benefit[t] * p * rp[j]
		}
	}
	for _, v := range st.order {
		st.inSet[v] = false
		st.act[v] = 0
	}
	return total
}

// sortByAmelioration orders paths by descending amelioration index, the
// SCM examination order. The AI of g(s,vi) is (b(s,vi) − b(s,vj)) /
// (c(s,vi) − c(s,vj)) with vj the end's nearest ancestor that the current
// deployment can already activate.
func (f *gpForest) sortByAmelioration(s *solver, d *diffusion.Deployment) []scoredPath {
	influenced := s.influenced(d)
	scored := make([]scoredPath, 0, len(f.paths))
	for _, gp := range f.paths {
		anc := f.nearestActivatedAncestor(gp, influenced)
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

// nearestActivatedAncestor walks the chain upward from the end and returns
// the GP record of the closest ancestor marked influenced. The seed is
// always influenced, so a record is always found (unless the chain is
// somehow foreign to this forest).
func (f *gpForest) nearestActivatedAncestor(gp *guaranteedPath, influenced []bool) *guaranteedPath {
	for i := len(gp.chain) - 1; i >= 0; i-- {
		v := gp.chain[i]
		if influenced[v] {
			return f.byEnd[gpKey(gp.seed, v)]
		}
	}
	return nil
}
