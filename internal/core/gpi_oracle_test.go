package core

import (
	"s3crm/internal/diffusion"
)

// The GPI oracle: the scalar implementation GPI had before it moved to
// level-indexed sums, kept as test code. Every record re-sweeps the whole
// visited set in visit order for its cost and benefit, and materializes the
// chain and the K̂ allocation, so it is quadratic in the visited set — the
// reference the incremental traversal is checked against, not something to
// ship.

// oraclePath is one guaranteed path as the oracle records it.
type oraclePath struct {
	seed    int32
	end     int32
	level   int32
	parent  int32
	chain   []int32
	alloc   []gpAlloc
	cost    float64
	benefit float64
}

// oracleState is the oracle's per-seed DFS bookkeeping.
type oracleState struct {
	seed     int32
	level    []int32 // -1 = unvisited
	parent   []int32
	children [][]int32 // DFS-tree children, in visit order
	maxPos   []int32   // highest adjacency position among tree children
	order    []int32   // visit order
	act      []float64
	inSet    []bool
	cCost    []float64   // NodeSCCost(v, K̂(v)); 0 for childless nodes
	rpCache  [][]float64 // redeem probabilities of v's adjacency under K̂(v)
}

// oracleGPI runs the oracle traversal over every seed of d with the
// solver's instance and GPILimit.
func (s *solver) oracleGPI(d *diffusion.Deployment) []oraclePath {
	n := s.inst.G.NumNodes()
	st := &oracleState{
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
	var out []oraclePath
	for _, seed := range d.Seeds() {
		out = s.oracleFromSeed(st, seed, out)
	}
	return out
}

func (st *oracleState) reset(seed int32) {
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

func (st *oracleState) khat(v int32, endLevel int32) int32 {
	if st.level[v] >= endLevel || len(st.children[v]) == 0 {
		return 0
	}
	return st.maxPos[v] + 1
}

func (s *solver) oracleFromSeed(st *oracleState, seed int32, out []oraclePath) []oraclePath {
	in := s.inst
	budget := in.Budget - in.SeedCost[seed]
	if budget < 0 {
		return out
	}
	st.reset(seed)
	out = append(out, s.oracleRecord(st, seed))
	visits := 1
	limit := s.opts.GPILimit
	var walk func(v int32) bool
	walk = func(v int32) bool {
		targets, _ := in.G.OutEdges(v)
		for pos, t := range targets {
			if limit > 0 && visits >= limit {
				return false
			}
			if st.level[t] >= 0 {
				continue
			}
			st.level[t] = st.level[v] + 1
			st.parent[t] = v
			st.children[v] = append(st.children[v], t)
			if int32(pos) > st.maxPos[v] || len(st.children[v]) == 1 {
				st.maxPos[v] = int32(pos)
			}
			s.oracleUpdateNode(st, v)
			st.order = append(st.order, t)
			if s.oracleCost(st, t) > budget {
				st.order = st.order[:len(st.order)-1]
				st.children[v] = st.children[v][:len(st.children[v])-1]
				st.maxPos[v] = 0
				for _, c := range st.children[v] {
					if p := int32(in.G.NeighborRank(v, c)); p > st.maxPos[v] {
						st.maxPos[v] = p
					}
				}
				s.oracleUpdateNode(st, v)
				st.level[t] = -1
				return true
			}
			visits++
			out = append(out, s.oracleRecord(st, t))
			if !walk(t) {
				return false
			}
		}
		return true
	}
	walk(seed)
	return out
}

func (s *solver) oracleUpdateNode(st *oracleState, v int32) {
	if len(st.children[v]) == 0 {
		st.cCost[v] = 0
		return
	}
	k := int(st.maxPos[v] + 1)
	st.cCost[v] = s.inst.NodeSCCost(v, k)
	_, probs := s.inst.G.OutEdges(v)
	st.rpCache[v] = diffusion.RedeemProbs(probs, k)
}

func (s *solver) oracleRecord(st *oracleState, end int32) oraclePath {
	gp := oraclePath{seed: st.seed, end: end, level: st.level[end], parent: st.parent[end]}
	for v := end; v != -1; v = st.parent[v] {
		gp.chain = append([]int32{v}, gp.chain...)
	}
	gp.cost = s.oracleCost(st, end)
	gp.benefit = s.oracleBenefit(st, end)
	for _, v := range st.order {
		if k := st.khat(v, gp.level); k > 0 {
			gp.alloc = append(gp.alloc, gpAlloc{node: v, k: k})
		}
	}
	return gp
}

// oracleCost sums the cached per-node costs of every visited user above
// the end's level, in visit order.
func (s *solver) oracleCost(st *oracleState, end int32) float64 {
	endLevel := st.level[end]
	total := 0.0
	for _, v := range st.order {
		if st.level[v] < endLevel && st.cCost[v] != 0 {
			total += st.cCost[v]
		}
	}
	return total
}

// oracleBenefit sums, in visit order, each counted user's benefit times
// its activation probability down the tree, plus one hop of dependent-edge
// extras from every coupon holder to users outside the counted set.
func (s *solver) oracleBenefit(st *oracleState, end int32) float64 {
	in := s.inst
	endLevel := st.level[end]
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
		if st.khat(v, endLevel) == 0 {
			continue
		}
		targets, _ := in.G.OutEdges(v)
		rp := st.rpCache[v]
		for j, t := range targets {
			if st.inSet[t] && st.parent[t] == v {
				st.act[t] = p * rp[j]
				continue
			}
			if st.inSet[t] {
				continue
			}
			total += in.Benefit[t] * p * rp[j]
		}
	}
	for _, v := range st.order {
		st.inSet[v] = false
		st.act[v] = 0
	}
	return total
}
