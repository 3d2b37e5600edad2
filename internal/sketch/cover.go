package sketch

import (
	"math"
	"sort"

	"s3crm/internal/diffusion"
	"s3crm/internal/pq"
)

// maximizer runs one weighted-cover pass of the ID loop's investment policy
// against a sample collection: pivots from phase 1 open seeds (covering the
// samples rooted at them), CELF-lazy coupon investments extend coverage
// through the coupon-indexed slot indexes, and every move is compared on
// marginal redemption — scaled cover gain per closed-form marginal cost —
// exactly as the forward ID loop compares Monte-Carlo marginal benefit per
// cost. Cover degrees are maintained exactly: covering a sample decrements
// the degree of every member of every slot once, so a popped heap entry is
// verified fresh in O(1) and the total update cost is linear in the corpus.
type maximizer struct {
	inst   *diffusion.Instance
	st     *store
	scale  float64 // W_U / θ: cover counts → expected benefit
	limit  int     // samples [0, limit) participate; the rest are invisible
	budget float64

	covered []bool
	covCnt  int
	deg     [kmax][]int32
	entered []bool
	d       *diffusion.Deployment
	cost    float64
	heap    pq.Heap[coverEntry]
	moves   []move

	absorbBuf []int32
	rpA, rpB  []float64
}

// coverEntry is one lazy heap entry: a candidate's next coupon slot and the
// cover gain it was scored with. The entry is fresh iff both still match
// the candidate's current state.
type coverEntry struct {
	node int32
	slot int32
	gain int32
}

// move records one greedy selection, with enough to replay its coverage
// against an independent sample collection: a seed move covers the samples
// rooted at the node plus slots [slotLo, K) (the coupons applied with the
// pivot), a coupon move covers slot slotLo alone (K = slotLo+1). cost is
// the cumulative closed-form cost after the move.
type move struct {
	diffusion.Move
	slotLo int32
	cost   float64
}

// newMaximizer builds a cover pass over the first limit samples of st. A
// warm store may hold more samples than the doubling round being replayed;
// restricting every cover count and list walk to the prefix makes the pass
// bit-identical to one over a store holding exactly limit samples, which is
// what lets a warm Solve replay the cold doubling schedule.
func newMaximizer(inst *diffusion.Instance, st *store, scale float64, limit int) *maximizer {
	n := inst.G.NumNodes()
	m := &maximizer{
		inst: inst, st: st, scale: scale, limit: limit, budget: inst.Budget,
		covered: make([]bool, limit),
		entered: make([]bool, n),
		d:       diffusion.NewDeployment(n),
	}
	for c := 0; c < kmax; c++ {
		m.deg[c] = make([]int32, n)
		for v := range m.deg[c] {
			m.deg[c][v] = int32(prefixLen(st.slotList(c, int32(v)), limit))
		}
	}
	return m
}

// prefixLen counts how many entries of an ascending sample-index list fall
// below limit.
func prefixLen(list []int32, limit int) int {
	if n := len(list); n == 0 || int(list[n-1]) < limit {
		return n
	}
	return sort.Search(len(list), func(i int) bool { return int(list[i]) >= limit })
}

// ratio mirrors core's safeRatio: 0/0 is 0, positive gain at zero marginal
// cost is +Inf (it always wins a marginal-redemption comparison).
func ratio(num, den float64) float64 {
	if den <= 0 {
		if num <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// marginalSC is the closed-form marginal coupon cost of raising node u from
// slot to slot+1 coupons — NodeSCCost(u, slot+1) − NodeSCCost(u, slot) with
// reused capacity-DP buffers.
func (m *maximizer) marginalSC(u int32, slot int32) float64 {
	targets, probs := m.inst.G.OutEdges(u)
	if len(targets) == 0 {
		return 0
	}
	if cap(m.rpA) < len(probs) {
		m.rpA = make([]float64, len(probs))
		m.rpB = make([]float64, len(probs))
	}
	a, b := m.rpA[:len(probs)], m.rpB[:len(probs)]
	diffusion.RedeemProbsInto(a, probs, int(slot)+1)
	diffusion.RedeemProbsInto(b, probs, int(slot))
	total := 0.0
	for j, t := range targets {
		total += m.inst.SCCost[t] * (a[j] - b[j])
	}
	return total
}

// push enqueues node u's next coupon slot if it is feasible and can still
// cover anything.
func (m *maximizer) push(u int32) {
	slot := int32(m.d.K(u))
	if int(slot) >= kmax || int(slot) >= m.inst.G.OutDegree(u) {
		return
	}
	gain := m.deg[slot][u]
	if gain <= 0 {
		return
	}
	rate := ratio(m.scale*float64(gain), m.marginalSC(u, slot))
	if rate <= 0 {
		return
	}
	m.heap.Push(coverEntry{node: u, slot: slot, gain: gain}, -rate)
}

// absorb admits v and everything reachable from it through coupon holders
// into the candidate pool — the ID loop's influence-region growth: a
// coupon only matters on a node the deployment can activate.
func (m *maximizer) absorb(v int32) {
	stack := append(m.absorbBuf[:0], v)
	m.entered[v] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		m.push(x)
		if m.d.K(x) > 0 {
			ts, _ := m.inst.G.OutEdges(x)
			for _, w := range ts {
				if !m.entered[w] {
					m.entered[w] = true
					stack = append(stack, w)
				}
			}
		}
	}
	m.absorbBuf = stack
}

// cover marks every sample in list covered, decrementing the cover degree
// of each member of each slot exactly once per newly covered sample.
func (m *maximizer) cover(list []int32) {
	for _, s := range list {
		if int(s) >= m.limit {
			break // ascending sample order: the rest is past the prefix
		}
		if m.covered[s] {
			continue
		}
		m.covered[s] = true
		m.covCnt++
		for c := 0; c < kmax; c++ {
			for _, u := range m.st.members(int(s), c) {
				m.deg[c][u]--
			}
		}
	}
}

// applyPivot opens the pivot's seed (plus its phase-1 coupon when the node
// holds none yet), covering the samples rooted at it. Returns false when
// the pivot is skipped — already a seed, or unaffordable.
func (m *maximizer) applyPivot(p Pivot) bool {
	v := p.Node
	if m.d.IsSeed(v) {
		return false
	}
	if m.cost+m.inst.SeedCost[v] > m.budget {
		return false
	}
	wasK := m.d.K(v)
	k := wasK
	dc := m.inst.SeedCost[v]
	if wasK == 0 && p.K > 0 {
		k = p.K
		if deg := m.inst.G.OutDegree(v); k > deg {
			k = deg
		}
		if k > kmax {
			k = kmax
		}
		dc += m.marginalSC(v, 0) // k is 0 or 1 from phase 1
		if m.cost+dc > m.budget {
			k, dc = wasK, m.inst.SeedCost[v] // seed without the coupon
		}
	}
	m.d.AddSeed(v)
	if k != wasK {
		m.d.SetK(v, k)
	}
	m.cost += dc
	m.cover(m.st.rootList(v))
	for c := wasK; c < k; c++ {
		m.cover(m.st.slotList(c, v))
	}
	m.absorb(v)
	m.moves = append(m.moves, move{
		Move:   diffusion.Move{Node: v, Seed: true, K: k},
		slotLo: int32(wasK), cost: m.cost,
	})
	return true
}

// applyCoupon invests one coupon on a fresh heap entry.
func (m *maximizer) applyCoupon(e coverEntry, dc float64) {
	v := e.node
	m.d.AddK(v, 1)
	m.cost += dc
	m.cover(m.st.slotList(int(e.slot), v))
	if m.d.K(v) == 1 {
		m.absorb(v) // first coupon: the node's out-neighbours join the pool
	} else {
		m.push(v)
	}
	m.moves = append(m.moves, move{
		Move:   diffusion.Move{Node: v, K: int(e.slot) + 1},
		slotLo: e.slot, cost: m.cost,
	})
}

// freshTop pops until the heap's best entry matches the owner's current
// slot and cover degree, re-scoring stale entries in place (CELF). Returns
// the entry with its rate and marginal cost.
func (m *maximizer) freshTop() (coverEntry, float64, float64, bool) {
	for {
		e, _, ok := m.heap.Pop()
		if !ok {
			return coverEntry{}, 0, 0, false
		}
		slot := int32(m.d.K(e.node))
		if int(slot) >= kmax || int(slot) >= m.inst.G.OutDegree(e.node) {
			continue
		}
		gain := m.deg[slot][e.node]
		if gain <= 0 {
			continue
		}
		dc := m.marginalSC(e.node, slot)
		rate := ratio(m.scale*float64(gain), dc)
		if e.slot == slot && e.gain == gain {
			return e, rate, dc, true
		}
		m.heap.Push(coverEntry{node: e.node, slot: slot, gain: gain}, -rate)
	}
}

// run executes the investment loop: at every step the best coupon (lazy
// heap top) competes against the next pivot's closed-form standalone rate,
// ties preferring the pivot — the ID loop's policy, evaluated on cover
// counts instead of forward simulation. Unaffordable moves are dropped
// permanently (cost only grows); the loop ends when both sources are dry.
func (m *maximizer) run(pivots []Pivot) {
	pi := 0
	var top coverEntry
	var topRate, topDC float64
	have := false
	for {
		if !have {
			top, topRate, topDC, have = m.freshTop()
		}
		if pi < len(pivots) && (!have || pivots[pi].Rate >= topRate) {
			p := pivots[pi]
			pi++
			if m.applyPivot(p) && have {
				// Coverage moved under the peeked top: re-verify it.
				m.heap.Push(top, -topRate)
				have = false
			}
			continue
		}
		if !have {
			return
		}
		have = false
		if m.cost+topDC > m.budget {
			continue // never affordable again
		}
		m.applyCoupon(top, topDC)
	}
}
