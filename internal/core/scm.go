package core

import (
	"math"
	"sort"

	"s3crm/internal/diffusion"
)

// maneuver runs phase 4 of S3CA (Alg. 1 lines 25–39 + Alg. 3): examine
// guaranteed paths in descending amelioration-index order and, for each
// eligible one, move coupons from low-deterioration-index donors onto the
// path while the maneuver-gap test passes; commit the path when its coupon
// deficit is filled and the redemption rate improved.
func (s *solver) maneuver(d *diffusion.Deployment, forest *gpForest) *diffusion.Deployment {
	in := s.inst
	best := d
	bestRate := s.rate(best)
	// best's costs change only when a path commits: price it once per
	// commit, not once per scored path. SeedCostOf + SCCostOf is exactly
	// TotalCost's sum.
	bestSC := in.SCCostOf(best)
	bestCost := in.SeedCostOf(best) + bestSC

	scored := forest.sortByAmelioration(s, best)
	for i, sp := range scored {
		if s.aborted() {
			break
		}
		s.emit(i+1, bestCost, bestRate)
		gp := sp.gp
		// Eligibility (Alg. 1 line 28): guaranteed cost within the SC
		// budget already invested, and the end not already reachable (its
		// parent holds no coupons).
		if gp.cost > bestSC {
			continue
		}
		if gp.parent >= 0 && best.K(gp.parent) > 0 {
			continue
		}
		if cand, ok := s.tryCreatePath(best, gp, sp.anchor); ok {
			r := s.rate(cand)
			if r > bestRate {
				best = cand
				bestRate = r
				bestSC = in.SCCostOf(best)
				bestCost = in.SeedCostOf(best) + bestSC
				s.stats.GPsCreated++
			}
		}
	}
	return best
}

// fillTarget is one node on the path that still needs coupons.
type fillTarget struct {
	node int32
	need int
}

// pathNeeds lists the coupons missing to realize gp on top of d: chain
// nodes first (from the anchor downward — the order Alg. 3 fills), then the
// remaining allocation nodes in path order.
func pathNeeds(d *diffusion.Deployment, gp *guaranteedPath, anchor *guaranteedPath) []fillTarget {
	want := make(map[int32]int, len(gp.alloc))
	for _, a := range gp.alloc {
		want[a.node] = int(a.k)
	}
	onChain := make(map[int32]bool, len(gp.chain))
	var targets []fillTarget
	// Chain from the anchor down to the end's parent.
	started := false
	for _, v := range gp.chain {
		if v == anchor.end {
			started = true
		}
		if !started {
			continue
		}
		onChain[v] = true
		if need := want[v] - d.K(v); need > 0 {
			targets = append(targets, fillTarget{node: v, need: need})
		}
	}
	// Off-chain allocation nodes (cousins whose coupons the GP counts).
	for _, a := range gp.alloc {
		if onChain[a.node] {
			continue
		}
		if need := int(a.k) - d.K(a.node); need > 0 {
			targets = append(targets, fillTarget{node: a.node, need: need})
		}
	}
	return targets
}

// donorOp is one candidate maneuver: retrieve k coupons from donor.
type donorOp struct {
	donor int32
	k     int
	di    float64 // deterioration index: benefit lost per unit cost saved
}

// tryCreatePath attempts to realize gp on top of base by maneuvering
// coupons. It returns the resulting deployment and whether a complete,
// budget-feasible realization was assembled with every accepted operation
// passing the DI < maneuver-gap test.
func (s *solver) tryCreatePath(base *diffusion.Deployment, gp *guaranteedPath, anchor *guaranteedPath) (*diffusion.Deployment, bool) {
	in := s.inst
	cur := base.Clone()

	needs := pathNeeds(cur, gp, anchor)
	deficit := 0
	for _, t := range needs {
		deficit += t.need
	}
	if deficit == 0 {
		// The allocation already exists; realization is a no-op and the
		// caller's rate check decides.
		return cur, true
	}
	want := make(map[int32]int, len(gp.alloc))
	for _, a := range gp.alloc {
		want[a.node] = int(a.k)
	}

	curBenefit := s.benefitRebased(cur)
	curCost := in.TotalCost(cur)

	for deficit > 0 {
		if s.aborted() {
			return nil, false
		}
		ops := s.donorOps(cur, want, deficit)
		if len(ops) == 0 {
			return nil, false // no donor has spare coupons
		}
		accepted := false
		for _, op := range ops {
			moved, next := applyOp(cur, op, needs, in)
			if moved == 0 {
				continue
			}
			nextCost := in.TotalCost(next)
			if nextCost > in.Budget {
				continue // Alg. 3 line 13: stay within the budget
			}
			// next differs from cur (the rebased base) only in the coupons
			// of the donor and the fill targets, so the world-cache engine
			// re-simulates only the worlds that activate one of them.
			changed := make([]int32, 0, len(needs)+1)
			changed = append(changed, op.donor)
			for _, t := range needs {
				changed = append(changed, t.node)
			}
			nextBenefit := s.benefitSparse(next, changed)
			// Maneuver gap β: the gain ratio of the placement alone,
			// measured against the retrieval-only deployment (DESIGN.md
			// fidelity note 4).
			retr := cur.Clone()
			retr.AddK(op.donor, -op.k)
			retrBenefit := s.benefitSparse(retr, changed[:1])
			retrCost := in.TotalCost(retr)
			beta := safeRatio(nextBenefit-retrBenefit, nextCost-retrCost)
			if op.di >= beta {
				continue
			}
			// "and the redemption rate increases": the maneuvered
			// deployment must not be worse than before the operation.
			if safeRatio(nextBenefit, nextCost) <= safeRatio(curBenefit, curCost) {
				continue
			}
			cur = next
			curBenefit = nextBenefit
			curCost = nextCost
			deficit -= moved
			needs = pathNeeds(cur, gp, anchor)
			s.stats.ManeuverCount++
			accepted = true
			break
		}
		if !accepted {
			return nil, false // Alg. 1 line 37: skip this GP
		}
	}
	return cur, true
}

// donorOps lists candidate retrievals sorted by ascending deterioration
// index. A donor is any user holding more coupons than the GP allocation
// requires of it; k ranges over 1..spare, capped at the remaining deficit.
func (s *solver) donorOps(d *diffusion.Deployment, want map[int32]int, deficit int) []donorOp {
	in := s.inst
	// Rebasing here makes every (donor, k) trial a sparse evaluation under
	// the world-cache engine: a trial differs from d only at the donor, so
	// only the worlds activating the donor are re-simulated — exactly.
	baseBenefit := s.benefitRebased(d)
	baseCost := in.TotalCost(d)
	var ops []donorOp
	for _, v := range d.Allocated() {
		spare := d.K(v) - want[v]
		if spare <= 0 {
			continue
		}
		s.touch(v)
		if spare > deficit {
			spare = deficit
		}
		for k := 1; k <= spare; k++ {
			trial := d.Clone()
			trial.AddK(v, -k)
			lostBenefit := baseBenefit - s.benefitSparse(trial, []int32{v})
			savedCost := baseCost - in.TotalCost(trial)
			di := 0.0
			switch {
			case savedCost > 0:
				di = lostBenefit / savedCost
				if di < 0 {
					di = 0
				}
			case lostBenefit > 0:
				di = math.Inf(1)
			}
			ops = append(ops, donorOp{donor: v, k: k, di: di})
		}
	}
	sort.Slice(ops, func(i, j int) bool {
		if ops[i].di != ops[j].di {
			return ops[i].di < ops[j].di
		}
		if ops[i].donor != ops[j].donor {
			return ops[i].donor < ops[j].donor
		}
		return ops[i].k < ops[j].k
	})
	return ops
}

// applyOp builds the deployment after moving op.k coupons from the donor
// onto the fill targets in order. It returns how many coupons were actually
// placed (bounded by the outstanding needs) and the new deployment.
func applyOp(d *diffusion.Deployment, op donorOp, needs []fillTarget, in *diffusion.Instance) (int, *diffusion.Deployment) {
	next := d.Clone()
	next.AddK(op.donor, -op.k)
	remaining := op.k
	moved := 0
	for _, t := range needs {
		if remaining == 0 {
			break
		}
		give := t.need
		if give > remaining {
			give = remaining
		}
		// Respect the SC constraint k_i <= |N(v_i)|.
		cap := in.G.OutDegree(t.node) - next.K(t.node)
		if give > cap {
			give = cap
		}
		if give <= 0 {
			continue
		}
		next.AddK(t.node, give)
		remaining -= give
		moved += give
	}
	if moved < op.k {
		// Coupons that found no target stay with the donor.
		next.AddK(op.donor, op.k-moved)
	}
	return moved, next
}
