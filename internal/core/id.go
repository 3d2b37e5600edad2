package core

import (
	"math"

	"s3crm/internal/diffusion"
	"s3crm/internal/par"
	"s3crm/internal/pq"
	"s3crm/internal/sketch"
)

// maxIDIterations caps the ID investment loop on an n-user instance as a
// safety net, generously above any budget-feasible investment count.
func maxIDIterations(n int) int { return 10*n + 10000 }

// nextPivot scans the queue from *next for the first pivot source that is
// not already a seed and still affordable with spent already committed.
// Entries skipped here are skipped for good — the budget only shrinks — so
// *next only advances. An entry whose source holds no coupons yet is priced
// by the coupon cost it carries (NodeSCCost(v, 0) is exactly 0); only a
// source the ID loop already gave coupons is re-priced.
func (s *solver) nextPivot(queue []pivotEntry, next *int, d *diffusion.Deployment, spent float64) (pivotEntry, bool) {
	in := s.inst
	for *next < len(queue) {
		p := queue[*next]
		if d.IsSeed(p.node) {
			*next++ // already part of the spread as a seed
			continue
		}
		pCost := in.SeedCost[p.node] + p.couponCost
		if k := d.K(p.node); k > 0 {
			pCost = in.SeedCost[p.node] + in.NodeSCCost(p.node, max(p.k, k)) - in.NodeSCCost(p.node, k)
		}
		if spent+pCost > in.Budget {
			*next++ // unaffordable now; budget only shrinks, so skip for good
			continue
		}
		return p, true
	}
	return pivotEntry{}, false
}

// marginalSCCost is the cost of one more coupon at v on top of d,
// NodeSCCost(v, K+1) − NodeSCCost(v, K) with K = d.K(v). The price is a
// pure function of (v, K), so the solver caches it per user keyed by the K
// it was priced at: a user whose coupon count moved is re-priced, and the
// cache is right for any deployment.
func (s *solver) marginalSCCost(d *diffusion.Deployment, v int32) float64 {
	k := d.K(v)
	if s.priceK == nil {
		n := s.inst.G.NumNodes()
		s.price, s.priceK = make([]float64, n), make([]int32, n)
	}
	if s.priceK[v] == int32(k)+1 {
		return s.price[v]
	}
	p := s.inst.NodeSCCost(v, k+1) - s.inst.NodeSCCost(v, k)
	s.price[v], s.priceK[v] = p, int32(k)+1
	return p
}

// lazyBatchSize bounds how many stale heap entries are re-evaluated per
// batch. The world-cache engine pays one per-world stamp repopulation per
// call, which a batch of a few amortizes; the batch stays small to avoid
// evaluating entries deeper than the next fresh top.
const lazyBatchSize = 4

// lazyID is the CELF state of one investment loop: a max-heap of candidate
// marginal redemptions (min-heap over negated ratios; ties break to the
// smaller node id, matching the exhaustive sweep), each node's cached gain
// stamped with the epoch it was computed at, and the persistent influence
// marks that grow the candidate pool incrementally.
type lazyID struct {
	heap  *pq.Indexed
	gain  []float64 // node → cached marginal benefit ΔB
	stamp []int32   // node → epoch of the cached gain; -1 = never evaluated
	epoch int32     // bumped on every deployment change; stale ⇒ re-evaluate
	mark  []bool    // influenced marks (persist across iterations)
	bfs   []int32   // scratch frontier for absorb
	stale []int32   // scratch batch of popped stale candidates
}

// candidateChoice picks the ID loop's best coupon investment against d: the
// node (-1 when none is feasible), its marginal redemption, its marginal
// benefit and its marginal SC cost. The production choice is the CELF heap,
// (*solver).lazyBest; the package tests swap in the exhaustive sweep
// through solve to check that the heap reproduces it.
type candidateChoice func(s *solver, lz *lazyID, d *diffusion.Deployment, curBenefit, spent float64) (node int32, mr, gain, dc float64)

// investmentDeployment runs phase 2 of S3CA (Alg. 1 lines 9–24): starting
// from the best pivot source, iteratively invest one SC in the user with
// the highest marginal redemption — broadening the spread (an SC to a user
// already holding coupons), deepening it (a first SC to an influenced
// user), or starting a new spread (activating the next pivot source as a
// seed) — until the budget is exhausted. Every intermediate deployment is a
// candidate; the one with the highest redemption rate wins. The loop logs
// each move in s.trajectory, and selectSnapshot replays that log to score
// the candidates.
//
// The candidate choice is CELF lazy greedy: cached marginal gains from
// earlier iterations serve as upper bounds, so each iteration re-evaluates
// only the stale top of a max-heap instead of every influenced user.
// Invalidation rules (see DESIGN.md "The CELF-lazy ID loop"):
//
//   - a coupon investment bumps the epoch: every cached gain goes stale but
//     stays in the heap as an upper bound — gains only shrink while the
//     seed set is fixed (diminishing returns), so only stale tops need
//     re-evaluation (lazy);
//   - the invested node's own marginal cost changes with its new coupon
//     count, so its heap priority is recomputed from the cached gain before
//     re-queueing (coupon-cost invalidation);
//   - a pivot application (new seed) can raise gains, so cached values are
//     no longer upper bounds: the whole heap is re-evaluated eagerly in one
//     batch (full invalidation), which costs exactly one exhaustive
//     iteration and happens only once per seed;
//   - capped (K = |N(v)|) and budget-infeasible candidates are dropped for
//     good — coupon counts never decrease and spend never shrinks.
func (s *solver) investmentDeployment(queue []pivotEntry) *diffusion.Deployment {
	in := s.inst
	choose := s.choose
	if choose == nil {
		choose = (*solver).lazyBest
	}
	n := in.G.NumNodes()

	d := diffusion.NewDeployment(n)
	lz := &lazyID{
		heap:  pq.NewIndexed(n),
		gain:  make([]float64, n),
		stamp: make([]int32, n),
		mark:  make([]bool, n),
	}
	for i := range lz.stamp {
		lz.stamp[i] = -1
	}

	next := 0
	applyPivot := func(p pivotEntry) diffusion.Move {
		mv := diffusion.Move{Node: p.node, Seed: true, K: p.k}
		d.Apply(mv)
		s.touch(p.node)
		return mv
	}
	mv := applyPivot(queue[next])
	next++

	curBenefit := s.benefitRebased(d)
	curSC := in.SCCostOf(d)
	curSeedCost := in.SeedCostOf(d)
	s.record(mv, curBenefit, curSeedCost+curSC)
	s.absorb(lz, d, queue[0].node)

	for iter := 0; iter < maxIDIterations(s.inst.G.NumNodes()); iter++ {
		if s.aborted() {
			break
		}
		s.stats.IDIterations = iter + 1

		bestNode, bestMR, bestGain, bestDC := choose(s, lz, d, curBenefit, curSeedCost+curSC)

		pivot, pivotOK := s.nextPivot(queue, &next, d, curSeedCost+curSC)

		investSC := bestNode >= 0 && bestMR > 0
		if s.opts.DisablePivot {
			// Ablation: never compare against the pivot; only fall back to
			// a new seed when no SC investment is possible.
			if !investSC && !pivotOK {
				break
			}
		} else {
			if investSC && pivotOK && pivot.rate >= bestMR {
				investSC = false // the pivot wins the comparison
			}
			if !investSC && !pivotOK {
				break // nothing feasible remains
			}
		}

		if investSC {
			mv = diffusion.Move{Node: bestNode, K: d.K(bestNode) + 1}
			d.Apply(mv)
			curBenefit += bestGain
			curSC += bestDC
			if s.incremental() {
				// The replay value that won the comparison is only a
				// ranking signal; rebase now so curBenefit and the
				// trajectory record the exact benefit. Net-zero cost: the
				// next evaluation's rebase is then served from the cache.
				curBenefit = s.wc.Rebase(d).Benefit
			}
			s.record(mv, curBenefit, curSeedCost+curSC)
			lz.epoch++
			s.absorb(lz, d, bestNode)
			// Re-queue the winner under its new marginal cost; the cached
			// gain (now stale) remains its upper bound.
			s.requeue(lz, d, bestNode)
		} else {
			if !pivotOK {
				break
			}
			s.requeue(lz, d, bestNode) // the losing candidate stays queued
			mv = applyPivot(pivot)
			next++
			curBenefit = s.benefitRebased(d)
			curSC = in.SCCostOf(d)
			curSeedCost = in.SeedCostOf(d)
			s.record(mv, curBenefit, curSeedCost+curSC)
			lz.epoch++
			s.absorb(lz, d, pivot.node)
			// A new seed can raise gains, so cached values are no longer
			// upper bounds: refresh the entire pool eagerly.
			s.refreshAll(lz, d, curBenefit, curSeedCost+curSC)
		}

		s.emit(iter+1, curSeedCost+curSC, safeRatio(curBenefit, curSeedCost+curSC))
	}
	return s.selectSnapshot(d)
}

// absorb grows the influence marks after v changed (became a seed or gained
// a coupon): v itself and every user newly reachable through coupon-holding
// users join the candidate pool as never-evaluated heap entries (priority
// −∞ before negation, i.e. evaluated on first pop). Already-marked users
// are skipped, so the cost is O(new frontier), not O(V).
func (s *solver) absorb(lz *lazyID, d *diffusion.Deployment, v int32) {
	g := s.inst.G
	q := lz.bfs[:0]
	enter := func(u int32) {
		lz.mark[u] = true
		s.touch(u)
		lz.heap.DecreaseKey(u, math.Inf(-1))
		if d.K(u) > 0 {
			q = append(q, u)
		}
	}
	if !lz.mark[v] {
		enter(v)
	} else if d.K(v) > 0 {
		q = append(q, v)
	}
	for head := 0; head < len(q); head++ {
		ts, _ := g.OutEdges(q[head])
		for _, t := range ts {
			if !lz.mark[t] {
				enter(t)
			}
		}
	}
	lz.bfs = q
}

// requeue reinserts a popped candidate with the priority implied by its
// cached gain and its current marginal coupon cost. Capped candidates are
// dropped for good.
func (s *solver) requeue(lz *lazyID, d *diffusion.Deployment, v int32) {
	if v < 0 || d.K(v) >= s.inst.G.OutDegree(v) {
		return
	}
	lz.heap.DecreaseKey(v, -safeRatio(lz.gain[v], s.marginalSCCost(d, v)))
}

// lazyBest pops the heap until the top candidate's cached gain is fresh for
// the current epoch, re-evaluating stale pops in batches. The returned
// winner (-1 when no feasible candidate remains) is left out of the heap;
// the caller re-queues it via requeue. Because stale priorities upper-bound
// fresh gains (and ties break to smaller ids in heap and batch alike), the
// first fresh top is exactly the exhaustive sweep's argmax.
func (s *solver) lazyBest(lz *lazyID, d *diffusion.Deployment, curBenefit, spent float64) (bestNode int32, bestMR, bestGain, bestDC float64) {
	in := s.inst
	lz.stale = lz.stale[:0]
	for {
		v, pri, ok := lz.heap.Pop()
		if !ok {
			if len(lz.stale) == 0 {
				return -1, 0, 0, 0
			}
			s.refreshBatch(lz, d, curBenefit)
			continue
		}
		if d.K(v) >= in.G.OutDegree(v) {
			continue // SC constraint ki <= |N(vi)|; K never decreases — drop
		}
		dc := s.marginalSCCost(d, v)
		if spent+dc > in.Budget {
			continue // infeasible and spend only grows — drop for good
		}
		if lz.stamp[v] == lz.epoch {
			if len(lz.stale) == 0 {
				return v, -pri, lz.gain[v], dc
			}
			// Fresh, but stale pops with higher bounds preceded it — their
			// true gains may still exceed this one. Re-queue it, settle the
			// batch and keep popping.
			lz.heap.DecreaseKey(v, pri)
			s.refreshBatch(lz, d, curBenefit)
			continue
		}
		if lz.stamp[v] >= 0 {
			s.stats.HeapRepops++
		}
		lz.stale = append(lz.stale, v)
		if len(lz.stale) >= lazyBatchSize {
			s.refreshBatch(lz, d, curBenefit)
		}
	}
}

// refreshBatch evaluates the marginal gain of every candidate in lz.stale
// against the current deployment and re-queues them fresh. Under the
// world-cache engine the whole batch is answered by one frontier-replay
// pass over the worlds; otherwise each candidate costs one full simulation
// (parallelized across workers).
func (s *solver) refreshBatch(lz *lazyID, d *diffusion.Deployment, curBenefit float64) {
	if len(lz.stale) == 0 {
		return
	}
	var benefits []float64
	if s.incremental() {
		curBenefit = s.wc.Rebase(d).Benefit // cache hit except on the first batch after a change
		benefits = s.wc.DeltaBenefits(lz.stale)
	} else {
		benefits = s.evalCandidates(d, lz.stale)
	}
	s.stats.CandidateEvals += int64(len(lz.stale))
	for i, v := range lz.stale {
		lz.gain[v] = benefits[i] - curBenefit
		lz.stamp[v] = lz.epoch
		lz.heap.DecreaseKey(v, -safeRatio(lz.gain[v], s.marginalSCCost(d, v)))
	}
	lz.stale = lz.stale[:0]
}

// refreshAll drains the heap and re-evaluates every still-feasible
// candidate in one batch — the full invalidation a pivot application
// requires, costing exactly one exhaustive iteration.
func (s *solver) refreshAll(lz *lazyID, d *diffusion.Deployment, curBenefit, spent float64) {
	in := s.inst
	lz.stale = lz.stale[:0]
	for {
		v, _, ok := lz.heap.Pop()
		if !ok {
			break
		}
		if d.K(v) >= in.G.OutDegree(v) {
			continue
		}
		if spent+s.marginalSCCost(d, v) > in.Budget {
			continue
		}
		lz.stale = append(lz.stale, v)
	}
	s.refreshBatch(lz, d, curBenefit)
}

// selectSnapshot picks D* = argmax redemption rate over the candidate
// deployments (Alg. 1 line 24) — the prefixes of the move log
// s.trajectory, whose whole replay is the live deployment d — re-scoring
// every prefix with a fresh estimator stream so the selection is unbiased
// by the greedy's own noise. Rates within sketch.RateTolerance of the
// maximum are ties, and ties prefer the later — larger — deployment (the
// paper reports every algorithm's total cost ≈ Binv, which requires
// spending through rate plateaus). The winner is rebuilt from its prefix.
func (s *solver) selectSnapshot(d *diffusion.Deployment) *diffusion.Deployment {
	log := s.trajectory
	if len(log) == 1 || s.opts.SpendBudget || s.aborted() {
		return d
	}
	s.enterPhase("select")
	scorer := s.newScorer()
	// Under the world-cache engine the scorer is a world cache too, and the
	// prefixes form a chain differing by one move each: rebasing along the
	// chain re-simulates only the worlds a step can change — those
	// activating a node whose coupons moved, or, on a seed step, those the
	// new seed can reach. The cache folds its per-world values exactly as a
	// full evaluation does, so the scores are bit-identical and the
	// selection is unchanged.
	wcScorer, _ := scorer.(*diffusion.WorldCache)
	if wcScorer != nil {
		full := wcScorer.Rebases().Full
		defer func() { s.fullRebases += wcScorer.Rebases().Full - full }()
	}
	work := diffusion.NewDeployment(d.NumUsers())
	rates := make([]float64, 0, len(log))
	for i, p := range log {
		if i > 0 && s.aborted() {
			break
		}
		work.Apply(p.Move)
		cost := s.inst.TotalCost(work)
		r := 0.0
		if cost > 0 {
			if wcScorer != nil {
				r = wcScorer.Rebase(work).Benefit / cost
			} else {
				r = scorer.Benefit(work) / cost
			}
		}
		rates = append(rates, r)
		if i > 0 {
			s.emit(i, cost, r)
		}
	}
	return diffusion.Replay(d.NumUsers(), log[:sketch.BestRate(rates)+1])
}

// newScorer builds the independent estimator stream snapshot selection
// re-scores with, on the same engine and triggering model as the solver's
// own evaluations (but a decorrelated coin, so the selection is
// unbiased by the noise that guided the greedy).
func (s *solver) newScorer() diffusion.Evaluator {
	if s.opts.Scorer != nil {
		return s.opts.Scorer
	}
	engine := diffusion.EngineMC
	if s.incremental() {
		engine = diffusion.EngineWorldCache
	}
	seed := s.opts.ScorerSeed
	if seed == 0 {
		seed = s.opts.Seed ^ 0x5c04e
	}
	scorer, err := diffusion.NewEngineOpts(s.inst, diffusion.EngineOptions{
		Engine: engine, Model: s.opts.Model, Samples: s.opts.Samples,
		Seed: seed, Workers: s.opts.Workers,
		LiveEdgeMemBudget: s.opts.LiveEdgeMemBudget,
	})
	if err != nil {
		// Reachable only with an injected Evaluator whose companion option
		// fields name an unknown model; fall back to the plain estimator so
		// selection still happens on a fresh stream.
		est := diffusion.NewEstimator(s.inst, s.opts.Samples, seed)
		est.Workers = s.opts.Workers
		return est
	}
	return scorer
}

// evalCandidates returns, for each candidate, the expected benefit of the
// deployment with one extra coupon at that candidate. With multiple workers
// the evaluations run concurrently, each worker on its own clone of the
// deployment and sequential view of the engine; results are identical to
// sequential evaluation because the estimator's possible worlds are
// stateless.
func (s *solver) evalCandidates(d *diffusion.Deployment, candidates []int32) []float64 {
	out := make([]float64, len(candidates))
	workers := s.opts.Workers
	if _, ok := s.est.(estimatorViewer); !ok || len(candidates) < 4 {
		workers = 1
	}
	par.Each(len(candidates), workers, func() func(int) {
		local, view := d, (*diffusion.Estimator)(nil)
		if workers > 1 {
			local, view = d.Clone(), s.seqView()
		}
		return func(i int) {
			v := candidates[i]
			local.AddK(v, 1)
			out[i] = s.benefitOn(view, local)
			local.AddK(v, -1)
		}
	})
	return out
}
