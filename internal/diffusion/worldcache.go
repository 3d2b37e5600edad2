package diffusion

import (
	"sync"

	"s3crm/internal/par"
)

// WorldCache is the EngineWorldCache implementation of Evaluator: a
// Monte-Carlo engine that snapshots the per-world activation state of a
// base deployment (Rebase) and then answers incremental queries by touching
// only the worlds and frontiers a change can affect.
//
// Three incremental mechanisms ride on the snapshot:
//
//   - Incremental Rebase — moving the base to a deployment that differs
//     only in coupon counts re-simulates only the worlds that activate a
//     changed node (a user's coupons are inert until the user is active),
//     so the ID loop's one-coupon-per-investment cadence pays a fraction of
//     a full simulation per step. Seed-set changes rebase from scratch.
//   - DeltaBenefits — "base plus one coupon at v" for a batch of candidates
//     v, the greedy ID loop's dominant query. Worlds in which v is inactive
//     are untouched, and in the remaining worlds only v's resumed offer
//     scan and the newly activated frontier are replayed. The replay
//     freezes the base world's outcomes (see the fidelity discussion in
//     DESIGN.md): it is an approximation of a from-scratch simulation used
//     only as a ranking signal — the solver re-measures the chosen
//     deployment with full evaluations.
//   - EvaluateDelta — the exact expected benefit of a deployment differing
//     from the base only in the coupon counts of a known set of nodes,
//     re-simulating only the affected worlds through the same kernel.
//
// Full evaluations (Evaluate/Benefit/RedemptionRate) delegate to the
// underlying Estimator, so WorldCache agrees with EngineMC exactly on every
// reported metric. WorldCache is not safe for concurrent use; its batch
// queries parallelize internally when Workers > 1.
type WorldCache struct {
	Est *Estimator

	base       *Deployment
	baseResult Result
	baseSumB   float64 // raw Σ per-world benefit (baseResult.Benefit × Samples)

	// Per-world snapshot, indexed by world: the aggregate metrics and the
	// activation record (in activation order, with offer-scan state). Record
	// slices keep their capacity across rebases and advances.
	outs *worldSlots
	recs []worldRecord

	// Inverted activation index over the records in CSR form, which finds
	// the worlds a changed node can affect; rebuilt lazily after every
	// (re)base move: node v is active in worlds
	// invWorld[invOff[v]:invOff[v+1]] (ascending), at record position
	// invPos[...] of that world. The arrays are reused.
	invBuilt bool
	invOff   []int32
	invWorld []int32
	invPos   []int32
	invCnt   []int32 // scratch for the counting pass

	poolOnce sync.Once
	pool     sync.Pool // of *deltaScratch
}

// maxAdvanceChanged bounds how many coupon-count differences the
// incremental rebase will diff through before giving up and re-simulating
// everything; past a few dozen changed nodes the affected-world union
// approaches every world anyway.
const maxAdvanceChanged = 32

// NewWorldCache returns a world-cache engine over inst with the given
// sample count, coin seed and worker parallelism. The coin stream is
// identical to NewEstimator's for the same seed, so the two engines share
// possible worlds.
func NewWorldCache(inst *Instance, samples int, seed uint64, workers int) *WorldCache {
	est := NewEstimator(inst, samples, seed)
	est.Workers = workers
	return &WorldCache{Est: est}
}

// Evaluate runs a full simulation; identical to the MC engine's.
func (wc *WorldCache) Evaluate(d *Deployment) Result { return wc.Est.Evaluate(d) }

// Benefit estimates B(S, K) with a full simulation.
func (wc *WorldCache) Benefit(d *Deployment) float64 { return wc.Est.Benefit(d) }

// RedemptionRate estimates B/(Cseed+Csc) with a full simulation.
func (wc *WorldCache) RedemptionRate(d *Deployment) float64 { return wc.Est.RedemptionRate(d) }

// Evals returns the number of evaluations performed (each Rebase move —
// full or incremental — and each EvaluateDelta counts as one).
func (wc *WorldCache) Evals() int64 { return wc.Est.Evals() }

// BlockEvals returns the number of 64-world blocks the bit-parallel kernel
// swept across this cache's rebases and delta evaluations.
func (wc *WorldCache) BlockEvals() int64 { return wc.Est.BlockEvals() }

// Rebase makes d the cached base deployment. Rebasing onto an unchanged
// deployment is free; a deployment differing from the base only in the
// coupon counts of a few nodes re-simulates only the worlds that activate a
// changed node; anything else simulates every world. The returned Result
// equals Estimator.Evaluate of d exactly, whichever path ran, at every
// worker count.
func (wc *WorldCache) Rebase(d *Deployment) Result {
	e := wc.Est
	if e.Samples <= 0 {
		panic("diffusion: WorldCache with non-positive sample count")
	}
	if wc.base != nil {
		if wc.base.Equal(d) {
			return wc.baseResult
		}
		if changed, ok := wc.couponDiff(d); ok {
			return wc.advance(d, changed)
		}
	}
	return wc.rebaseFull(d)
}

// rebaseFull simulates every world from scratch — the first Rebase, every
// seed-set move and any move the incremental path cannot prove partial.
func (wc *WorldCache) rebaseFull(d *Deployment) Result {
	e := wc.Est
	e.evals.Add(1)
	wc.base = d.Clone()
	wc.invBuilt = false
	if len(wc.recs) != e.Samples {
		wc.outs = newWorldSlots(e.Samples)
		wc.recs = make([]worldRecord, e.Samples)
	}
	e.sweepAll(d, wc.outs, wc.recs)
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, e.Samples)
	return wc.baseResult
}

// couponDiff compares d against the base: when both hold the same seed set
// and differ in the coupon counts of at most maxAdvanceChanged nodes it
// returns those nodes. The O(V) scan is trivial next to even one world's
// re-simulation.
func (wc *WorldCache) couponDiff(d *Deployment) ([]int32, bool) {
	base := wc.base
	if base.NumSeeds() != d.NumSeeds() {
		return nil, false
	}
	for _, s := range d.Seeds() {
		if !base.IsSeed(s) {
			return nil, false
		}
	}
	var changed []int32
	n := int32(d.NumUsers())
	for v := int32(0); v < n; v++ {
		if base.K(v) != d.K(v) {
			if len(changed) >= maxAdvanceChanged {
				return nil, false
			}
			changed = append(changed, v)
		}
	}
	return changed, true
}

// advance moves the base to d, which differs only in the coupon counts of
// changed: worlds that activate none of the changed nodes are provably
// identical (an inactive user's coupons never matter), and so is a world
// whose recorded scan of every changed node it activates never ran short
// of coupons (scanUnchanged); the rest re-simulate. Every world is decided
// against the OUTGOING base before any re-simulation mutates a record — a
// world inert for one changed node may still need re-simulation for
// another.
func (wc *WorldCache) advance(d *Deployment, changed []int32) Result {
	e := wc.Est
	e.evals.Add(1)
	wc.buildInverted()
	affected := make([]bool, e.Samples)
	for _, v := range changed {
		kOld, kNew := wc.base.K(v), d.K(v)
		ws, ps := wc.activeWorlds(v)
		for i, w := range ws {
			if !scanUnchanged(kOld, kNew, int(wc.recs[w].scanRed[ps[i]])) {
				affected[w] = true
			}
		}
	}
	e.sweepWorlds(d, affectedWorlds(affected), wc.outs, wc.recs)
	wc.base = d.Clone()
	wc.invBuilt = false
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, e.Samples)
	return wc.baseResult
}

// affectedWorlds lists the worlds flagged in affected, in ascending order.
func affectedWorlds(affected []bool) []int32 {
	var worlds []int32
	for w, hit := range affected {
		if hit {
			worlds = append(worlds, int32(w))
		}
	}
	return worlds
}

// scanUnchanged reports whether a world's snapshot is provably identical
// after a node's coupon count moves from kOld to kNew, given the coupons
// its recorded scan redeemed: the scan cannot change when it never ran out
// of coupons (extra allowance is inert; reduced-but-slack allowance was
// never binding either — at red == kNew the new scan would stop at its last
// redemption instead of the list end, moving the recorded resume position,
// so slack must be strict).
func scanUnchanged(kOld, kNew, red int) bool {
	if kNew > kOld {
		return red < kOld
	}
	return red < kNew
}

// buildInverted lazily (re)builds the CSR inverted activation index against
// the current base, reusing its arrays across rebuilds.
func (wc *WorldCache) buildInverted() {
	if wc.invBuilt {
		return
	}
	wc.invBuilt = true
	n := wc.Est.Inst.G.NumNodes()
	total := 0
	if cap(wc.invCnt) < n+1 {
		wc.invCnt = make([]int32, n+1)
		wc.invOff = make([]int32, n+1)
	}
	wc.invCnt = wc.invCnt[:n+1]
	wc.invOff = wc.invOff[:n+1]
	clear(wc.invCnt)
	for w := range wc.recs {
		total += len(wc.recs[w].nodes)
		for _, v := range wc.recs[w].nodes {
			wc.invCnt[v+1]++
		}
	}
	for v := 0; v < n; v++ {
		wc.invCnt[v+1] += wc.invCnt[v]
	}
	copy(wc.invOff, wc.invCnt)
	if cap(wc.invWorld) < total {
		wc.invWorld = make([]int32, total)
		wc.invPos = make([]int32, total)
	}
	wc.invWorld = wc.invWorld[:total]
	wc.invPos = wc.invPos[:total]
	cursor := wc.invCnt[:n] // reuse the counting array as the fill cursor
	for w := range wc.recs {
		for i, v := range wc.recs[w].nodes {
			at := cursor[v]
			wc.invWorld[at] = int32(w)
			wc.invPos[at] = int32(i)
			cursor[v]++
		}
	}
}

// activeWorlds returns the worlds activating v (ascending) with the
// matching record positions. buildInverted must have run.
func (wc *WorldCache) activeWorlds(v int32) (worlds, pos []int32) {
	lo, hi := wc.invOff[v], wc.invOff[v+1]
	return wc.invWorld[lo:hi], wc.invPos[lo:hi]
}

// deltaScratch is per-worker replay state. The base-world stamp is
// repopulated once per world and shared by all of the worker's candidates;
// the delta stamp is bumped per replay so candidate frontiers never leak
// into each other.
type deltaScratch struct {
	epoch  int32
	stamp  []int32 // stamp[v] == epoch ⇒ v active in the base world
	stop   []int32 // offer-scan resume position, valid where stamp matches
	red    []int32 // coupons redeemed by the base scan, valid where stamp matches
	dEpoch int32
	dStamp []int32 // dStamp[v] == dEpoch ⇒ v activated by the current replay
	queue  []int32
}

func newDeltaScratch(n int) *deltaScratch {
	return &deltaScratch{
		stamp:  make([]int32, n),
		stop:   make([]int32, n),
		red:    make([]int32, n),
		dStamp: make([]int32, n),
		queue:  make([]int32, 0, 64),
	}
}

// ensure grows the per-node arrays to n entries. Appended entries are zero,
// which can only collide with epoch 0 — a value the epoch counters skip —
// so grown scratches need no epoch reset. Dynamic graphs add nodes between
// uses of a pooled scratch; every getDelta re-checks the size.
func (sc *deltaScratch) ensure(n int) {
	if len(sc.dStamp) >= n {
		return
	}
	grow := func(a []int32) []int32 {
		b := make([]int32, n)
		copy(b, a)
		return b
	}
	sc.stamp = grow(sc.stamp)
	sc.stop = grow(sc.stop)
	sc.red = grow(sc.red)
	sc.dStamp = grow(sc.dStamp)
}

func (sc *deltaScratch) nextWorld() {
	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.stamp {
			sc.stamp[i] = -1
		}
		sc.epoch = 1
	}
}

func (sc *deltaScratch) nextReplay() {
	sc.dEpoch++
	if sc.dEpoch == 0 {
		for i := range sc.dStamp {
			sc.dStamp[i] = -1
		}
		sc.dEpoch = 1
	}
	sc.queue = sc.queue[:0]
}

func (wc *WorldCache) getDelta() *deltaScratch {
	wc.poolOnce.Do(func() {
		n := wc.Est.Inst.G.NumNodes()
		wc.pool.New = func() any { return newDeltaScratch(n) }
	})
	sc := wc.pool.Get().(*deltaScratch)
	// PatchEdges may have grown the node set since this scratch (or the
	// pool's New closure) was sized.
	sc.ensure(wc.Est.Inst.G.NumNodes())
	return sc
}

func (wc *WorldCache) putDelta(sc *deltaScratch) { wc.pool.Put(sc) }

// DeltaBenefits estimates, for every candidate v, the expected benefit of
// the base deployment with one extra coupon at v, replaying only the
// affected frontier of the worlds that activate v. The result slice is
// aligned with cands; candidates the base never activates return the base
// benefit unchanged. Rebase must have been called first.
//
// The query sweeps the worlds in ascending order, repopulating each world's
// stamp map once and amortizing it across the candidate batch. Workers
// split the batch into contiguous candidate chunks (par.Ranges) and each
// sweeps every world for its own chunk, so a candidate's per-world deltas
// fold in the same order at every worker count: the result is bit-identical
// to the sequential sweep.
func (wc *WorldCache) DeltaBenefits(cands []int32) []float64 {
	if wc.base == nil {
		panic("diffusion: DeltaBenefits before Rebase")
	}
	out := make([]float64, len(cands))
	e := wc.Est
	par.Ranges(len(cands), e.Workers, func(_, lo, hi int) {
		sc := wc.getDelta()
		wc.deltaWorlds(sc, cands[lo:hi], out[lo:hi])
		wc.putDelta(sc)
	})
	base := wc.baseResult.Benefit
	inv := 1 / float64(e.Samples)
	for i := range out {
		out[i] = base + out[i]*inv
	}
	return out
}

// deltaWorlds accumulates each candidate's summed per-world benefit delta
// into out, sweeping every world in ascending order. The O(|A_w|) stamp
// repopulation is paid once per world and amortized across cands.
func (wc *WorldCache) deltaWorlds(sc *deltaScratch, cands []int32, out []float64) {
	for w := range wc.recs {
		sc.nextWorld()
		rec := &wc.recs[w]
		for i, v := range rec.nodes {
			sc.stamp[v] = sc.epoch
			sc.stop[v] = rec.scanStop[i]
			sc.red[v] = rec.scanRed[i]
		}
		for ci, v := range cands {
			if sc.stamp[v] != sc.epoch {
				continue // v inactive in this world: an extra coupon is inert
			}
			out[ci] += wc.replayAddCoupon(sc, uint64(w), v)
		}
	}
}

// replayAddCoupon returns the benefit this world gains when active node v
// is granted one extra coupon: v's offer scan resumes where it stopped with
// one more redemption allowed, and any newly activated user cascades with
// its own base allocation. Base-world outcomes are frozen — already-active
// users are skipped without consuming coupons, exactly as in the kernel.
func (wc *WorldCache) replayAddCoupon(sc *deltaScratch, world uint64, v int32) float64 {
	k := wc.base.K(v)
	if int(sc.red[v]) < k {
		return 0 // the base scan already had a spare coupon; one more is inert
	}
	in := wc.Est.Inst
	g := in.G
	le := wc.Est.Live
	sc.nextReplay()
	delta := 0.0
	targets, _, keys, kbase := g.OutRow(v)
	base := uint64(kbase)
	for j := int(sc.stop[v]); j < len(targets); j++ {
		t := targets[j]
		if sc.stamp[t] == sc.epoch || sc.dStamp[t] == sc.dEpoch {
			continue // already active: no coupon consumed
		}
		ek := base + uint64(j)
		if keys != nil {
			ek = uint64(uint32(keys[j]))
		}
		if le.Live(world, ek) {
			sc.dStamp[t] = sc.dEpoch
			sc.queue = append(sc.queue, t)
			break // the single extra coupon is spent
		}
	}
	for head := 0; head < len(sc.queue); head++ {
		u := sc.queue[head]
		delta += in.Benefit[u]
		coupons := wc.base.K(u)
		if coupons == 0 {
			continue
		}
		ts, _, uk, ukb := g.OutRow(u)
		ub := uint64(ukb)
		redeemed := 0
		for j, t := range ts {
			if redeemed >= coupons {
				break
			}
			if sc.stamp[t] == sc.epoch || sc.dStamp[t] == sc.dEpoch {
				continue
			}
			ek := ub + uint64(j)
			if uk != nil {
				ek = uint64(uint32(uk[j]))
			}
			if le.Live(world, ek) {
				sc.dStamp[t] = sc.dEpoch
				sc.queue = append(sc.queue, t)
				redeemed++
			}
		}
	}
	return delta
}

// EvaluateDelta returns the exact expected benefit of d, which must differ
// from the rebased deployment only in the coupon counts of the nodes in
// changed (same seed set; changed may safely over-approximate the true
// difference). A world is unaffected unless the base activates one of the
// changed nodes — a user's coupon count only matters once the user is
// active — so only the affected worlds are re-simulated. Unlike Rebase the
// base snapshot is left in place, so a batch of trials (the SCM donor scan)
// all evaluate against the same base. Up to floating-point summation order
// the result equals a full Benefit(d).
func (wc *WorldCache) EvaluateDelta(d *Deployment, changed []int32) float64 {
	if wc.base == nil {
		panic("diffusion: EvaluateDelta before Rebase")
	}
	e := wc.Est
	e.evals.Add(1)
	wc.buildInverted()
	affected := make([]bool, e.Samples)
	for _, v := range changed {
		ws, _ := wc.activeWorlds(v)
		for _, w := range ws {
			affected[w] = true
		}
	}
	worlds := affectedWorlds(affected)
	slots := getSlots(e.Samples)
	defer slotPool.Put(slots)
	e.sweepWorlds(d, worlds, slots, nil)
	// The deltas fold into the raw base sum in ascending world order.
	sum := wc.baseSumB
	for _, w := range worlds {
		sum += slots.benefit[w] - wc.outs.benefit[w]
	}
	return sum / float64(e.Samples)
}
