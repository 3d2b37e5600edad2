package diffusion

import (
	"math/bits"
	"sync"

	"s3crm/internal/bitset"
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

	// The snapshot: per-world aggregate metrics, and per 64-world block the
	// activation events in the block kernel's order with the coupon
	// holders' offer-scan state (blockSnap). Both keep their capacity across
	// rebases and advances.
	outs  *worldSlots
	snaps []blockSnap

	// Inverted activation index over the live snapshot entries in CSR form,
	// which finds the worlds a changed node can affect; rebuilt lazily after
	// every (re)base move: node v's entries are inv[invOff[v]:invOff[v+1]],
	// in ascending block order. The arrays are reused.
	invBuilt bool
	invOff   []int32
	inv      []entryRef
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
	if nb := (e.Samples + bitset.WordMask) / bitset.WordBits; len(wc.snaps) != nb {
		wc.outs = newWorldSlots(e.Samples)
		wc.snaps = make([]blockSnap, nb)
	}
	e.sweepAll(d, wc.outs, wc.snaps)
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, e.Samples)
	return wc.baseResult
}

// couponDiff compares d against the base: when both hold the same seed set
// and differ in the coupon counts of at most maxAdvanceChanged nodes it
// returns those nodes, ascending. Only a holder of either deployment can
// differ, so the diff merges the two holder lists instead of scanning every
// user.
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
	bh, dh := base.holders, d.holders
	for len(bh) > 0 || len(dh) > 0 {
		var v int32
		switch {
		case len(dh) == 0 || len(bh) > 0 && bh[0] < dh[0]:
			v, bh = bh[0], bh[1:]
		case len(bh) == 0 || dh[0] < bh[0]:
			v, dh = dh[0], dh[1:]
		default:
			v, bh, dh = bh[0], bh[1:], dh[1:]
		}
		if int(v) >= d.n {
			break // only base holders past d's users are left
		}
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
// against the OUTGOING base before any re-simulation mutates the snapshot
// — a world inert for one changed node may still need re-simulation for
// another.
func (wc *WorldCache) advance(d *Deployment, changed []int32) Result {
	e := wc.Est
	e.evals.Add(1)
	wc.buildInverted()
	affected := make([]uint64, len(wc.snaps))
	for _, v := range changed {
		kOld, kNew := wc.base.K(v), d.K(v)
		for _, r := range wc.activeEntries(v) {
			s := &wc.snaps[r.blk]
			ent := s.ents[r.idx]
			for m := ent.mask &^ affected[r.blk]; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				if red, _ := s.scanAt(ent, w); !scanUnchanged(kOld, kNew, int(red)) {
					affected[r.blk] |= 1 << uint(w)
				}
			}
		}
	}
	e.sweepMasks(d, affected, wc.outs, wc.snaps)
	wc.base = d.Clone()
	wc.invBuilt = false
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, e.Samples)
	return wc.baseResult
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

// entryRef names one snapshot entry: entry idx of block blk.
type entryRef struct{ blk, idx int32 }

// buildInverted lazily (re)builds the CSR inverted activation index over the
// live snapshot entries of the current base, reusing its arrays across
// rebuilds.
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
	for b := range wc.snaps {
		for _, ent := range wc.snaps[b].ents {
			if ent.mask != 0 {
				wc.invCnt[ent.node+1]++
				total++
			}
		}
	}
	for v := 0; v < n; v++ {
		wc.invCnt[v+1] += wc.invCnt[v]
	}
	copy(wc.invOff, wc.invCnt)
	if cap(wc.inv) < total {
		wc.inv = make([]entryRef, total)
	}
	wc.inv = wc.inv[:total]
	cursor := wc.invCnt[:n] // reuse the counting array as the fill cursor
	for b := range wc.snaps {
		for i, ent := range wc.snaps[b].ents {
			if ent.mask != 0 {
				wc.inv[cursor[ent.node]] = entryRef{blk: int32(b), idx: int32(i)}
				cursor[ent.node]++
			}
		}
	}
}

// activeEntries returns the live snapshot entries of v, in ascending block
// order; their masks are the worlds activating v. buildInverted must have
// run.
func (wc *WorldCache) activeEntries(v int32) []entryRef {
	return wc.inv[wc.invOff[v]:wc.invOff[v+1]]
}

// deltaScratch is per-worker replay state. The base worlds' membership
// masks and the coupon holders' scan state are filled once per block and
// shared by all of the worker's candidates; the delta stamp is bumped per
// replay so candidate frontiers never leak into each other.
type deltaScratch struct {
	active []uint64     // active[v]: the current block's worlds in which the base activates v
	slot   []int32      // slot[v]: 1 + index in scans of holder v's scan state this block; 0 if none
	scans  []holderScan // per holder active in the current block
	dEpoch int32
	dStamp []int32 // dStamp[v] == dEpoch ⇒ v activated by the current replay
	queue  []int32
}

// holderScan is one coupon holder's offer-scan state across a block's
// worlds, valid at the worlds activating it.
type holderScan struct {
	red  [64]int32 // coupons the base scan redeemed
	stop [64]int32 // where the base scan stopped
}

func newDeltaScratch(n int) *deltaScratch {
	return &deltaScratch{
		active: make([]uint64, n),
		slot:   make([]int32, n),
		dStamp: make([]int32, n),
		queue:  make([]int32, 0, 64),
	}
}

// ensure grows the per-node arrays to n entries. Appended entries are zero:
// an empty mask, no slot, and a stamp that can only collide with epoch 0 —
// a value the epoch counter skips — so grown scratches need no reset.
// Dynamic graphs add nodes between uses of a pooled scratch; every getDelta
// re-checks the size.
func (sc *deltaScratch) ensure(n int) {
	if len(sc.dStamp) >= n {
		return
	}
	sc.active = append(sc.active, make([]uint64, n-len(sc.active))...)
	sc.slot = append(sc.slot, make([]int32, n-len(sc.slot))...)
	sc.dStamp = append(sc.dStamp, make([]int32, n-len(sc.dStamp))...)
}

// fill loads block snapshot s: each live entry ORs its worlds into its
// node's mask, and a holder's entries copy their scan state into the
// holder's slot.
func (sc *deltaScratch) fill(s *blockSnap) {
	sc.scans = sc.scans[:0]
	for _, ent := range s.ents {
		if ent.mask == 0 {
			continue
		}
		sc.active[ent.node] |= ent.mask
		if ent.scan == noScan {
			continue
		}
		if sc.slot[ent.node] == 0 {
			sc.scans = append(sc.scans, holderScan{})
			sc.slot[ent.node] = int32(len(sc.scans))
		}
		h := &sc.scans[sc.slot[ent.node]-1]
		for m := ent.mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			h.red[w], h.stop[w] = s.scanAt(ent, w)
		}
	}
}

// unfill clears what fill loaded from s.
func (sc *deltaScratch) unfill(s *blockSnap) {
	for _, ent := range s.ents {
		sc.active[ent.node] = 0
		sc.slot[ent.node] = 0
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
// The query sweeps the snapshot's blocks in ascending order, loading each
// block's membership masks once and amortizing them across the candidate
// batch. Workers split the batch into contiguous candidate chunks
// (par.Ranges) and each sweeps every block for its own chunk, so a
// candidate's per-world deltas fold in the same order at every worker
// count: the result is bit-identical to the sequential sweep.
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
// into out, sweeping the blocks in ascending order and, per candidate, the
// block's worlds activating it in ascending order — so each candidate's
// deltas fold in ascending world order. Loading a block (fill) costs one
// pass over its entries and is amortized across cands.
func (wc *WorldCache) deltaWorlds(sc *deltaScratch, cands []int32, out []float64) {
	for b := range wc.snaps {
		s := &wc.snaps[b]
		sc.fill(s)
		worldBase := uint64(b * bitset.WordBits)
		for ci, v := range cands {
			// Worlds where v is inactive are skipped: an extra coupon is inert.
			for m := sc.active[v]; m != 0; m &= m - 1 {
				out[ci] += wc.replayAddCoupon(sc, worldBase, bits.TrailingZeros64(m), v)
			}
		}
		sc.unfill(s)
	}
}

// replayAddCoupon returns the benefit world worldBase+w (w a bit of the
// loaded block) gains when active node v is granted one extra coupon: v's
// offer scan resumes where it stopped with one more redemption allowed, and
// any newly activated user cascades with its own base allocation.
// Base-world outcomes are frozen — already-active users are skipped without
// consuming coupons, exactly as in the kernel.
func (wc *WorldCache) replayAddCoupon(sc *deltaScratch, worldBase uint64, w int, v int32) float64 {
	k := wc.base.K(v)
	var red, stop int32
	if k > 0 {
		h := &sc.scans[sc.slot[v]-1]
		red, stop = h.red[w], h.stop[w]
	}
	if int(red) < k {
		return 0 // the base scan already had a spare coupon; one more is inert
	}
	in := wc.Est.Inst
	g := in.G
	le := wc.Est.Live
	world := worldBase + uint64(w)
	bit := uint64(1) << uint(w)
	sc.nextReplay()
	delta := 0.0
	targets, _, keys, kbase := g.OutRow(v)
	base := uint64(kbase)
	for j := int(stop); j < len(targets); j++ {
		t := targets[j]
		if sc.active[t]&bit != 0 || sc.dStamp[t] == sc.dEpoch {
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
			if sc.active[t]&bit != 0 || sc.dStamp[t] == sc.dEpoch {
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
	affected := make([]uint64, len(wc.snaps))
	for _, v := range changed {
		for _, r := range wc.activeEntries(v) {
			affected[r.blk] |= wc.snaps[r.blk].ents[r.idx].mask
		}
	}
	slots := getSlots(e.Samples)
	defer slotPool.Put(slots)
	e.sweepMasks(d, affected, slots, nil)
	// The deltas fold into the raw base sum in ascending world order.
	sum := wc.baseSumB
	for b, m := range affected {
		for ; m != 0; m &= m - 1 {
			w := b*bitset.WordBits + bits.TrailingZeros64(m)
			sum += slots.benefit[w] - wc.outs.benefit[w]
		}
	}
	return sum / float64(e.Samples)
}
