package diffusion

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"s3crm/internal/bitset"
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

	// Per-world snapshot: activation record (in activation order, with
	// offer-scan state) plus the world's aggregate metrics. Record slices
	// keep their capacity across rebases and advances.
	worlds []worldState

	// act[w*actWords : (w+1)*actWords] is world w's activation bitset —
	// membership reads for candidate replays without repopulating stamp
	// maps — and seen[...] its examined-node bitset (activated or probed),
	// which keeps the Explored accounting exact when scans are patched in
	// place. Both nil when Samples × |V| bits exceeds maxActBitsetBytes;
	// delta queries then fall back to the world-major stamp sweep.
	act      []uint64
	seen     []uint64
	actWords int

	// Dense tier (within maxDenseScanBytes): the transposed activation
	// bitset actT[v*actTWords:] — node v's active worlds as a bit row, for
	// sequential world scans per candidate — and the per-(node, world)
	// offer-scan state denseStop/denseRed[v*Samples+w], valid wherever the
	// actT bit is set. Together they answer every per-candidate query with
	// direct reads, so no inverted index is (re)built on the hot path.
	dense     bool
	actT      []uint64
	actTWords int
	denseStop []int32
	denseRed  []int32

	// Inverted activation index in CSR form (the fallback when the dense
	// tier is over budget), rebuilt lazily after every (re)base move: node
	// v is active in worlds invWorld[invOff[v]:invOff[v+1]], at record
	// position invPos[...] of that world. The arrays are reused.
	invBuilt bool
	invOff   []int32
	invWorld []int32
	invPos   []int32
	invCnt   []int32 // scratch for the counting pass

	poolOnce sync.Once
	pool     sync.Pool // of *deltaScratch
}

// worldState is one possible world's snapshot.
type worldState struct {
	rec       worldRecord
	benefit   float64
	cost      float64
	hop       int32
	activated int32
	explored  int32
}

// maxActBitsetBytes caps the per-world activation bitsets: Samples × |V|
// bits. 64 MiB covers 1000 worlds over a half-million-node graph; beyond
// that the delta queries repopulate stamps per world instead. A variable so
// tests can force the fallback path.
var maxActBitsetBytes = int64(64) << 20

// maxDenseScanBytes caps the dense per-(node, world) scan-state arrays
// (8 bytes per pair). 128 MiB covers 1000 worlds over a 16k-node graph;
// beyond that per-candidate queries walk the CSR inverted index instead. A
// variable so tests can force the fallback tier.
var maxDenseScanBytes = int64(128) << 20

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
// equals a sequential Estimator.Evaluate of d exactly, whichever path ran.
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
		if s, ok := wc.seedAddDiff(d); ok {
			return wc.advanceSeed(d, s)
		}
	}
	return wc.rebaseFull(d)
}

// rebaseFull simulates every world from scratch — the first Rebase and any
// move the incremental paths cannot prove partial.
func (wc *WorldCache) rebaseFull(d *Deployment) Result {
	e := wc.Est
	e.evals.Add(1)
	wc.base = d.Clone()
	wc.invBuilt = false
	if len(wc.worlds) != e.Samples {
		wc.worlds = make([]worldState, e.Samples)
	}
	wc.sizeMaterialized()
	workers := e.Workers
	if workers <= 1 || e.Samples < 4*workers {
		wc.rebaseRange(d, 0, e.Samples)
	} else if e.bitParallel() {
		// Block-aligned worker ranges: a 64-world block split between two
		// workers would be simulated twice with partial masks. Alignment
		// cannot drift results — snapshots are per-world and refreshSums
		// folds them in ascending world order regardless of the split.
		nb := (e.Samples + 63) / 64
		if workers > nb {
			workers = nb
		}
		var wg sync.WaitGroup
		per := nb / workers
		extra := nb % workers
		start := 0
		for i := 0; i < workers; i++ {
			count := per
			if i < extra {
				count++
			}
			lo, hi := start*64, (start+count)*64
			start += count
			if hi > e.Samples {
				hi = e.Samples
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				wc.rebaseRange(d, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		var wg sync.WaitGroup
		per := e.Samples / workers
		extra := e.Samples % workers
		start := 0
		for i := 0; i < workers; i++ {
			count := per
			if i < extra {
				count++
			}
			lo, hi := start, start+count
			start = hi
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				wc.rebaseRange(d, lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}
	wc.materializeDense()
	wc.refreshSums()
	return wc.baseResult
}

// sizeMaterialized (re)allocates the materialized membership structures
// for the current sample count and graph size, deciding which tiers fit
// their budgets. Runs before the (possibly parallel) world re-simulation so
// the workers only ever write into world-owned regions.
func (wc *WorldCache) sizeMaterialized() {
	e := wc.Est
	n := e.Inst.G.NumNodes()
	wc.actWords = (n + 63) / 64
	wc.actTWords = (e.Samples + 63) / 64
	total := e.Samples * wc.actWords
	if int64(total)*8 > maxActBitsetBytes {
		wc.act = nil
		wc.seen = nil
		wc.dense = false
		return
	}
	if cap(wc.act) < total || cap(wc.seen) < total {
		wc.act = make([]uint64, total)
		wc.seen = make([]uint64, total)
	}
	wc.act = wc.act[:total]
	wc.seen = wc.seen[:total]
	pairs := int64(n) * int64(e.Samples)
	wc.dense = pairs*8 <= maxDenseScanBytes
	if wc.dense {
		tTotal := n * wc.actTWords
		if cap(wc.actT) < tTotal {
			wc.actT = make([]uint64, tTotal)
		}
		wc.actT = wc.actT[:tTotal]
		if int64(cap(wc.denseStop)) < pairs {
			wc.denseStop = make([]int32, pairs)
			wc.denseRed = make([]int32, pairs)
		}
		wc.denseStop = wc.denseStop[:pairs]
		wc.denseRed = wc.denseRed[:pairs]
	}
}

// materializeDense rebuilds the node-major bit rows and dense scan state
// from every world's snapshot after a full rebase. (The world-major act
// bitsets are maintained inside resimWorld, whose writes are world-owned;
// the node-major rows pack neighbouring worlds into shared words, so they
// are rebuilt here, outside the parallel section.)
func (wc *WorldCache) materializeDense() {
	if !wc.dense {
		return
	}
	clear(wc.actT)
	s := wc.Est.Samples
	for w := range wc.worlds {
		rec := &wc.worlds[w].rec
		for i, v := range rec.nodes {
			wc.actT[int(v)*wc.actTWords+(w>>6)] |= 1 << (uint(w) & 63)
			idx := int(v)*s + w
			wc.denseStop[idx] = rec.scanStop[i]
			wc.denseRed[idx] = rec.scanRed[i]
		}
	}
}

// rebaseRange re-simulates worlds [lo, hi) into their snapshots. Each
// world's record reuses its previous capacity, and workers touch disjoint
// world ranges, so the parallel rebase produces bit-identical snapshots to
// the sequential one.
func (wc *WorldCache) rebaseRange(d *Deployment, lo, hi int) {
	e := wc.Est
	if e.bitParallel() {
		wc.rebaseBlocks(d, lo, hi)
		return
	}
	s := e.getScratch()
	defer e.putScratch(s)
	hint := 16
	for w := lo; w < hi; w++ {
		if w&63 == 0 && e.cancelled() {
			// Abort the sweep. The cache is now inconsistent (some worlds
			// stale); the caller must discard this WorldCache after seeing
			// the cancellation — the Campaign layer never pools a cache
			// whose call returned an error.
			return
		}
		ws := &wc.worlds[w]
		if cap(ws.rec.nodes) == 0 {
			// Fresh cache: pre-size this world's record near its
			// neighbour's final size, avoiding the doubling-growth
			// allocations a cold rebase would otherwise pay per world.
			ws.rec.nodes = make([]int32, 0, hint)
			ws.rec.scanStop = make([]int32, 0, hint)
			ws.rec.scanRed = make([]int32, 0, hint)
			ws.rec.probed = make([]int32, 0, hint+hint/2)
		}
		wc.resimWorld(s, d, w, false)
		hint = len(ws.rec.nodes) + 8
	}
}

// rebaseBlocks is rebaseRange's block-kernel form: worlds [lo, hi) are
// re-simulated one 64-aligned block at a time (partial masks at the ragged
// ends). Snapshots are bit-identical to the scalar sweep's — simBlock
// reproduces every world's scalar activation order — so the rebase stays
// deterministic whatever the worker split.
func (wc *WorldCache) rebaseBlocks(d *Deployment, lo, hi int) {
	e := wc.Est
	bs := e.getBlockScratch()
	defer e.putBlockScratch(bs)
	for base := lo &^ 63; base < hi; base += 64 {
		if e.cancelled() {
			// Abort the sweep; as in the scalar path, the caller discards a
			// cancelled cache.
			return
		}
		blo, bhi := 0, 64
		if base < lo {
			blo = lo - base
		}
		if base+64 > hi {
			bhi = hi - base
		}
		wc.resimBlock(bs, d, base, bitset.RangeMask(blo, bhi), false)
	}
}

// resimBlock re-simulates the masked worlds of the 64-aligned block at base
// into their snapshot slots — resimWorld's block counterpart, sharing one
// BFS pass across the block. With mat (sequential callers only) it also
// reconciles the dense tier for those worlds.
func (wc *WorldCache) resimBlock(bs *blockScratch, d *Deployment, base int, mask uint64, mat bool) {
	e := wc.Est
	e.blocks.Add(1)
	mat = mat && wc.dense
	var recs [64]*worldRecord
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		w := base + b
		ws := &wc.worlds[w]
		if mat {
			for _, v := range ws.rec.nodes {
				bitset.Clear(wc.worldRow(v), w)
			}
		}
		ws.rec.nodes = ws.rec.nodes[:0]
		ws.rec.scanStop = ws.rec.scanStop[:0]
		ws.rec.scanRed = ws.rec.scanRed[:0]
		ws.rec.probed = ws.rec.probed[:0]
		recs[b] = &ws.rec
	}
	e.simBlock(bs, d, uint64(base), mask, &recs)
	for m := mask; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		w := base + b
		ws := &wc.worlds[w]
		ws.benefit = bs.worldB[b]
		ws.cost = bs.worldC[b]
		ws.hop = bs.maxHop[b]
		ws.activated = bs.activated[b]
		ws.explored = bs.explored[b]
		if wc.act != nil {
			abits := wc.act[w*wc.actWords : (w+1)*wc.actWords]
			clear(abits)
			for _, v := range ws.rec.nodes {
				abits[v>>6] |= 1 << (uint(v) & 63)
			}
			sbits := wc.seen[w*wc.actWords : (w+1)*wc.actWords]
			clear(sbits)
			for _, v := range ws.rec.probed {
				sbits[v>>6] |= 1 << (uint(v) & 63)
			}
		}
		if mat {
			samples := e.Samples
			for i, v := range ws.rec.nodes {
				bitset.Set(wc.worldRow(v), w)
				idx := int(v)*samples + w
				wc.denseStop[idx] = ws.rec.scanStop[i]
				wc.denseRed[idx] = ws.rec.scanRed[i]
			}
		}
	}
}

// resimWorlds re-simulates a scattered ascending set of worlds, routing
// runs that share a 64-world block through the block kernel and lone
// worlds through the scalar kernel (a one-bit mask pays the block
// bookkeeping for no parallelism). Snapshots are identical either way.
func (wc *WorldCache) resimWorlds(d *Deployment, worlds []int32, mat bool) {
	e := wc.Est
	if !e.bitParallel() {
		s := e.getScratch()
		defer e.putScratch(s)
		for _, w := range worlds {
			wc.resimWorld(s, d, int(w), mat)
		}
		return
	}
	var (
		s  *simScratch
		bs *blockScratch
	)
	defer func() {
		if s != nil {
			e.putScratch(s)
		}
		if bs != nil {
			e.putBlockScratch(bs)
		}
	}()
	for i := 0; i < len(worlds); {
		base := int(worlds[i]) &^ 63
		j := i
		var mask uint64
		for ; j < len(worlds) && int(worlds[j]) < base+64; j++ {
			mask |= 1 << (uint(worlds[j]) & 63)
		}
		if j == i+1 {
			if s == nil {
				s = e.getScratch()
			}
			wc.resimWorld(s, d, int(worlds[i]), mat)
		} else {
			if bs == nil {
				bs = e.getBlockScratch()
			}
			wc.resimBlock(bs, d, base, mask, mat)
		}
		i = j
	}
}

// resimWorld re-simulates one world into its snapshot slot, refreshing its
// world-major activation bitset. With mat (sequential callers only — the
// node-major rows pack neighbouring worlds into shared words) it also
// reconciles the dense tier for this world.
func (wc *WorldCache) resimWorld(s *simScratch, d *Deployment, w int, mat bool) {
	ws := &wc.worlds[w]
	mat = mat && wc.dense
	if mat {
		for _, v := range ws.rec.nodes {
			wc.actT[int(v)*wc.actTWords+(w>>6)] &^= 1 << (uint(w) & 63)
		}
	}
	ws.rec.nodes = ws.rec.nodes[:0]
	ws.rec.scanStop = ws.rec.scanStop[:0]
	ws.rec.scanRed = ws.rec.scanRed[:0]
	ws.rec.probed = ws.rec.probed[:0]
	b, c, hop, activated, explored := wc.Est.simWorld(s, d, uint64(w), &ws.rec)
	ws.benefit = b
	ws.cost = c
	ws.hop = hop
	ws.activated = int32(activated)
	ws.explored = int32(explored)
	if wc.act != nil {
		bits := wc.act[w*wc.actWords : (w+1)*wc.actWords]
		clear(bits)
		for _, v := range ws.rec.nodes {
			bits[v>>6] |= 1 << (uint(v) & 63)
		}
		sbits := wc.seen[w*wc.actWords : (w+1)*wc.actWords]
		clear(sbits)
		for _, v := range ws.rec.probed {
			sbits[v>>6] |= 1 << (uint(v) & 63)
		}
	}
	if mat {
		samples := wc.Est.Samples
		for i, v := range ws.rec.nodes {
			wc.actT[int(v)*wc.actTWords+(w>>6)] |= 1 << (uint(w) & 63)
			idx := int(v)*samples + w
			wc.denseStop[idx] = ws.rec.scanStop[i]
			wc.denseRed[idx] = ws.rec.scanRed[i]
		}
	}
}

// refreshSums recomputes the aggregate Result from the per-world metrics in
// ascending world order — the same summation order as a sequential full
// evaluation, so the cached Result is bit-identical however the per-world
// values were produced (full rebase, parallel rebase or incremental
// advance).
func (wc *WorldCache) refreshSums() {
	var b, c, a, h, x float64
	for w := range wc.worlds {
		ws := &wc.worlds[w]
		b += ws.benefit
		c += ws.cost
		a += float64(ws.activated)
		h += float64(ws.hop)
		x += float64(ws.explored)
	}
	count := float64(wc.Est.Samples)
	wc.baseSumB = b
	wc.baseResult = Result{
		Benefit:      b / count,
		RealizedCost: c / count,
		Activated:    a / count,
		FarthestHop:  h / count,
		Explored:     x / count,
		weight:       1,
	}
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

// seedAddDiff reports whether d is exactly the base plus one appended seed
// s, with coupon counts unchanged everywhere except possibly at s.
func (wc *WorldCache) seedAddDiff(d *Deployment) (int32, bool) {
	base := wc.base
	m := d.NumSeeds()
	if m != base.NumSeeds()+1 {
		return 0, false
	}
	ds, bs := d.Seeds(), base.Seeds()
	for i := range bs {
		if ds[i] != bs[i] {
			return 0, false
		}
	}
	s := ds[m-1]
	n := int32(d.NumUsers())
	for v := int32(0); v < n; v++ {
		if v != s && base.K(v) != d.K(v) {
			return 0, false
		}
	}
	return s, true
}

// advanceSeed moves the base to d = base + appended seed s (the pivot
// application). Seeds activate before any queue processing, so a world
// needs re-simulation only when s's arrival can perturb the cascade:
//
//   - s already active in the base world — becoming a seed moves its scan
//     earlier and rewrites hops: re-simulate;
//   - any of s's out-edges is live — its scan could redeem: re-simulate;
//   - a non-seed target of s is active in the base world — whether s's
//     scan probes it depends on unknowable timing (Explored would drift):
//     re-simulate.
//
// Everywhere else s joins the world as an isolated hop-0 activation whose
// dead-edge scan provably consumes nothing: the record gains s at its seed
// position, the benefit gains B[s], and the probed set gains s's always-
// inactive targets — an O(|A_w|) patch instead of a re-simulation. Earlier
// base probes of s are unaffected: s was inactive, so every such probe was
// a dead edge that consumed nothing, and skipping it (s now active) leaves
// the cascade and the seen set unchanged.
func (wc *WorldCache) advanceSeed(d *Deployment, s int32) Result {
	if !wc.dense || wc.act == nil {
		return wc.rebaseFull(d)
	}
	e := wc.Est
	e.evals.Add(1)
	g := e.Inst.G
	in := e.Inst
	targets, probs, keys, kbase := g.OutRow(s)
	k := d.K(s)
	m := d.NumSeeds()
	eBase := uint64(kbase)
	le := e.Live
	coin := e.Coin
	stop := int32(0)
	if k > 0 {
		stop = int32(len(targets))
	}
	samples := e.Samples
	var resim []int32
	for w := 0; w < samples; w++ {
		abits := wc.act[w*wc.actWords : (w+1)*wc.actWords]
		if abits[s>>6]&(1<<(uint(s)&63)) != 0 {
			resim = append(resim, int32(w))
			continue
		}
		patchable := true
		if k > 0 {
			for j, t := range targets {
				ek := eBase + uint64(j)
				if keys != nil {
					ek = uint64(uint32(keys[j]))
				}
				live := false
				if le != nil {
					live = le.Live(uint64(w), ek)
				} else {
					live = coin.Live(uint64(w), ek, probs[j])
				}
				if live || (!d.IsSeed(t) && abits[t>>6]&(1<<(uint(t)&63)) != 0) {
					patchable = false
					break
				}
			}
		}
		if !patchable {
			// The patch sweep reads and writes only per-world state, so the
			// collected re-simulations can run afterwards, block-grouped,
			// without changing any decision.
			resim = append(resim, int32(w))
			continue
		}
		// Patch: insert s at its seed position with a spent dead scan.
		ws := &wc.worlds[w]
		rec := &ws.rec
		idx := m - 1
		rec.nodes = append(rec.nodes, 0)
		copy(rec.nodes[idx+1:], rec.nodes[idx:])
		rec.nodes[idx] = s
		rec.scanStop = append(rec.scanStop, 0)
		copy(rec.scanStop[idx+1:], rec.scanStop[idx:])
		rec.scanStop[idx] = stop
		rec.scanRed = append(rec.scanRed, 0)
		copy(rec.scanRed[idx+1:], rec.scanRed[idx:])
		rec.scanRed[idx] = 0
		// Re-sum the benefit in activation order rather than adding B[s] to
		// the old total: s lands mid-sequence, and the kernel accumulates in
		// that order, so anything else drifts by an ulp from a re-simulation.
		b := 0.0
		for _, u := range rec.nodes {
			b += in.Benefit[u]
		}
		ws.benefit = b
		ws.activated++
		abits[s>>6] |= 1 << (uint(s) & 63)
		sbits := wc.seen[w*wc.actWords : (w+1)*wc.actWords]
		markSeen := func(t int32) {
			if sbits[t>>6]&(1<<(uint(t)&63)) == 0 {
				sbits[t>>6] |= 1 << (uint(t) & 63)
				rec.probed = append(rec.probed, t)
				ws.explored++
			}
		}
		markSeen(s)
		if k > 0 {
			for _, t := range targets {
				if !d.IsSeed(t) {
					markSeen(t) // always-inactive target: probed, dead edge
				}
			}
		}
		wc.actT[int(s)*wc.actTWords+(w>>6)] |= 1 << (uint(w) & 63)
		di := int(s)*samples + w
		wc.denseStop[di] = stop
		wc.denseRed[di] = 0
	}
	wc.resimWorlds(d, resim, true)
	wc.base = d.Clone()
	wc.invBuilt = false
	wc.refreshSums()
	return wc.baseResult
}

// advance moves the base to d, which differs only in the coupon counts of
// changed: worlds that activate none of the changed nodes are provably
// identical (an inactive user's coupons never matter), so only the worlds
// in the inverted index of some changed node re-simulate.
func (wc *WorldCache) advance(d *Deployment, changed []int32) Result {
	e := wc.Est
	e.evals.Add(1)
	var resim []int32
	if len(changed) == 1 {
		// The ID loop's hot path: one changed node, worlds visited once, so
		// decisions always read the outgoing base and the dead-tail patch
		// applies. The decision/patch sweep reads and mutates only per-world
		// state, so deferring the collected re-simulations to one block-
		// grouped pass afterwards cannot change any outcome.
		v := changed[0]
		kOld, kNew := wc.base.K(v), d.K(v)
		if wc.dense {
			base := int(v) * e.Samples
			bitset.ForEach(wc.worldRow(v), e.Samples, func(w int) {
				if scanUnchanged(kOld, kNew, int(wc.denseRed[base+w])) {
					return
				}
				if kNew > kOld && wc.patchScanTail(v, w) {
					return
				}
				resim = append(resim, int32(w))
			})
		} else {
			wc.buildInverted()
			ws, ps := wc.activeWorlds(v)
			for i, w := range ws {
				if scanUnchanged(kOld, kNew, int(wc.worlds[w].rec.scanRed[ps[i]])) {
					continue
				}
				resim = append(resim, w)
			}
		}
	} else {
		// Multiple changed nodes (the SCM maneuver path): decide every
		// world against the OUTGOING base before mutating anything — a
		// re-simulation updates records, positions and dense state, so
		// interleaving decisions with re-simulations would read
		// post-change values (and a world inert for one node may still
		// need re-simulation for another). No patching here: a patch is
		// only provably exact against the unmodified base record.
		affected := make([]bool, e.Samples)
		if wc.dense {
			for _, v := range changed {
				kOld, kNew := wc.base.K(v), d.K(v)
				base := int(v) * e.Samples
				bitset.ForEach(wc.worldRow(v), e.Samples, func(w int) {
					if !scanUnchanged(kOld, kNew, int(wc.denseRed[base+w])) {
						affected[w] = true
					}
				})
			}
		} else {
			wc.buildInverted()
			for _, v := range changed {
				kOld, kNew := wc.base.K(v), d.K(v)
				ws, ps := wc.activeWorlds(v)
				for i, w := range ws {
					if !scanUnchanged(kOld, kNew, int(wc.worlds[w].rec.scanRed[ps[i]])) {
						affected[w] = true
					}
				}
			}
		}
		for w, hit := range affected {
			if hit {
				resim = append(resim, int32(w))
			}
		}
	}
	wc.resimWorlds(d, resim, true)
	wc.base = d.Clone()
	wc.invBuilt = false
	wc.refreshSums()
	return wc.baseResult
}

// patchScanTail tries to absorb a coupon increase at v in world w without
// re-simulating it: v's offer scan resumes at its recorded stop, and when
// every edge in the resumed tail is dead no redemption can occur however
// the scan interleaves with the rest of the cascade — the activation set,
// benefit, cost and hops are provably unchanged. Only the bookkeeping
// moves: the scan's resume position advances to the list end, and tail
// targets not yet examined anywhere in the world join the probed set
// (Explored stays exact — a final-active target is already in the seen set
// whether or not this scan would have probed it first). Returns false —
// caller re-simulates — when any tail edge is live. Dense tier only.
func (wc *WorldCache) patchScanTail(v int32, w int) bool {
	if !wc.dense {
		return false
	}
	g := wc.Est.Inst.G
	targets, probs, keys, kbase := g.OutRow(v)
	idx := int(v)*wc.Est.Samples + w
	stop := int(wc.denseStop[idx])
	coin := wc.Est.Coin
	le := wc.Est.Live
	base := uint64(kbase)
	for j := stop; j < len(targets); j++ {
		ek := base + uint64(j)
		if keys != nil {
			ek = uint64(uint32(keys[j]))
		}
		live := false
		if le != nil {
			live = le.Live(uint64(w), ek)
		} else {
			live = coin.Live(uint64(w), ek, probs[j])
		}
		if live {
			return false // the resumed scan could redeem here: re-simulate
		}
	}
	if stop < len(targets) {
		ws := &wc.worlds[w]
		sbits := wc.seen[w*wc.actWords : (w+1)*wc.actWords]
		abits := wc.act[w*wc.actWords : (w+1)*wc.actWords]
		for j := stop; j < len(targets); j++ {
			t := targets[j]
			if abits[t>>6]&(1<<(uint(t)&63)) != 0 {
				continue // active targets are skipped without a probe
			}
			if sbits[t>>6]&(1<<(uint(t)&63)) == 0 {
				sbits[t>>6] |= 1 << (uint(t) & 63)
				ws.rec.probed = append(ws.rec.probed, t)
				ws.explored++
			}
		}
		wc.denseStop[idx] = int32(len(targets))
		// Keep the record itself exact too (the next full rebase and the
		// fallback tiers read it): v's position in the short activation
		// list costs a trivial scan.
		for i, u := range ws.rec.nodes {
			if u == v {
				ws.rec.scanStop[i] = int32(len(targets))
				break
			}
		}
	}
	return true
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

// worldRow returns node v's active-world bit row (dense tier only).
func (wc *WorldCache) worldRow(v int32) []uint64 {
	return bitset.Row(wc.actT, int(v), wc.actTWords)
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
	for w := range wc.worlds {
		total += len(wc.worlds[w].rec.nodes)
		for _, v := range wc.worlds[w].rec.nodes {
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
	for w := range wc.worlds {
		for i, v := range wc.worlds[w].rec.nodes {
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
// repopulated once per world (fallback path only) and shared by all
// candidates; the delta stamp is bumped per replay so candidate frontiers
// never leak into each other.
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
// With the activation bitsets materialized (the common case) the query runs
// candidate-major: each candidate replays exactly the worlds that activate
// it, membership answered by bit reads, so a single-candidate query — the
// CELF ID loop's stale re-pop — costs only its own replays. Without them it
// falls back to the world-major sweep, which repopulates each world's stamp
// map once and amortizes it across the whole batch.
func (wc *WorldCache) DeltaBenefits(cands []int32) []float64 {
	if wc.base == nil {
		panic("diffusion: DeltaBenefits before Rebase")
	}
	out := make([]float64, len(cands))
	if len(cands) == 0 {
		return out
	}
	if wc.act != nil {
		return wc.deltaByCandidate(cands, out)
	}
	e := wc.Est
	workers := e.Workers
	if workers <= 1 || e.Samples < 4*workers {
		sc := wc.getDelta()
		wc.deltaWorlds(sc, cands, 0, e.Samples, out)
		wc.putDelta(sc)
	} else {
		locals := make([][]float64, workers)
		var wg sync.WaitGroup
		per := e.Samples / workers
		extra := e.Samples % workers
		start := 0
		for i := 0; i < workers; i++ {
			count := per
			if i < extra {
				count++
			}
			lo, hi := start, start+count
			start = hi
			wg.Add(1)
			go func(i, lo, hi int) {
				defer wg.Done()
				local := make([]float64, len(cands))
				sc := wc.getDelta()
				wc.deltaWorlds(sc, cands, lo, hi, local)
				wc.putDelta(sc)
				locals[i] = local
			}(i, lo, hi)
		}
		wg.Wait()
		for _, local := range locals {
			for j, v := range local {
				out[j] += v
			}
		}
	}
	base := wc.baseResult.Benefit
	inv := 1 / float64(e.Samples)
	for i := range out {
		out[i] = base + out[i]*inv
	}
	return out
}

// deltaByCandidate answers DeltaBenefits candidate-major over the
// activation bitsets: candidate v replays only the worlds listed in its
// inverted index entry, resuming its recorded offer scan. Per-world sums
// accumulate in ascending world order, keeping results bit-identical to the
// world-major sweep. Candidates parallelize across workers.
func (wc *WorldCache) deltaByCandidate(cands []int32, out []float64) []float64 {
	e := wc.Est
	if !wc.dense {
		wc.buildInverted()
	}
	evalOne := func(sc *deltaScratch, ci int) {
		v := cands[ci]
		k := wc.base.K(v)
		sum := 0.0
		if wc.dense {
			samples := e.Samples
			base := int(v) * samples
			bitset.ForEach(wc.worldRow(v), samples, func(w int) {
				if int(wc.denseRed[base+w]) < k {
					return // the base scan had a spare coupon; one more is inert
				}
				sum += wc.replayAddCouponBits(sc, uint64(w), v, int(wc.denseStop[base+w]))
			})
		} else {
			ws, ps := wc.activeWorlds(v)
			for i, w := range ws {
				rec := &wc.worlds[w].rec
				pos := ps[i]
				if int(rec.scanRed[pos]) < k {
					continue // the base scan had a spare coupon; one more is inert
				}
				sum += wc.replayAddCouponBits(sc, uint64(w), v, int(rec.scanStop[pos]))
			}
		}
		out[ci] = sum
	}
	workers := e.Workers
	if workers <= 1 || len(cands) < 4 {
		sc := wc.getDelta()
		for ci := range cands {
			evalOne(sc, ci)
		}
		wc.putDelta(sc)
	} else {
		if workers > len(cands) {
			workers = len(cands)
		}
		var wg sync.WaitGroup
		next := int64(-1)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sc := wc.getDelta()
				defer wc.putDelta(sc)
				for {
					ci := int(atomic.AddInt64(&next, 1))
					if ci >= len(cands) {
						return
					}
					evalOne(sc, ci)
				}
			}()
		}
		wg.Wait()
	}
	base := wc.baseResult.Benefit
	inv := 1 / float64(e.Samples)
	for i := range out {
		out[i] = base + out[i]*inv
	}
	return out
}

// replayAddCouponBits is replayAddCoupon with base-world membership read
// from the activation bitset instead of a repopulated stamp map: the
// world's active set is act[world*actWords:], v's offer scan resumes at
// stop with one more redemption allowed, and newly activated users cascade
// with their base allocations (base outcomes frozen, as in the stamp
// variant).
func (wc *WorldCache) replayAddCouponBits(sc *deltaScratch, world uint64, v int32, stop int) float64 {
	in := wc.Est.Inst
	g := in.G
	coin := wc.Est.Coin
	le := wc.Est.Live
	act := wc.act[int(world)*wc.actWords : (int(world)+1)*wc.actWords]
	live := func(edge uint64, p float64) bool {
		if le != nil {
			return le.Live(world, edge)
		}
		return coin.Live(world, edge, p)
	}
	activeBase := func(t int32) bool { return act[t>>6]&(1<<(uint(t)&63)) != 0 }
	sc.nextReplay()
	delta := 0.0
	targets, probs, keys, kbase := g.OutRow(v)
	base := uint64(kbase)
	for j := stop; j < len(targets); j++ {
		t := targets[j]
		if activeBase(t) || sc.dStamp[t] == sc.dEpoch {
			continue // already active: no coupon consumed
		}
		ek := base + uint64(j)
		if keys != nil {
			ek = uint64(uint32(keys[j]))
		}
		if live(ek, probs[j]) {
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
		ts, ps, uk, ukb := g.OutRow(u)
		ub := uint64(ukb)
		redeemed := 0
		for j, t := range ts {
			if redeemed >= coupons {
				break
			}
			if activeBase(t) || sc.dStamp[t] == sc.dEpoch {
				continue
			}
			ek := ub + uint64(j)
			if uk != nil {
				ek = uint64(uint32(uk[j]))
			}
			if live(ek, ps[j]) {
				sc.dStamp[t] = sc.dEpoch
				sc.queue = append(sc.queue, t)
				redeemed++
			}
		}
	}
	return delta
}

// deltaWorlds accumulates each candidate's summed per-world benefit delta
// over worlds [lo, hi) into out. The O(|A_w|) stamp repopulation is paid
// once per world and amortized across the whole candidate batch — the
// fallback when the activation bitsets are over budget.
func (wc *WorldCache) deltaWorlds(sc *deltaScratch, cands []int32, lo, hi int, out []float64) {
	for w := lo; w < hi; w++ {
		sc.nextWorld()
		rec := &wc.worlds[w].rec
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
	coin := wc.Est.Coin
	le := wc.Est.Live
	live := func(edge uint64, p float64) bool {
		if le != nil {
			return le.Live(world, edge)
		}
		return coin.Live(world, edge, p)
	}
	sc.nextReplay()
	delta := 0.0
	targets, probs, keys, kbase := g.OutRow(v)
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
		if live(ek, probs[j]) {
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
		ts, ps, uk, ukb := g.OutRow(u)
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
			if live(ek, ps[j]) {
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
	var worlds []int32
	if len(changed) == 1 {
		v := changed[0]
		if wc.dense {
			bitset.ForEach(wc.worldRow(v), e.Samples, func(w int) { worlds = append(worlds, int32(w)) })
		} else {
			wc.buildInverted()
			ws, _ := wc.activeWorlds(v)
			worlds = append(worlds, ws...)
		}
	} else {
		affected := make([]bool, e.Samples)
		for _, v := range changed {
			if wc.dense {
				bitset.ForEach(wc.worldRow(v), e.Samples, func(w int) { affected[w] = true })
			} else {
				wc.buildInverted()
				ws, _ := wc.activeWorlds(v)
				for _, w := range ws {
					affected[w] = true
				}
			}
		}
		for w, hit := range affected {
			if hit {
				worlds = append(worlds, int32(w))
			}
		}
	}
	// Both kernels produce identical per-world benefits, and the deltas fold
	// into the sum in ascending world order either way, so the block grouping
	// below is bit-identical to the scalar sweep.
	sum := wc.baseSumB
	if e.bitParallel() {
		bs := e.getBlockScratch()
		defer e.putBlockScratch(bs)
		var s *simScratch
		defer func() {
			if s != nil {
				e.putScratch(s)
			}
		}()
		for i := 0; i < len(worlds); {
			base := int(worlds[i]) &^ 63
			j := i
			var mask uint64
			for ; j < len(worlds) && int(worlds[j]) < base+64; j++ {
				mask |= 1 << (uint(worlds[j]) & 63)
			}
			if j == i+1 {
				w := worlds[i]
				if s == nil {
					s = e.getScratch()
				}
				b, _, _, _, _ := e.simWorld(s, d, uint64(w), nil)
				sum += b - wc.worlds[w].benefit
			} else {
				e.simBlock(bs, d, uint64(base), mask, nil)
				e.blocks.Add(1)
				for m := mask; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					sum += bs.worldB[b] - wc.worlds[base+b].benefit
				}
			}
			i = j
		}
		return sum / float64(e.Samples)
	}
	s := e.getScratch()
	defer e.putScratch(s)
	for _, w := range worlds {
		b, _, _, _, _ := e.simWorld(s, d, uint64(w), nil)
		sum += b - wc.worlds[w].benefit
	}
	return sum / float64(e.Samples)
}
