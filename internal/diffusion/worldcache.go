package diffusion

import (
	"math/bits"
	"slices"

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
//     a full simulation per step. Adding one seed re-simulates only the
//     worlds the seed can reach — where it is already active, or where it
//     scans and one of its out-edges is live; in the others it joins at
//     hop 0 and changes nothing else. Other seed-set changes rebase from
//     scratch.
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
	// moves.
	outs  *worldSlots
	snaps []blockSnap

	// Inverted activation index over the live snapshot entries, which finds
	// the worlds a changed node can affect. A move marks the blocks it
	// rewrote stale and the next query re-indexes those alone
	// (refreshIndex); entBuf is activeEntries' result buffer.
	inv    invIndex
	entBuf []entryRef

	counts RebaseCounts

	// Scratch reused across moves: the per-block affected-world masks, the
	// coupon diff, and the seed add's state (seedScratch);
	// ScratchDeployment's deployment; and DeltaBenefits' replay state, one
	// per worker.
	affected []uint64
	changed  []int32
	add      seedScratch
	scratch  Deployment
	deltas   []deltaScratch
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

// Rebase makes d the cached base deployment, re-simulating only what the
// move can change:
//   - onto an unchanged deployment it is free;
//   - a deployment differing from the base only in the coupon counts of a
//     few nodes re-simulates only the worlds that activate a changed node
//     (advance);
//   - the base plus one seed, with coupon counts changed at most at that
//     seed, re-simulates only the worlds the seed can reach: the others gain
//     the seed's own activation and nothing else (addSeed);
//   - anything else simulates every world.
//
// The returned Result equals Estimator.Evaluate of d exactly, whichever path
// ran, at every worker count.
func (wc *WorldCache) Rebase(d *Deployment) Result {
	e := wc.Est
	if e.Samples <= 0 {
		panic("diffusion: WorldCache with non-positive sample count")
	}
	if wc.base != nil {
		if wc.base.Equal(d) {
			wc.counts.Unchanged++
			return wc.baseResult
		}
		if changed, ok := wc.couponDiff(d); ok {
			wc.counts.Advance++
			return wc.advance(d, changed)
		}
		if s, ok := wc.seedAdded(d); ok {
			wc.counts.SeedAdd++
			return wc.addSeed(d, s)
		}
	}
	return wc.rebaseFull(d)
}

// RebaseCounts counts a world cache's Rebase calls by the path each took.
type RebaseCounts struct {
	Unchanged int64 // the base already equalled the deployment
	Advance   int64 // coupon counts moved: worlds activating a changed node re-simulated
	SeedAdd   int64 // one seed added: worlds the seed can reach re-simulated
	Full      int64 // every world simulated (the first Rebase included)
}

// Rebases returns the cache's Rebase calls so far, by path.
func (wc *WorldCache) Rebases() RebaseCounts { return wc.counts }

// rebaseFull simulates every world from scratch — the first Rebase and any
// move the incremental paths cannot prove partial.
func (wc *WorldCache) rebaseFull(d *Deployment) Result {
	e := wc.Est
	e.evals.Add(1)
	wc.counts.Full++
	wc.setBase(d)
	if nb := (e.Samples + bitset.WordMask) / bitset.WordBits; len(wc.snaps) != nb {
		wc.outs = newWorldSlots(e.Samples)
		wc.snaps = make([]blockSnap, nb)
	}
	e.sweepAll(d, wc.outs, wc.snaps)
	wc.inv.markAll()
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, e.Samples)
	return wc.baseResult
}

// setBase copies d into the base deployment, reusing its arrays.
func (wc *WorldCache) setBase(d *Deployment) {
	if wc.base == nil {
		wc.base = &Deployment{}
	}
	wc.base.CopyFrom(d)
}

// ScratchDeployment returns an empty deployment over the cache's users that
// the cache holds: a caller building one deployment per call on a pooled
// cache reuses its arrays, reset in O(|S| + |I|) of their last use, instead
// of allocating n-sized ones. It stays valid until the next call.
func (wc *WorldCache) ScratchDeployment() *Deployment {
	wc.scratch.reset(wc.Est.Inst.G.NumNodes())
	return &wc.scratch
}

// affectedScratch returns the per-block world-mask scratch, zeroed.
func (wc *WorldCache) affectedScratch() []uint64 {
	if cap(wc.affected) < len(wc.snaps) {
		wc.affected = make([]uint64, len(wc.snaps))
	}
	wc.affected = wc.affected[:len(wc.snaps)]
	clear(wc.affected)
	return wc.affected
}

// couponDiff compares d against the base: when both hold the same seed set
// and differ in the coupon counts of at most maxAdvanceChanged nodes it
// returns those nodes, ascending.
func (wc *WorldCache) couponDiff(d *Deployment) ([]int32, bool) {
	if !slices.Equal(wc.base.seeds, d.seeds) {
		return nil, false
	}
	return wc.holderDiff(d)
}

// seedAdded reports whether d is the base plus one seed s whose coupon
// count alone may differ from the base's, and returns s.
func (wc *WorldCache) seedAdded(d *Deployment) (int32, bool) {
	base := wc.base
	if d.n != base.n || len(d.seeds) != len(base.seeds)+1 {
		return 0, false
	}
	s, bs := int32(-1), base.seeds
	for _, v := range d.seeds {
		if len(bs) > 0 && bs[0] == v {
			bs = bs[1:]
		} else if s >= 0 {
			return 0, false // a second seed missing from the base
		} else {
			s = v
		}
	}
	changed, ok := wc.holderDiff(d)
	if !ok || len(changed) > 1 || len(changed) == 1 && changed[0] != s {
		return 0, false
	}
	return s, true
}

// holderDiff returns the users whose coupon counts differ between the base
// and d, ascending, when there are at most maxAdvanceChanged of them. Only a
// holder of either deployment can differ, so the diff merges the two holder
// lists instead of scanning every user. The slice is scratch, valid until
// the next call.
func (wc *WorldCache) holderDiff(d *Deployment) ([]int32, bool) {
	base := wc.base
	changed := wc.changed[:0]
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
	wc.changed = changed
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
	wc.refreshIndex()
	affected := wc.affectedScratch()
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
	wc.inv.markStale(affected)
	wc.setBase(d)
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, e.Samples)
	return wc.baseResult
}

// seedScratch is addSeed's reusable state.
type seedScratch struct {
	tag    []int32  // tag[v]: 1 + v's index in xs; 0 when v is not in xs
	hold   []int32  // hold[u]: 1 + u's index in the base holders when its row holds a member of xs; else 0
	xs     []int32  // the users the new seed puts in every inert world's seen set
	seen   []uint64 // seen[i]: the current block's inert worlds whose base saw xs[i]
	probes []probe  // base holders' row positions holding a member of xs
	off    []int32  // probes of base.holders[h]: probes[off[h]:off[h+1]]
}

// probe is position j of a base holder's row, whose target is xs[x].
type probe struct{ j, x int32 }

// addSeed moves the base to d, which is the base plus seed s, with coupon
// counts changed at most at s. A world is inert when the base leaves s
// inactive there and, if s holds coupons under d, no out-edge of s is live
// there. In an inert world s's offer scan (if any) redeems nothing, and
// every base scan that probed s found its edge dead and now skips s as
// already active, neither consuming a coupon: every event of the base world
// stays, and s joins at hop 0 in its seed position. So the world keeps its
// cost and hop and gains
//   - one activation;
//   - a benefit re-folded in the new event order: the seed prefix, then the
//     world's other entries in snapshot order;
//   - one explored user for each of s and, if s scans, its row's targets
//     that the base never saw (seenByBase);
//   - an entry for s at its seed position, whose run (if any) redeemed 0
//     and stopped at the row's end (blockSnap.insertSeed).
//
// Every other world re-simulates through sweepMasks. Inertness is decided
// against the outgoing base before anything is rewritten.
func (wc *WorldCache) addSeed(d *Deployment, s int32) Result {
	e := wc.Est
	e.evals.Add(1)
	g, in, le := e.Inst.G, e.Inst, e.Live
	sc := &wc.add
	targets, _, keys, kbase := g.OutRow(s)
	scans := d.K(s) > 0
	rowLen := int32(0)
	if scans {
		rowLen = int32(len(targets))
	}
	wc.markSeen(s, targets[:rowLen])
	prefix := 0.0
	for _, v := range d.Seeds() {
		prefix += in.Benefit[v]
	}
	// Every block opens with the base's seeds; the events behind them are
	// the ones to re-fold.
	nSeeds := wc.base.NumSeeds()
	affected := wc.affectedScratch()
	for b := range wc.snaps {
		sn := &wc.snaps[b]
		worldBase := b * bitset.WordBits
		valid := e.blockWorlds(b)
		inert := valid
		for _, ent := range sn.ents[nSeeds:] {
			if ent.node == s {
				inert &^= ent.mask
			}
		}
		for j := int32(0); j < rowLen && inert != 0; j++ {
			ek := uint64(kbase) + uint64(j)
			if keys != nil {
				ek = uint64(uint32(keys[j]))
			}
			inert &^= le.BlockMask(uint64(worldBase), ek, inert)
		}
		affected[b] = valid &^ inert
		if inert == 0 {
			continue
		}
		wc.seenByBase(sn, inert)
		worldB := (*[64]float64)(wc.outs.benefit[worldBase:])
		activated := (*[64]int32)(wc.outs.activated[worldBase:])
		explored := (*[64]int32)(wc.outs.explored[worldBase:])
		for m := inert; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			worldB[w] = prefix
			activated[w]++
			explored[w] += int32(len(sc.xs))
		}
		for _, seen := range sc.seen {
			for m := seen; m != 0; m &= m - 1 {
				explored[bits.TrailingZeros64(m)]--
			}
		}
		for _, ent := range sn.ents[nSeeds:] {
			if m := ent.mask & inert; m != 0 {
				benefit := in.Benefit[ent.node]
				for ; m != 0; m &= m - 1 {
					worldB[bits.TrailingZeros64(m)] += benefit
				}
			}
		}
		sn.insertSeed(s, valid, scans, rowLen)
		wc.inv.markBlock(b)
	}
	for _, x := range sc.xs {
		sc.tag[x] = 0
	}
	for _, u := range wc.base.holders {
		sc.hold[u] = 0
	}
	e.sweepMasks(d, affected, wc.outs, wc.snaps)
	wc.inv.markStale(affected)
	wc.setBase(d)
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, e.Samples)
	return wc.baseResult
}

// markSeen loads the users a seed add puts in every inert world's seen set
// — s and, when s scans, its row's targets — into xs and tag, and lists
// every base holder's row positions that hold one of them in probes.
func (wc *WorldCache) markSeen(s int32, row []int32) {
	sc := &wc.add
	g := wc.Est.Inst.G
	if n := g.NumNodes(); len(sc.tag) < n {
		sc.tag = append(sc.tag, make([]int32, n-len(sc.tag))...)
		sc.hold = append(sc.hold, make([]int32, n-len(sc.hold))...)
	}
	sc.xs = append(sc.xs[:0], s)
	sc.tag[s] = 1
	for _, x := range row {
		if sc.tag[x] == 0 {
			sc.xs = append(sc.xs, x)
			sc.tag[x] = int32(len(sc.xs))
		}
	}
	sc.probes, sc.off = sc.probes[:0], append(sc.off[:0], 0)
	for h, u := range wc.base.holders {
		ts, _ := g.OutEdges(u)
		for j, t := range ts {
			if x := sc.tag[t]; x != 0 {
				sc.probes = append(sc.probes, probe{j: int32(j), x: x - 1})
			}
		}
		sc.off = append(sc.off, int32(len(sc.probes)))
		if sc.off[h+1] > sc.off[h] {
			sc.hold[u] = int32(h) + 1
		}
	}
	sc.seen = slices.Grow(sc.seen[:0], len(sc.xs))[:len(sc.xs)]
}

// seenByBase fills seen with, for each member x of xs, the inert worlds of
// block sn in which the base saw x: it activated x there, or a holder
// active there scanned past a row position holding x (a scan stopped at
// stop visited positions [0, stop), each either already active or probed).
func (wc *WorldCache) seenByBase(sn *blockSnap, inert uint64) {
	sc := &wc.add
	clear(sc.seen)
	for _, ent := range sn.ents {
		m := ent.mask & inert
		if m == 0 {
			continue
		}
		if x := sc.tag[ent.node]; x != 0 {
			sc.seen[x-1] |= m
		}
		h := sc.hold[ent.node] - 1
		if h < 0 {
			continue
		}
		for _, p := range sc.probes[sc.off[h]:sc.off[h+1]] {
			for mw := m &^ sc.seen[p.x]; mw != 0; mw &= mw - 1 {
				w := bits.TrailingZeros64(mw)
				if _, stop := sn.scanAt(ent, w); stop > p.j {
					sc.seen[p.x] |= 1 << uint(w)
				}
			}
		}
	}
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

// invIndex is the world cache's inverted activation index: for each node,
// the live snapshot entries that activate it, as a doubly linked list of
// refs threaded through one pool. Each block owns the refs of its entries,
// so re-indexing a block unlinks its old refs and links its new entries —
// O(the block's entries), with no pass over the nodes or the other blocks.
// Moves mark the blocks they rewrite stale (markStale, markBlock, markAll),
// and refresh re-indexes those before the next query.
type invIndex struct {
	head  []int32   // head[v]: v's first ref, -1 when the snapshot never activates v
	refs  []invRef  // the ref pool; free refs chain through next from free
	free  int32     // first free ref, -1 when none
	owned [][]int32 // owned[b]: the refs of block b's entries
	stale []bool    // stale[b]: block b changed since its refs were made
}

// invRef is one index entry: node's snapshot entry ref, linked to node's
// other refs.
type invRef struct {
	entryRef
	node       int32
	prev, next int32 // neighbours in node's list, -1 at either end
}

// markStale marks the blocks with a nonzero mask stale. An index not yet
// built over masks' blocks is left alone: refresh rebuilds it whole.
func (ix *invIndex) markStale(masks []uint64) {
	if len(ix.stale) != len(masks) {
		return
	}
	for b, m := range masks {
		if m != 0 {
			ix.stale[b] = true
		}
	}
}

// markBlock marks block b stale.
func (ix *invIndex) markBlock(b int) {
	if b < len(ix.stale) {
		ix.stale[b] = true
	}
}

// markAll marks every block stale.
func (ix *invIndex) markAll() {
	for b := range ix.stale {
		ix.stale[b] = true
	}
}

// refresh re-indexes the stale blocks of snaps over n nodes. An index over
// another block count starts over, every block stale; node growth extends
// head by the new nodes alone.
func (ix *invIndex) refresh(snaps []blockSnap, n int) {
	if len(ix.owned) != len(snaps) {
		ix.head = ix.head[:0]
		ix.refs = ix.refs[:0]
		ix.free = -1
		ix.owned = make([][]int32, len(snaps))
		ix.stale = make([]bool, len(snaps))
		ix.markAll()
	}
	for len(ix.head) < n {
		ix.head = append(ix.head, -1)
	}
	for b := range snaps {
		if !ix.stale[b] {
			continue
		}
		ix.stale[b] = false
		own := ix.owned[b]
		for _, r := range own {
			ix.unlink(r)
		}
		own = own[:0]
		for i, ent := range snaps[b].ents {
			if ent.mask != 0 {
				own = append(own, ix.link(ent.node, entryRef{blk: int32(b), idx: int32(i)}))
			}
		}
		ix.owned[b] = own
	}
}

// link adds ref to the front of v's list and returns its pool index.
func (ix *invIndex) link(v int32, ref entryRef) int32 {
	r := ix.free
	if r >= 0 {
		ix.free = ix.refs[r].next
	} else {
		r = int32(len(ix.refs))
		ix.refs = append(ix.refs, invRef{})
	}
	next := ix.head[v]
	ix.refs[r] = invRef{entryRef: ref, node: v, prev: -1, next: next}
	if next >= 0 {
		ix.refs[next].prev = r
	}
	ix.head[v] = r
	return r
}

// unlink removes ref r from its node's list and frees it.
func (ix *invIndex) unlink(r int32) {
	x := ix.refs[r]
	if x.prev >= 0 {
		ix.refs[x.prev].next = x.next
	} else {
		ix.head[x.node] = x.next
	}
	if x.next >= 0 {
		ix.refs[x.next].prev = x.prev
	}
	ix.refs[r].next = ix.free
	ix.free = r
}

// refreshIndex brings the inverted activation index up to date with the
// snapshot, re-indexing only the blocks moves rewrote since the last call.
func (wc *WorldCache) refreshIndex() {
	wc.inv.refresh(wc.snaps, wc.Est.Inst.G.NumNodes())
}

// activeEntries returns the live snapshot entries of v, in no particular
// order; their masks are the worlds activating v. refreshIndex must have
// run since the last move. The slice is scratch, valid until the next call.
func (wc *WorldCache) activeEntries(v int32) []entryRef {
	buf := wc.entBuf[:0]
	for r := wc.inv.head[v]; r >= 0; r = wc.inv.refs[r].next {
		buf = append(buf, wc.inv.refs[r].entryRef)
	}
	wc.entBuf = buf
	return buf
}

// deltaScratch is one worker's DeltaBenefits state. A block's membership
// masks and its coupon holders' entries are loaded once per block (fill)
// and shared by all of the worker's candidates; the replay state — the
// replay's activations, its queue and the per-world sums — is reset per
// candidate.
type deltaScratch struct {
	active []uint64 // active[v]: the current block's worlds in which the base activates v
	first  []int32  // first[v]: 1 + index of holder v's last entry in the current block; 0 if none
	next   []int32  // next[i]: 1 + index of the entry of entry i's node before it; 0 if none
	rep    []uint64 // rep[v]: the worlds in which the current replay activated v
	queue  []replayEntry
	joins  []uint64    // the current candidate's worlds joining its scan, as stop<<6 | world, sorted
	delta  [64]float64 // per-world benefit the current replay adds
	cnt    [64]int32   // coupons redeemed by the current cascade entry's scan
}

// replayEntry is one activation event of a delta replay: node joined the
// replayed cascade in exactly the worlds of mask.
type replayEntry struct {
	node int32
	mask uint64
}

// ensure grows the per-node arrays to n entries. Appended entries are zero
// — an empty mask, no entry — which is also the state a finished replay
// and unfill leave behind, so grown scratches need no reset. Dynamic graphs
// add nodes between uses of a scratch; every DeltaBenefits re-checks the
// size.
func (sc *deltaScratch) ensure(n int) {
	if len(sc.active) >= n {
		return
	}
	sc.active = append(sc.active, make([]uint64, n-len(sc.active))...)
	sc.first = append(sc.first, make([]int32, n-len(sc.first))...)
	sc.rep = append(sc.rep, make([]uint64, n-len(sc.rep))...)
}

// fill loads block snapshot s: each live entry ORs its worlds into its
// node's mask, and a coupon holder's entries are chained per node (first,
// next), so a candidate reads its own scan runs and no others.
func (sc *deltaScratch) fill(s *blockSnap) {
	sc.next = grow(sc.next, len(s.ents))
	for i, ent := range s.ents {
		if ent.mask == 0 {
			continue
		}
		sc.active[ent.node] |= ent.mask
		if ent.scan != noScan {
			sc.next[i] = sc.first[ent.node]
			sc.first[ent.node] = int32(i) + 1
		}
	}
}

// unfill clears what fill loaded from s.
func (sc *deltaScratch) unfill(s *blockSnap) {
	for _, ent := range s.ents {
		sc.active[ent.node] = 0
		sc.first[ent.node] = 0
	}
}

// DeltaBenefits estimates, for every candidate v, the expected benefit of
// the base deployment with one extra coupon at v, replaying only the
// affected frontier of the worlds that activate v. The result slice is
// aligned with cands; candidates the base never activates return the base
// benefit unchanged. Rebase must have been called first.
//
// The query sweeps the snapshot's blocks in ascending order, loading each
// block's membership masks once and amortizing them across the candidate
// batch; each candidate replays all of its worlds in a block at once
// (replayBlock). Workers split the batch into contiguous candidate chunks
// (par.Ranges) and each sweeps every block for its own chunk, so a
// candidate's per-world deltas fold in the same order at every worker
// count: the result is bit-identical to the sequential sweep.
func (wc *WorldCache) DeltaBenefits(cands []int32) []float64 {
	if wc.base == nil {
		panic("diffusion: DeltaBenefits before Rebase")
	}
	out := make([]float64, len(cands))
	e := wc.Est
	if ws := max(1, min(e.Workers, len(cands))); len(wc.deltas) < ws {
		wc.deltas = append(wc.deltas, make([]deltaScratch, ws-len(wc.deltas))...)
	}
	n := e.Inst.G.NumNodes()
	par.Ranges(len(cands), e.Workers, func(w, lo, hi int) {
		sc := &wc.deltas[w]
		sc.ensure(n) // PatchEdges may have grown the node set since the last call
		wc.deltaWorlds(sc, cands[lo:hi], out[lo:hi])
	})
	base := wc.baseResult.Benefit
	inv := 1 / float64(e.Samples)
	for i := range out {
		out[i] = base + out[i]*inv
	}
	return out
}

// deltaWorlds accumulates each candidate's summed per-world benefit delta
// into out, sweeping the blocks in ascending order. Loading a block (fill)
// costs one pass over its entries and is amortized across cands.
func (wc *WorldCache) deltaWorlds(sc *deltaScratch, cands []int32, out []float64) {
	for b := range wc.snaps {
		s := &wc.snaps[b]
		sc.fill(s)
		worldBase := uint64(b * bitset.WordBits)
		for ci, v := range cands {
			if sc.active[v] != 0 { // where v is inactive an extra coupon is inert
				out[ci] = wc.replayBlock(sc, s, worldBase, v, out[ci])
			}
		}
		sc.unfill(s)
	}
}

// replayBlock returns sum plus the benefit each world of the loaded block s
// (at worldBase) gains when active node v is granted one extra coupon,
// added in ascending world order. Base-world outcomes are frozen: already
// active users are skipped without consuming coupons, exactly as in the
// kernel.
//
// The extra coupon changes a world only when v's recorded scan used up
// every coupon it held (or it held none): there v's scan resumes where it
// stopped with one more redemption allowed, and the user it activates
// cascades with its own base allocation. All such worlds replay together,
// in the block kernel's way: each joins v's resumed scan at its own
// recorded stop, every row position probes the worlds still looking with
// one BlockMask, and the cascade is a FIFO of {node, mask} entries in which
// each world's scan stops at its own coupon count. Restricted to one world,
// the queue is that world's scalar replay order (the induction behind
// simBlock), so each world's delta sums in the scalar order; the deltas
// then fold in ascending world order. The result is bit-identical to
// replaying each world on its own.
func (wc *WorldCache) replayBlock(sc *deltaScratch, s *blockSnap, worldBase uint64, v int32, sum float64) float64 {
	base := wc.base
	k := base.K(v)
	// pending holds the worlds scanning for the extra coupon's redemption;
	// each world of joins joins them at its own recorded stop.
	pending, joins := uint64(0), sc.joins[:0]
	if k == 0 {
		pending = sc.active[v] // no base scan: every world starts at the row's head
	} else {
		for i := sc.first[v]; i != 0; i = sc.next[i-1] {
			e := s.ents[i-1]
			for m, at := e.mask, int(e.scan); m != 0; m, at = m&(m-1), at+1 {
				if int(s.red[at]) >= k { // a slack scan had a spare coupon: one more is inert
					joins = append(joins, uint64(s.stop[at])<<6|uint64(bits.TrailingZeros64(m)))
				}
			}
		}
		if len(joins) == 0 {
			return sum
		}
		slices.Sort(joins)
		sc.joins = joins
	}
	g, in, le := wc.Est.Inst.G, wc.Est.Inst, wc.Est.Live
	targets, _, keys, kbase := g.OutRow(v)
	var hit uint64 // worlds whose extra coupon redeemed
	sc.queue = sc.queue[:0]
	j, next := 0, 0
	if len(joins) > 0 {
		j = int(joins[0] >> 6)
	}
	for ; j < len(targets); j++ {
		for ; next < len(joins) && int(joins[next]>>6) <= j; next++ {
			pending |= 1 << (joins[next] & 63)
		}
		if pending == 0 {
			if next == len(joins) {
				break
			}
			j = int(joins[next]>>6) - 1 // skip to the next join
			continue
		}
		// A world still looking has activated nothing yet: only the base's
		// activations are skipped.
		probe := pending &^ sc.active[targets[j]]
		if probe == 0 {
			continue
		}
		ek := uint64(kbase) + uint64(j)
		if keys != nil {
			ek = uint64(uint32(keys[j]))
		}
		if live := le.BlockMask(worldBase, ek, probe); live != 0 {
			pending &^= live // the single extra coupon is spent
			hit |= live
			sc.push(targets[j], live)
		}
	}
	for m := hit; m != 0; m &= m - 1 {
		sc.delta[bits.TrailingZeros64(m)] = 0
	}
	for head := 0; head < len(sc.queue); head++ {
		ent := sc.queue[head]
		u := ent.node
		benefit := in.Benefit[u]
		for m := ent.mask; m != 0; m &= m - 1 {
			sc.delta[bits.TrailingZeros64(m)] += benefit
		}
		coupons := base.K(u)
		if coupons == 0 {
			continue
		}
		ts, _, uk, ukb := g.OutRow(u)
		sc.cnt = [64]int32{}
		capMask := ent.mask // the worlds whose scan has coupons left
		for j := 0; j < len(ts) && capMask != 0; j++ {
			t := ts[j]
			probe := capMask &^ (sc.active[t] | sc.rep[t])
			if probe == 0 {
				continue
			}
			ek := uint64(ukb) + uint64(j)
			if uk != nil {
				ek = uint64(uint32(uk[j]))
			}
			live := le.BlockMask(worldBase, ek, probe)
			if live == 0 {
				continue
			}
			sc.push(t, live)
			for m := live; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				sc.cnt[w]++
				if int(sc.cnt[w]) >= coupons {
					capMask &^= 1 << uint(w)
				}
			}
		}
	}
	for _, ent := range sc.queue {
		sc.rep[ent.node] = 0
	}
	for m := hit; m != 0; m &= m - 1 {
		sum += sc.delta[bits.TrailingZeros64(m)]
	}
	return sum
}

// push appends a replay activation of t in the worlds of mask.
func (sc *deltaScratch) push(t int32, mask uint64) {
	sc.rep[t] |= mask
	sc.queue = append(sc.queue, replayEntry{node: t, mask: mask})
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
	wc.refreshIndex()
	affected := wc.affectedScratch()
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
