package diffusion

import (
	"math/bits"
	"sync"

	"s3crm/internal/bitset"
	"s3crm/internal/par"
)

// blockEntry is one activation event in the block kernel's shared frontier
// queue: node joined the cascade at hop, in exactly the worlds of mask, from
// the offer at row position pos of queue entry parent (a seed: parent -1,
// pos its own id).
// Masks for the same node are disjoint across entries — a world activates a
// node at most once — so the queue restricted to any single world is that
// world's one-world activation order, which is what makes every per-world
// outcome (including float accumulation order) bit-identical to a scalar
// BFS of that world alone.
type blockEntry struct {
	node   int32
	hop    int32
	parent int32
	pos    int32
	mask   uint64
}

// worldSlots holds per-world aggregates, one slot per world in
// struct-of-arrays form: the benefit and realized SC cost, the farthest
// hop, and the activated node count. The arrays are padded to
// whole 64-world blocks, so every block's window is 64 slots long. Benefit
// and realized cost accumulate per world in that world's activation order —
// the block kernel's bit-identity anchor — while the integer aggregates are
// exact whatever the order.
type worldSlots struct {
	benefit   []float64
	cost      []float64
	hop       []int32
	activated []int32
}

// newWorldSlots returns slots for n worlds, padded to whole blocks.
func newWorldSlots(n int) *worldSlots {
	n = (n + bitset.WordMask) &^ bitset.WordMask
	return &worldSlots{
		benefit:   make([]float64, n),
		cost:      make([]float64, n),
		hop:       make([]int32, n),
		activated: make([]int32, n),
	}
}

// blockScratch holds one 64-world block's propagation state, pooled on the
// estimator and reset in O(queued) between blocks.
type blockScratch struct {
	active []uint64 // active[v]: worlds (bits) in which v is activated
	queue  []blockEntry

	// Per-entry offer-scan state, per world; stop is read only by snapshot
	// sweeps.
	cnt  [64]int32 // coupons redeemed by the current scan
	stop [64]int32 // scan resume position

	// A partial re-simulation's events, and their merge into the block's
	// snapshot (sweepMasks).
	group blockSnap
	merge mergeScratch
}

// reset clears the previous block's node state: every active word belongs
// to a queued node.
func (bs *blockScratch) reset() {
	for _, q := range bs.queue {
		bs.active[q.node] = 0
	}
	bs.queue = bs.queue[:0]
}

func (e *Estimator) getBlockScratch() *blockScratch {
	e.blockPoolOnce.Do(func() {
		n := e.Inst.G.NumNodes()
		e.blockPool.New = func() any {
			return &blockScratch{
				active: make([]uint64, n),
				queue:  make([]blockEntry, 0, 256),
			}
		}
	})
	return e.blockPool.Get().(*blockScratch)
}

func (e *Estimator) putBlockScratch(bs *blockScratch) { e.blockPool.Put(bs) }

// simBlock propagates the worlds of the 64-aligned block at worldBase
// selected by blockMask for deployment d, in one BFS pass over the CSR,
// overwriting each world's slots in out (indexed by absolute world). With
// events non-nil it writes the block's queue, and its coupon holders' scan
// state, to the empty snapshot events (see blockSnap); with seeds non-nil
// too, the seeds' entries are not written there: seeds is the block's
// snapshot, which holds them, and their scan state is written into it at
// the worlds of blockMask. With rs non-nil too, the seeds' scans resume from
// their recorded ones in seeds (resumeSeeds) instead of walking every row.
// Every set bit is one world, so a one-bit mask runs a world alone.
//
// Per-world outcomes are bit-identical to simulating each world on its own
// (the scalar reference in bitsim_test.go). The coupon capacity makes
// cascades order-dependent (an offer scan consumes coupons in adjacency
// order, skipping already-active targets for free), so the kernel
// replicates each world's scalar event order exactly: entries are appended
// to the shared FIFO queue at the activation event that created them, with
// the mask of exactly the worlds activated at that moment. Restricted to
// any world w, the queue is then world w's scalar activation order
// (induction over queue positions), every active bit is read and
// written at its scalar timing, and the per-world float sums accumulate in
// the scalar order. What the block buys is the dense part: membership tests
// and edge-liveness probes for all 64 worlds collapse into whole-word
// AND/OR/ANDN against the substrate's bit rows.
func (e *Estimator) simBlock(bs *blockScratch, d *Deployment, worldBase int, blockMask uint64, out *worldSlots, events, seeds *blockSnap, rs *seedResume) {
	g := e.Inst.G
	le := e.Live
	in := e.Inst
	// This block's 64-slot windows.
	worldB := (*[64]float64)(out.benefit[worldBase:])
	worldC := (*[64]float64)(out.cost[worldBase:])
	maxHop := (*[64]int32)(out.hop[worldBase:])
	activated := (*[64]int32)(out.activated[worldBase:])
	bs.reset()
	// Every seed activates in every world of the block at hop 0, in
	// ascending seed order, before any other event: each world's benefit
	// starts with the same sum, folded once here in that order, and its
	// activated count with the seed count.
	prefix := 0.0
	for _, seed := range d.Seeds() {
		prefix += in.Benefit[seed]
	}
	nSeeds := int32(d.NumSeeds())
	if blockMask == ^uint64(0) {
		for w := range worldB {
			worldB[w] = prefix
			worldC[w] = 0
			maxHop[w] = 0
			activated[w] = nSeeds
		}
	} else {
		for m := blockMask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			worldB[w] = prefix
			worldC[w] = 0
			maxHop[w] = 0
			activated[w] = nSeeds
		}
	}
	for _, seed := range d.Seeds() {
		bs.active[seed] = blockMask
		bs.queue = append(bs.queue, blockEntry{node: seed, parent: -1, pos: seed, mask: blockMask})
	}
	head := 0
	if rs != nil {
		e.resumeSeeds(bs, d, worldBase, blockMask, worldC, seeds, rs)
		head = int(nSeeds)
	}
	for ; head < len(bs.queue); head++ {
		ent := bs.queue[head]
		v := ent.node
		if head >= int(nSeeds) { // the seed entries are in the prefix
			benefit := in.Benefit[v]
			for m := ent.mask; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				worldB[w] += benefit
				activated[w]++
				if ent.hop > maxHop[w] {
					maxHop[w] = ent.hop
				}
			}
		}
		coupons := d.K(v)
		if coupons == 0 {
			continue
		}
		targets, _, keys, kbase := g.OutRow(v)
		eBase := uint64(kbase)
		bs.cnt = [64]int32{}
		// capMask holds the worlds still scanning: a world drops out when
		// its redemption count reaches the coupon allowance — the scalar
		// kernel's break at the next loop head, hence the j+1 resume stop.
		capMask := ent.mask
		for j := 0; j < len(targets) && capMask != 0; j++ {
			t := targets[j]
			probe := capMask &^ bs.active[t]
			if probe == 0 {
				continue // already active everywhere: no coupon consumed
			}
			ek := eBase + uint64(j)
			if keys != nil {
				ek = uint64(uint32(keys[j]))
			}
			liveMask := le.BlockMask(uint64(worldBase), ek, probe)
			if liveMask == 0 {
				continue
			}
			bs.active[t] |= liveMask
			bs.queue = append(bs.queue, blockEntry{node: t, hop: ent.hop + 1, parent: int32(head), pos: int32(j), mask: liveMask})
			cost := in.SCCost[t]
			for m := liveMask; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				worldC[w] += cost
				bs.cnt[w]++
				if int(bs.cnt[w]) >= coupons {
					capMask &^= 1 << uint(w)
					bs.stop[w] = int32(j) + 1
				}
			}
		}
		if events == nil {
			continue
		}
		// The worlds still scanning ran to the row's end.
		if capMask == ^uint64(0) {
			for w := range bs.stop {
				bs.stop[w] = int32(len(targets))
			}
		} else {
			for m := capMask; m != 0; m &= m - 1 {
				bs.stop[bits.TrailingZeros64(m)] = int32(len(targets))
			}
		}
		switch {
		case seeds != nil && head < int(nSeeds):
			seeds.setRun(head, v, ent.mask, &bs.cnt, &bs.stop)
		default:
			events.addRun(ent.mask, &bs.cnt, &bs.stop)
		}
	}
	switch {
	case seeds != nil:
		events.addEvents(bs.queue[nSeeds:], d)
	case events != nil:
		events.addEvents(bs.queue, d)
	}
}

// resumeSeeds runs the seed entries of simBlock's queue — d's seeds in
// ascending order, in the block's worlds of mask — from the recorded scans
// of the block's snapshot sn, which opens with d's seeds; rs says in which
// worlds a recorded scan holds (seedResume). A kept scan gives its recorded
// child events at those worlds, with no row walk, no probe and no run
// write; a seed scanned again walks its row in its other worlds alone and
// writes their run (setRun). The two sets of children go into the queue
// together in row-position order, each event with the worlds of both, set
// active there and add their costs in that order. Restricted to one world
// the queue, the active bits and the cost sums are then a full simulation's,
// so the same event order — and every sum — holds.
//
// A seed scanned again whose child events differ from its record marks the
// worlds where they do dirty, and every later seed scans again there.
func (e *Estimator) resumeSeeds(bs *blockScratch, d *Deployment, worldBase int, mask uint64, worldC *[64]float64, sn *blockSnap, rs *seedResume) {
	g, in, le := e.Inst.G, e.Inst, e.Live
	seeds := d.Seeds()
	if rs.added >= 0 {
		clear(rs.fresh)
		rs.fresh[0] = mask // the added seed is active ahead of every scan
	}
	var dirty uint64
	next := len(seeds) // the seeds' recorded children follow the seeds, by parent
	forced := rs.forced
	for i, u := range seeds {
		from := next
		for next < len(sn.ents) && sn.ents[next].parent == int32(i) {
			next++
		}
		rec := sn.ents[from:next]
		k := d.K(u)
		redo := dirty & mask
		switch {
		case len(forced) > 0 && int(forced[0]) == i:
			forced = forced[1:]
			redo = mask
			if ent := sn.ents[i]; (ent.scan == noScan) != (k == 0) {
				if ent.mask != mask {
					panic("diffusion: a seed took or lost coupons in some worlds of a block only")
				}
				sn.holdScan(i, k > 0)
			}
		case k > 0:
			redo |= rs.triggered(sn, i, mask&^redo)
		}
		if k == 0 { // no scan: children recorded in a re-run world are gone
			for _, r := range rec {
				dirty |= r.mask & redo
			}
			continue
		}
		keep := mask &^ redo
		if i != rs.added {
			rs.kept += int64(bits.OnesCount64(keep))
			rs.rerun += int64(bits.OnesCount64(redo))
		}
		if redo == 0 {
			for _, r := range rec {
				if m := r.mask & keep; m != 0 {
					bs.activate(r.node, int32(i), r.pos, m, worldC, in.SCCost[r.node])
				}
			}
			continue
		}
		targets, _, keys, kbase := g.OutRow(u)
		eBase := uint64(kbase)
		bs.cnt = [64]int32{}
		capMask := redo
		r := 0
		for j := 0; j < len(targets); j++ {
			if capMask == 0 { // only recorded children are left
				if r == len(rec) {
					break
				}
				j = int(rec[r].pos)
			}
			var kept, was uint64
			if r < len(rec) && int(rec[r].pos) == j {
				kept, was = rec[r].mask&keep, rec[r].mask&redo
				r++
			}
			t := targets[j]
			var live uint64
			if probe := capMask &^ bs.active[t]; probe != 0 {
				ek := eBase + uint64(j)
				if keys != nil {
					ek = uint64(uint32(keys[j]))
				}
				live = le.BlockMask(uint64(worldBase), ek, probe)
			}
			if i != rs.added {
				dirty |= was ^ live
			} else if x := rs.tag[t]; live != 0 {
				rs.fresh[x-1] |= live
			}
			if m := kept | live; m != 0 {
				bs.activate(t, int32(i), int32(j), m, worldC, in.SCCost[t])
			}
			for m := live; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				bs.cnt[w]++
				if int(bs.cnt[w]) >= k {
					capMask &^= 1 << uint(w)
					bs.stop[w] = int32(j) + 1
				}
			}
		}
		for m := capMask; m != 0; m &= m - 1 {
			bs.stop[bits.TrailingZeros64(m)] = int32(len(targets))
		}
		sn.setRun(i, u, redo, &bs.cnt, &bs.stop)
	}
}

// activate queues seed entry parent's offer at row position pos, which
// activated t at hop 1 in the worlds of mask, adding t's coupon cost to
// those worlds' sums.
func (bs *blockScratch) activate(t, parent, pos int32, mask uint64, worldC *[64]float64, cost float64) {
	bs.active[t] |= mask
	bs.queue = append(bs.queue, blockEntry{node: t, hop: 1, parent: parent, pos: pos, mask: mask})
	for m := mask; m != 0; m &= m - 1 {
		worldC[bits.TrailingZeros64(m)] += cost
	}
}

// sweepAll simulates worlds [0, Samples) for deployment d in 64-aligned
// blocks (a partial mask on the ragged tail block), writing world w's
// aggregates to its slots in out and, with snaps non-nil, rewriting block
// b's snapshot snaps[b] from scratch. With Workers > 1 the blocks split into
// contiguous per-worker ranges (par.Ranges); every world lands in its own
// slot and every block in its own snapshot whatever the split, so the slots
// — and their fold (foldWorlds) — are identical at every worker count.
func (e *Estimator) sweepAll(d *Deployment, out *worldSlots, snaps []blockSnap) {
	nb := (e.Samples + bitset.WordMask) / bitset.WordBits
	par.Ranges(nb, e.Workers, func(_, lo, hi int) { e.sweepBlocks(d, out, snaps, lo, hi) })
}

// sweepBlocks simulates blocks [lo, hi) of sweepAll's worlds.
func (e *Estimator) sweepBlocks(d *Deployment, out *worldSlots, snaps []blockSnap, lo, hi int) {
	bs := e.getBlockScratch()
	defer e.putBlockScratch(bs)
	e.blocks.Add(int64(hi - lo))
	for b := lo; b < hi; b++ {
		if e.cancelled() {
			// Abort mid-sweep. The unvisited slots keep stale values: a
			// cancelled Evaluate returns garbage and a world cache is left
			// inconsistent, so callers must check ctx.Err() before trusting
			// anything produced after cancellation (the Campaign layer never
			// pools a cache whose call failed).
			return
		}
		base := b * bitset.WordBits
		var snap *blockSnap
		if snaps != nil {
			snap = &snaps[b]
			snap.reset()
		}
		e.simBlock(bs, d, base, e.blockWorlds(b), out, snap, nil, nil)
	}
}

// blockWorlds returns the mask of block b's worlds: all 64 but on the
// ragged tail block.
func (e *Estimator) blockWorlds(b int) uint64 {
	return bitset.RangeMask(0, min(e.Samples-b*bitset.WordBits, bitset.WordBits))
}

// foldWorlds returns the means of the first n worlds' slots, folded in
// ascending world order — the one summation sequence behind every full
// evaluation, fresh or cached — together with the raw benefit sum.
func foldWorlds(out *worldSlots, n int) (Result, float64) {
	var b, b2, c, a, h float64
	for w, wb := range out.benefit[:n] {
		b += wb
		b2 += wb * wb
		c += out.cost[w]
		a += float64(out.activated[w])
		h += float64(out.hop[w])
	}
	count := float64(n)
	return Result{
		Benefit:       b / count,
		RealizedCost:  c / count,
		Activated:     a / count,
		FarthestHop:   h / count,
		BenefitSqMean: b2 / count,
	}, b
}

// sweepMasks re-simulates, for deployment d, the worlds of block b set in
// masks[b], for every block with a nonzero mask, into their slots in out — a
// lone world as a one-bit mask. With snaps non-nil each swept block's
// snapshot, which must open with d's seeds in every world (the snapshot of
// a base with d's seeds does), takes the re-simulated worlds' seed scan
// state in place and their other events merged in place of their old ones
// (blockSnap.merge), so the cost follows the affected worlds rather than the
// block, plus one pass over the block's entries. With rs non-nil too the
// seeds' scans resume from their recorded ones (resumeSeeds), a block whose
// every world re-simulates included: its events behind the seeds are
// replaced (blockSnap.replace). Without rs a block re-simulated whole is
// rewritten from hop 0.
func (e *Estimator) sweepMasks(d *Deployment, masks []uint64, out *worldSlots, snaps []blockSnap, rs *seedResume) {
	// The scratch is taken only once a block needs it: a fresh per-call
	// estimator (a churn patch's, say) would otherwise allocate one to sweep
	// nothing.
	var bs *blockScratch
	n := int64(0)
	for b, mask := range masks {
		if mask == 0 {
			continue
		}
		if bs == nil {
			bs = e.getBlockScratch()
		}
		n++
		switch {
		case snaps == nil:
			e.simBlock(bs, d, b*bitset.WordBits, mask, out, nil, nil, nil)
		case rs == nil && mask == e.blockWorlds(b): // every world: the block is rewritten
			snaps[b].reset()
			e.simBlock(bs, d, b*bitset.WordBits, mask, out, &snaps[b], nil, nil)
		default:
			bs.group.reset()
			e.simBlock(bs, d, b*bitset.WordBits, mask, out, &bs.group, &snaps[b], rs)
			if mask == e.blockWorlds(b) {
				snaps[b].replace(&bs.group, d.NumSeeds(), &bs.merge)
			} else {
				snaps[b].merge(mask, &bs.group, d.NumSeeds(), &bs.merge)
			}
		}
	}
	if bs != nil {
		e.putBlockScratch(bs)
	}
	e.blocks.Add(n)
}

// getSlots returns pooled slots for at least n worlds, to be handed back
// to slotPool; their contents are stale until simulated over.
func getSlots(n int) *worldSlots {
	if s, ok := slotPool.Get().(*worldSlots); ok && len(s.benefit) >= n {
		return s
	}
	return newWorldSlots(n)
}

// slotPool recycles per-world slots (*worldSlots) across estimators and
// their per-call views, which would otherwise each allocate fresh slots per
// evaluation; pooled slots serve any sample count up to their length.
var slotPool sync.Pool
