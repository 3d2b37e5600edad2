package diffusion

import (
	"math/bits"
	"sync"

	"s3crm/internal/bitset"
	"s3crm/internal/par"
)

// blockEntry is one activation event in the block kernel's shared frontier
// queue: node joined the cascade at hop, in exactly the worlds of mask.
// Masks for the same node are disjoint across entries — a world activates a
// node at most once — so the queue restricted to any single world is that
// world's one-world activation order, which is what makes every per-world
// outcome (including float accumulation order) bit-identical to a scalar
// BFS of that world alone.
type blockEntry struct {
	node int32
	hop  int32
	mask uint64
}

// worldSlots holds per-world aggregates, one slot per world in
// struct-of-arrays form: the benefit and realized SC cost, the farthest
// hop, and the activated and examined node counts. The arrays are padded to
// whole 64-world blocks, so every block's window is 64 slots long. Benefit
// and realized cost accumulate per world in that world's activation order —
// the block kernel's bit-identity anchor — while the integer aggregates are
// exact whatever the order.
type worldSlots struct {
	benefit   []float64
	cost      []float64
	hop       []int32
	activated []int32
	explored  []int32
}

// newWorldSlots returns slots for n worlds, padded to whole blocks.
func newWorldSlots(n int) *worldSlots {
	n = (n + bitset.WordMask) &^ bitset.WordMask
	return &worldSlots{
		benefit:   make([]float64, n),
		cost:      make([]float64, n),
		hop:       make([]int32, n),
		activated: make([]int32, n),
		explored:  make([]int32, n),
	}
}

// blockScratch holds one 64-world block's propagation state, pooled on the
// estimator and reset in O(touched) between blocks.
type blockScratch struct {
	active  []uint64 // active[v]: worlds (bits) in which v is activated
	seen    []uint64 // seen[v]: worlds in which v was examined; active ⊆ seen
	touched []int32  // nodes with a nonzero seen word, for the O(touched) reset
	queue   []blockEntry

	// Per-entry offer-scan state, cleared only at the scanned worlds' slots.
	cnt  [64]int32 // coupons redeemed by the current scan, per world
	stop [64]int32 // scan resume position for capacity-stopped worlds
}

// reset clears the previous block's node state.
func (bs *blockScratch) reset() {
	for _, v := range bs.touched {
		bs.active[v] = 0
		bs.seen[v] = 0
	}
	bs.touched = bs.touched[:0]
	bs.queue = bs.queue[:0]
}

func (e *Estimator) getBlockScratch() *blockScratch {
	e.blockPoolOnce.Do(func() {
		n := e.Inst.G.NumNodes()
		e.blockPool.New = func() any {
			return &blockScratch{
				active:  make([]uint64, n),
				seen:    make([]uint64, n),
				touched: make([]int32, 0, 256),
				queue:   make([]blockEntry, 0, 256),
			}
		}
	})
	return e.blockPool.Get().(*blockScratch)
}

func (e *Estimator) putBlockScratch(bs *blockScratch) { e.blockPool.Put(bs) }

// simBlock propagates the worlds of the 64-aligned block at worldBase
// selected by blockMask for deployment d, in one BFS pass over the CSR,
// overwriting each world's slots in out (indexed by absolute world); with
// snap non-nil it appends the block's queue, and its coupon holders' scan
// state, to snap (the world-cache snapshot, see blockSnap). Every set bit
// is one world, so a one-bit mask runs a world alone.
//
// Per-world outcomes are bit-identical to simulating each world on its own
// (the scalar reference in bitsim_test.go). The coupon capacity makes
// cascades order-dependent (an offer scan consumes coupons in adjacency
// order, skipping already-active targets for free), so the kernel
// replicates each world's scalar event order exactly: entries are appended
// to the shared FIFO queue at the activation event that created them, with
// the mask of exactly the worlds activated at that moment. Restricted to
// any world w, the queue is then world w's scalar activation order
// (induction over queue positions), every active/seen bit is read and
// written at its scalar timing, and the per-world float sums accumulate in
// the scalar order. What the block buys is the dense part: membership tests
// and edge-liveness probes for all 64 worlds collapse into whole-word
// AND/OR/ANDN against the substrate's bit rows.
func (e *Estimator) simBlock(bs *blockScratch, d *Deployment, worldBase int, blockMask uint64, out *worldSlots, snap *blockSnap) {
	g := e.Inst.G
	le := e.Live
	in := e.Inst
	// This block's 64-slot windows.
	worldB := (*[64]float64)(out.benefit[worldBase:])
	worldC := (*[64]float64)(out.cost[worldBase:])
	maxHop := (*[64]int32)(out.hop[worldBase:])
	activated := (*[64]int32)(out.activated[worldBase:])
	explored := (*[64]int32)(out.explored[worldBase:])
	bs.reset()
	run := 0 // where this simulation's first holder run lands in snap
	if snap != nil {
		run = len(snap.red)
	}
	for m := blockMask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		worldB[w] = 0
		worldC[w] = 0
		maxHop[w] = 0
		activated[w] = 0
		explored[w] = 0
	}
	for _, seed := range d.Seeds() {
		newMask := blockMask &^ bs.active[seed]
		if newMask == 0 {
			continue
		}
		if seenNew := newMask &^ bs.seen[seed]; seenNew != 0 {
			if bs.seen[seed] == 0 {
				bs.touched = append(bs.touched, seed)
			}
			bs.seen[seed] |= seenNew
			for m := seenNew; m != 0; m &= m - 1 {
				explored[bits.TrailingZeros64(m)]++
			}
		}
		bs.active[seed] |= newMask
		bs.queue = append(bs.queue, blockEntry{node: seed, hop: 0, mask: newMask})
	}
	for head := 0; head < len(bs.queue); head++ {
		ent := bs.queue[head]
		v := ent.node
		benefit := in.Benefit[v]
		for m := ent.mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			worldB[w] += benefit
			activated[w]++
			if ent.hop > maxHop[w] {
				maxHop[w] = ent.hop
			}
		}
		coupons := d.K(v)
		if coupons == 0 {
			continue
		}
		targets, _, keys, kbase := g.OutRow(v)
		eBase := uint64(kbase)
		for m := ent.mask; m != 0; m &= m - 1 {
			bs.cnt[bits.TrailingZeros64(m)] = 0
		}
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
			if seenNew := probe &^ bs.seen[t]; seenNew != 0 {
				if bs.seen[t] == 0 {
					bs.touched = append(bs.touched, t)
				}
				bs.seen[t] |= seenNew
				for m := seenNew; m != 0; m &= m - 1 {
					explored[bits.TrailingZeros64(m)]++
				}
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
			bs.queue = append(bs.queue, blockEntry{node: t, hop: ent.hop + 1, mask: liveMask})
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
		if snap != nil {
			// The worlds still scanning ran to the row's end.
			for m := capMask; m != 0; m &= m - 1 {
				bs.stop[bits.TrailingZeros64(m)] = int32(len(targets))
			}
			snap.addRun(ent.mask, &bs.cnt, &bs.stop)
		}
	}
	if snap != nil {
		snap.addEvents(bs.queue, d, run)
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
		e.simBlock(bs, d, base, bitset.RangeMask(0, min(e.Samples-base, bitset.WordBits)), out, snap)
	}
}

// foldWorlds returns the means of the first n worlds' slots, folded in
// ascending world order — the one summation sequence behind every full
// evaluation, fresh or cached — together with the raw benefit sum.
func foldWorlds(out *worldSlots, n int) (Result, float64) {
	var b, b2, c, a, h, x float64
	for w, wb := range out.benefit[:n] {
		b += wb
		b2 += wb * wb
		c += out.cost[w]
		a += float64(out.activated[w])
		h += float64(out.hop[w])
		x += float64(out.explored[w])
	}
	count := float64(n)
	return Result{
		Benefit:       b / count,
		RealizedCost:  c / count,
		Activated:     a / count,
		FarthestHop:   h / count,
		Explored:      x / count,
		BenefitSqMean: b2 / count,
	}, b
}

// sweepMasks re-simulates, for deployment d, the worlds of block b set in
// masks[b], for every block with a nonzero mask, into their slots in out — a
// lone world as a one-bit mask. With snaps non-nil each swept block's
// snapshot drops the re-simulated worlds and appends their new events
// (blockSnap.drop, then simBlock), so the cost follows the affected worlds
// rather than the block.
func (e *Estimator) sweepMasks(d *Deployment, masks []uint64, out *worldSlots, snaps []blockSnap) {
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
		var snap *blockSnap
		if snaps != nil {
			snap = &snaps[b]
			snap.drop(mask)
		}
		e.simBlock(bs, d, b*bitset.WordBits, mask, out, snap)
		if snap != nil {
			snap.compactIfSparse()
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
