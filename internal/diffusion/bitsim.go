package diffusion

import (
	"math/bits"

	"s3crm/internal/bitset"
)

// blockEntry is one activation event in the block kernel's shared frontier
// queue: node joined the cascade at hop, in exactly the worlds of mask.
// Masks for the same node are disjoint across entries — a world activates a
// node at most once — so the queue restricted to any single world is that
// world's scalar activation order, which is what makes every per-world
// outcome (including float accumulation order) bit-identical to simWorld.
type blockEntry struct {
	node int32
	hop  int32
	mask uint64
}

// blockScratch holds one 64-world block's propagation state, pooled on the
// estimator and reset in O(touched) between blocks.
type blockScratch struct {
	active  []uint64 // active[v]: worlds (bits) in which v is activated
	seen    []uint64 // seen[v]: worlds in which v was examined; active ⊆ seen
	touched []int32  // nodes with a nonzero seen word, for the O(touched) reset
	queue   []blockEntry

	// Per-world aggregates of the current block. Benefit and realized cost
	// accumulate per world in that world's activation order — the kernel's
	// bit-identity anchor — while the integer aggregates are exact whatever
	// the order.
	worldB    [64]float64
	worldC    [64]float64
	maxHop    [64]int32
	activated [64]int32
	explored  [64]int32

	// Per-entry offer-scan state, cleared only at the scanned worlds' slots.
	cnt  [64]int32 // coupons redeemed by the current scan, per world
	stop [64]int32 // scan resume position for capacity-stopped worlds
}

// reset clears the previous block's node state and the aggregate slots of
// the worlds about to be simulated.
func (bs *blockScratch) reset(blockMask uint64) {
	for _, v := range bs.touched {
		bs.active[v] = 0
		bs.seen[v] = 0
	}
	bs.touched = bs.touched[:0]
	bs.queue = bs.queue[:0]
	for m := blockMask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		bs.worldB[w] = 0
		bs.worldC[w] = 0
		bs.maxHop[w] = 0
		bs.activated[w] = 0
		bs.explored[w] = 0
	}
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

// simBlock propagates the 64 worlds [worldBase, worldBase+64) selected by
// blockMask for deployment d — simWorld's block counterpart, evaluating the
// whole block in one BFS pass over the CSR. worldBase must be 64-aligned.
//
// Per-world outcomes are bit-identical to 64 simWorld calls. The coupon
// capacity makes cascades order-dependent (an offer scan consumes coupons
// in adjacency order, skipping already-active targets for free), so the
// kernel replicates each world's scalar event order exactly: entries are
// appended to the shared FIFO queue at the activation event that created
// them, with the mask of exactly the worlds activated at that moment.
// Restricted to any world w, the queue is then world w's scalar activation
// order (induction over queue positions), every active/seen bit is read and
// written at its scalar timing, and the per-world float sums accumulate in
// the scalar order. What the block buys is the dense part: membership tests
// and edge-liveness probes for all 64 worlds collapse into whole-word
// AND/OR/ANDN against the substrate's bit rows.
//
// With recs non-nil (the world-cache snapshot path) entry recs[b] — indexed
// by in-block world offset — receives that world's activation record; every
// entry under a set blockMask bit must be non-nil, and its slices are
// appended to (callers reset them).
func (e *Estimator) simBlock(bs *blockScratch, d *Deployment, worldBase uint64, blockMask uint64, recs *[64]*worldRecord) {
	g := e.Inst.G
	le := e.Live
	in := e.Inst
	bs.reset(blockMask)
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
				bs.explored[bits.TrailingZeros64(m)]++
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
			bs.worldB[w] += benefit
			bs.activated[w]++
			if ent.hop > bs.maxHop[w] {
				bs.maxHop[w] = ent.hop
			}
		}
		coupons := d.K(v)
		if coupons == 0 {
			if recs != nil {
				for m := ent.mask; m != 0; m &= m - 1 {
					w := bits.TrailingZeros64(m)
					rec := recs[w]
					rec.nodes = append(rec.nodes, v)
					rec.scanStop = append(rec.scanStop, 0)
					rec.scanRed = append(rec.scanRed, 0)
				}
			}
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
					bs.explored[bits.TrailingZeros64(m)]++
				}
			}
			ek := eBase + uint64(j)
			if keys != nil {
				ek = uint64(uint32(keys[j]))
			}
			liveMask := le.BlockMask(worldBase, ek, probe)
			if liveMask == 0 {
				continue
			}
			bs.active[t] |= liveMask
			bs.queue = append(bs.queue, blockEntry{node: t, hop: ent.hop + 1, mask: liveMask})
			cost := in.SCCost[t]
			for m := liveMask; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				bs.worldC[w] += cost
				bs.cnt[w]++
				if int(bs.cnt[w]) >= coupons {
					capMask &^= 1 << uint(w)
					bs.stop[w] = int32(j) + 1
				}
			}
		}
		if recs != nil {
			for m := ent.mask; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				st := int32(len(targets))
				if capMask&(1<<uint(w)) == 0 {
					st = bs.stop[w]
				}
				rec := recs[w]
				rec.nodes = append(rec.nodes, v)
				rec.scanStop = append(rec.scanStop, st)
				rec.scanRed = append(rec.scanRed, bs.cnt[w])
			}
		}
	}
}

// runBlocks simulates worlds [lo, hi) and returns means over that slice
// tagged with its weight relative to the full sample count. Worlds are swept
// in 64-aligned blocks (partial masks at the ragged ends), and the per-world
// aggregates are folded in ascending world order — the same summation
// sequence as folding simWorld over the range, so the Result is
// bit-identical for any [lo, hi) split.
func (e *Estimator) runBlocks(d *Deployment, lo, hi int) Result {
	bs := e.getBlockScratch()
	defer e.putBlockScratch(bs)
	var sumB, sumB2, sumC, sumA, sumH, sumX float64
	nblocks := int64(0)
	for base := lo &^ bitset.WordMask; base < hi; base += bitset.WordBits {
		if e.cancelled() {
			// Abort mid-sweep: the partial sums are meaningless, but the
			// caller is contractually bound to check ctx.Err() before
			// trusting anything produced after cancellation.
			break
		}
		blo, bhi := 0, bitset.WordBits
		if base < lo {
			blo = lo - base
		}
		if base+bitset.WordBits > hi {
			bhi = hi - base
		}
		mask := bitset.RangeMask(blo, bhi)
		e.simBlock(bs, d, uint64(base), mask, nil)
		nblocks++
		for m := mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			sumB += bs.worldB[w]
			sumB2 += bs.worldB[w] * bs.worldB[w]
			sumC += bs.worldC[w]
			sumA += float64(bs.activated[w])
			sumH += float64(bs.maxHop[w])
			sumX += float64(bs.explored[w])
		}
	}
	e.blocks.Add(nblocks)
	count := float64(hi - lo)
	if count == 0 {
		return Result{}
	}
	r := Result{
		Benefit:       sumB / count,
		RealizedCost:  sumC / count,
		Activated:     sumA / count,
		FarthestHop:   sumH / count,
		Explored:      sumX / count,
		BenefitSqMean: sumB2 / count,
	}
	r.weight = count / float64(e.Samples)
	return r
}
