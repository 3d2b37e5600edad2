package diffusion

import (
	"math"
	"math/bits"
)

// snapEntry is one event of a world-cache block snapshot: node was activated
// in exactly the worlds of mask, at this point of the block's event order.
// It is the block kernel's queue entry (blockEntry) with the hop dropped and
// with the bits of worlds re-simulated since cleared; an entry whose mask
// reaches zero is dead. For a node that held coupons when it was simulated,
// scan locates its offer-scan state: one slot of the block's red and stop
// per world of orig (the mask at creation), in ascending world order. A node
// without coupons (scan == noScan) redeemed nothing and scanned nothing.
type snapEntry struct {
	node int32
	scan int32
	mask uint64
	orig uint64
}

// noScan marks an entry without offer-scan state.
const noScan = math.MinInt32

// blockSnap is the world-cache snapshot of one 64-world block, in the block
// kernel's own order: the entries appended in queue order, and the scan
// state of each coupon-holder entry as one contiguous run. Restricted to one
// world w — the entries whose mask holds w's bit, in list order — the
// entries are w's activation order, so a per-world record is a mask filter
// (bitsim_test.go's snapshotRecord).
//
// Re-simulating some worlds of the block clears their bits from the old
// entries (drop) and appends their new events behind them: every other
// world's entries keep their bits and their order, and the re-simulated
// worlds' new entries are their activation order. Once the cleared bits
// outnumber the live ones, compactIfSparse rewrites the list and the runs
// without them, so a block never holds more than twice its live state.
type blockSnap struct {
	ents []snapEntry
	red  []int32 // coupons the holder scans redeemed
	stop []int32 // first row position never offered a coupon; the row length unless capacity-stopped
	live int     // set mask bits over ents: the block's per-world activations
	dead int     // bits cleared by drop since the last compaction
}

// reset empties the snapshot, keeping its capacity.
func (s *blockSnap) reset() {
	s.ents = s.ents[:0]
	s.red = s.red[:0]
	s.stop = s.stop[:0]
	s.live, s.dead = 0, 0
}

// addRun appends the scan state of a coupon holder's event: the holder
// scanned in the worlds of mask (nonzero), leaving cnt[w] redeemed and
// resume position stop[w] in world w. A mask of adjacent worlds — every
// world of a seed's entry — copies as one slice. The entry itself comes
// with the rest of the block's events (addEvents).
func (s *blockSnap) addRun(mask uint64, cnt, stop *[64]int32) {
	if lo, k := bits.TrailingZeros64(mask), bits.OnesCount64(mask); mask>>uint(lo) == 1<<uint(k)-1 {
		s.red = append(s.red, cnt[lo:lo+k]...)
		s.stop = append(s.stop, stop[lo:lo+k]...)
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		s.red = append(s.red, cnt[w])
		s.stop = append(s.stop, stop[w])
	}
}

// addEvents appends one simulation's queue as entries, in queue order. The
// events of d's coupon holders take their runs in the same order from run
// on, the offset of the simulation's first addRun.
func (s *blockSnap) addEvents(queue []blockEntry, d *Deployment, run int) {
	for _, q := range queue {
		k := bits.OnesCount64(q.mask)
		e := snapEntry{node: q.node, scan: noScan, mask: q.mask, orig: q.mask}
		if d.K(q.node) > 0 {
			e.scan = int32(run)
			run += k
		}
		s.ents = append(s.ents, e)
		s.live += k
	}
}

// scanAt returns e's offer-scan state in world bit w (which must be set in
// e.mask): coupons redeemed and resume position, both 0 without coupons.
func (s *blockSnap) scanAt(e snapEntry, w int) (red, stop int32) {
	if e.scan == noScan {
		return 0, 0
	}
	i := int(e.scan) + bits.OnesCount64(e.orig&(1<<uint(w)-1))
	return s.red[i], s.stop[i]
}

// drop clears the worlds of mask from every entry, ahead of their
// re-simulation; a snapshot left with no live world is emptied.
func (s *blockSnap) drop(mask uint64) {
	for i := range s.ents {
		e := &s.ents[i]
		if hit := e.mask & mask; hit != 0 {
			e.mask &^= hit
			k := bits.OnesCount64(hit)
			s.live -= k
			s.dead += k
		}
	}
	if s.live == 0 {
		s.reset()
	}
}

// compactIfSparse rewrites the snapshot without its cleared bits once they
// outnumber the live ones: dead entries go, and each holder run keeps only
// its live worlds' slots. Entries and runs keep their order and only ever
// move toward the front, so the rewrite works in place.
func (s *blockSnap) compactIfSparse() {
	if s.dead <= s.live {
		return
	}
	n, at := 0, 0
	for _, e := range s.ents {
		if e.mask == 0 {
			continue
		}
		if e.scan != noScan {
			from := int(e.scan)
			e.scan = int32(at)
			for m, i := e.orig, from; m != 0; m, i = m&(m-1), i+1 {
				if e.mask&(m&-m) != 0 {
					s.red[at], s.stop[at] = s.red[i], s.stop[i]
					at++
				}
			}
		}
		e.orig = e.mask
		s.ents[n] = e
		n++
	}
	s.ents, s.red, s.stop, s.dead = s.ents[:n], s.red[:at], s.stop[:at], 0
}
