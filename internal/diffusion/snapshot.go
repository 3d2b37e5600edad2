package diffusion

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
)

// snapEntry is one event of a world-cache block snapshot: node was activated
// in exactly the worlds of mask, at this point of the block's event order.
// It is the block kernel's queue entry (blockEntry) without the hop. Its key
// is where the kernel creates it: a seed has parent -1 and pos its own id;
// any other event has the index of the entry whose offer scan activated it
// as parent, and the row position of that offer as pos. For a node that
// held coupons when it was simulated, scan locates its offer-scan state: the
// run of slots red[scan:] and stop[scan:], one per world of mask in
// ascending world order. A node without coupons (scan == noScan) redeemed
// nothing and scanned nothing.
type snapEntry struct {
	node   int32
	scan   int32
	parent int32
	pos    int32
	mask   uint64
}

// noScan marks an entry without offer-scan state.
const noScan = math.MinInt32

// blockSnap is the world-cache snapshot of one 64-world block, in the block
// kernel's own order: the entries in queue order, and the scan state of each
// coupon-holder entry as one contiguous run. Restricted to one world w — the
// entries whose mask holds w's bit, in list order — the entries are w's
// activation order, so a per-world record is a mask filter (bitsim_test.go's
// snapshotRecord).
//
// The kernel queues events breadth first: the seeds in ascending id, then
// each entry's offers in row order. So the entries are in ascending key
// order — (parent, pos), the parent compared by its own place in the list —
// and any one world's events are too. Re-simulating some worlds of the block
// merges their new events into the list by key (merge), fusing an event with
// the surviving worlds' event of the same key and node, and a new seed joins
// at its key (insertSeed), so the entries stay exactly those a simulation of
// every world at once writes: partial moves never fragment the list.
//
// The kernel writes the runs in entry order, but a move rewrites a run in
// place when its worlds stay and appends a run whose worlds change, leaving
// the old slots free; once the free slots outnumber the owned ones the runs
// are packed to the front (compact). So a move pays for the runs it
// changes, and the arrays never hold more than twice the owned slots.
type blockSnap struct {
	ents []snapEntry
	red  []int32 // coupons the holder scans redeemed
	stop []int32 // first row position never offered a coupon; the row length unless capacity-stopped
	free int     // slots of red and stop no run owns
}

// reset empties the snapshot, keeping its capacity.
func (s *blockSnap) reset() {
	s.ents = s.ents[:0]
	s.red = s.red[:0]
	s.stop = s.stop[:0]
	s.free = 0
}

// addRun appends the scan state of a coupon holder's event: the holder
// scanned in the worlds of mask (nonzero), leaving cnt[w] redeemed and
// resume position stop[w] in world w. A mask of adjacent worlds — every
// world of a seed's entry — copies as one slice. The entry itself comes
// with the rest of the block's events (addEvents).
func (s *blockSnap) addRun(mask uint64, cnt, stop *[64]int32) {
	lo, k := bits.TrailingZeros64(mask), bits.OnesCount64(mask)
	if mask>>uint(lo) == 1<<uint(k)-1 {
		s.red = append(s.red, cnt[lo:lo+k]...)
		s.stop = append(s.stop, stop[lo:lo+k]...)
		return
	}
	n := s.extend(k)
	for m, i := mask, n; m != 0; m, i = m&(m-1), i+1 {
		w := bits.TrailingZeros64(m)
		s.red[i], s.stop[i] = cnt[w], stop[w]
	}
}

// addEvents appends one simulation's queue as the entries of the empty
// snapshot s, in queue order. The events of d's coupon holders take their
// runs in the same order, which addRun wrote.
func (s *blockSnap) addEvents(queue []blockEntry, d *Deployment) {
	s.ents = slices.Grow(s.ents, len(queue))[:len(queue)]
	run := 0
	for i, q := range queue {
		e := snapEntry{node: q.node, scan: noScan, parent: q.parent, pos: q.pos, mask: q.mask}
		if d.K(q.node) > 0 {
			e.scan = int32(run)
			run += bits.OnesCount64(q.mask)
		}
		s.ents[i] = e
	}
}

// scanAt returns e's offer-scan state in world bit w (which must be set in
// e.mask): coupons redeemed and resume position, both 0 without coupons.
func (s *blockSnap) scanAt(e snapEntry, w int) (red, stop int32) {
	if e.scan == noScan {
		return 0, 0
	}
	i := int(e.scan) + bits.OnesCount64(e.mask&(1<<uint(w)-1))
	return s.red[i], s.stop[i]
}

// mergeScratch is merge's rewrite target, its index maps and compact's
// run order.
type mergeScratch struct {
	ents       []snapEntry
	mapS, mapG []int32 // new index of each entry of s and of g
	runs       []int32 // holder entries by run position
}

// merge replaces the events of the worlds of drop in s by g, those worlds'
// events from a new simulation in key order, less the seeds. The seeds are
// s's first seeds entries, every world's, kept in place (the simulation
// wrote their scan state there, setRun); g's parent indexes are queue
// indexes, the seeds first. Both lists of other events are walked once,
// taking the smaller key first; events of equal key — the same offer, so
// the same user — fuse into one entry, and an entry left without worlds
// goes. Every world keeps its events in its own order. The entries are
// rewritten into sc.ents, whose array is then swapped with s's; the runs
// change in place where they can:
//   - a surviving entry of s keeps its run, packed in place when it lost
//     worlds;
//   - a fused entry whose worlds are those of s's entry overwrites g's
//     worlds' slots of s's run;
//   - an entry of g alone, or fused over new worlds, appends a run.
func (s *blockSnap) merge(drop uint64, g *blockSnap, seeds int, sc *mergeScratch) {
	out := append(sc.ents[:0], s.ents[:seeds]...)
	out = slices.Grow(out, len(s.ents)-seeds+len(g.ents))
	sc.mapS = grow(sc.mapS, len(s.ents))
	sc.mapG = grow(sc.mapG, seeds+len(g.ents))
	for i := 0; i < seeds; i++ {
		sc.mapS[i], sc.mapG[i] = int32(i), int32(i)
	}
	// g's entry j is queue entry seeds+j: its index in mapG.
	i, j := seeds, 0
	for i < len(s.ents) || j < len(g.ents) {
		if i < len(s.ents) && s.ents[i].mask&^drop == 0 {
			if e := s.ents[i]; e.scan != noScan {
				s.free += bits.OnesCount64(e.mask)
			}
			i++ // every world of the entry dropped
			continue
		}
		var c int
		switch {
		case i == len(s.ents):
			c = 1
		case j == len(g.ents):
			c = -1
		default:
			a, b := &s.ents[i], &g.ents[j]
			c = cmp.Or(cmp.Compare(newParent(a.parent, sc.mapS), newParent(b.parent, sc.mapG)), cmp.Compare(a.pos, b.pos))
			if c == 0 && a.node != b.node {
				// A kept event's offer position is one the move left
				// alone, so both lists read it off the same row.
				panic("diffusion: two events of one key name different users")
			}
		}
		idx := int32(len(out))
		switch {
		case c < 0:
			e := s.ents[i]
			if keep := e.mask &^ drop; keep != e.mask {
				if e.scan != noScan {
					s.pack(e, keep)
				}
				e.mask = keep
			}
			e.parent = newParent(e.parent, sc.mapS)
			out = append(out, e)
			sc.mapS[i] = idx
			i++
		case c > 0:
			e := g.ents[j]
			if e.scan != noScan {
				from, k := int(e.scan), bits.OnesCount64(e.mask)
				at := s.extend(k)
				e.scan = int32(at)
				copy(s.red[at:], g.red[from:from+k])
				copy(s.stop[at:], g.stop[from:from+k])
			}
			e.parent = newParent(e.parent, sc.mapG)
			out = append(out, e)
			sc.mapG[seeds+j] = idx
			j++
		default:
			a, b := s.ents[i], g.ents[j]
			if (a.scan == noScan) != (b.scan == noScan) {
				panic("diffusion: merging a coupon holder's event with a non-holder's")
			}
			keep := a.mask &^ drop
			e := a
			e.parent, e.mask = newParent(a.parent, sc.mapS), keep|b.mask
			if a.scan != noScan {
				s.fuseRun(&e, a, keep, g, b)
			}
			out = append(out, e)
			sc.mapS[i], sc.mapG[seeds+j] = idx, idx
			i++
			j++
		}
	}
	s.ents, sc.ents = out, s.ents
	if s.free > len(s.red)-s.free {
		sc.runs = s.compact(sc.runs)
	}
}

// replace is merge for a block whose every world re-simulated: g, the new
// simulation's events less the seeds, replaces every event behind s's first
// seeds entries. The old events' runs are freed and the seeds' runs packed
// to the front before g's runs go in, so the arrays never hold both. g's
// parent indexes are queue indexes, the seeds first: they are the new ones.
func (s *blockSnap) replace(g *blockSnap, seeds int, sc *mergeScratch) {
	for _, e := range s.ents[seeds:] {
		if e.scan != noScan {
			s.free += bits.OnesCount64(e.mask)
		}
	}
	s.ents = s.ents[:seeds]
	sc.runs = s.compact(sc.runs)
	for _, e := range g.ents {
		if e.scan != noScan {
			from, k := int(e.scan), bits.OnesCount64(e.mask)
			at := s.extend(k)
			e.scan = int32(at)
			copy(s.red[at:], g.red[from:from+k])
			copy(s.stop[at:], g.stop[from:from+k])
		}
		s.ents = append(s.ents, e)
	}
}

// setRun writes seed entry i's scan state — node v's, in every world —
// at the worlds of mask, world w's from cnt[w] and stop[w].
func (s *blockSnap) setRun(i int, v int32, mask uint64, cnt, stop *[64]int32) {
	e := s.ents[i]
	if e.node != v || e.parent >= 0 || e.mask&mask != mask {
		panic("diffusion: block snapshot does not open with the deployment's seeds")
	}
	if e.mask == ^uint64(0) { // slot w is world w's
		for m := mask; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			s.red[int(e.scan)+w], s.stop[int(e.scan)+w] = cnt[w], stop[w]
		}
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		at := int(e.scan) + bits.OnesCount64(e.mask&(1<<uint(w)-1))
		s.red[at], s.stop[at] = cnt[w], stop[w]
	}
}

// pack shrinks e's run in place to the worlds of keep, a subset of e.mask,
// freeing the dropped worlds' slots.
func (s *blockSnap) pack(e snapEntry, keep uint64) {
	to := int(e.scan)
	for m, from := e.mask, to; m != 0; m, from = m&(m-1), from+1 {
		if keep&(m&-m) != 0 {
			s.red[to], s.stop[to] = s.red[from], s.stop[from]
			to++
		}
	}
	s.free += bits.OnesCount64(e.mask &^ keep)
}

// fuseRun gives e — s's entry a, left with the worlds of keep, fused with
// g's entry b — its run: a's run with b's worlds' slots overwritten when e
// holds a's worlds, else a new run interleaving the two by world, which
// frees a's.
func (s *blockSnap) fuseRun(e *snapEntry, a snapEntry, keep uint64, g *blockSnap, b snapEntry) {
	ib := int(b.scan)
	if e.mask == a.mask {
		for m := b.mask; m != 0; m &= m - 1 {
			at := int(a.scan) + bits.OnesCount64(a.mask&(m&-m-1))
			s.red[at], s.stop[at] = g.red[ib], g.stop[ib]
			ib++
		}
		return
	}
	at := s.extend(bits.OnesCount64(e.mask))
	e.scan = int32(at)
	ia := int(a.scan)
	for m := a.mask | b.mask; m != 0; m &= m - 1 {
		bit := m & -m
		switch {
		case b.mask&bit != 0:
			s.red[at], s.stop[at] = g.red[ib], g.stop[ib]
			ib++
			at++
		case keep&bit != 0:
			s.red[at], s.stop[at] = s.red[ia], s.stop[ia]
			at++
		}
		if a.mask&bit != 0 {
			ia++
		}
	}
	s.free += bits.OnesCount64(a.mask)
}

// compact packs the runs to the front of the arrays, in the order they lie
// — each moves toward the front, so none overwrites one not yet moved —
// leaving no slot free. runs is scratch, returned for reuse.
func (s *blockSnap) compact(runs []int32) []int32 {
	runs = runs[:0]
	for i, e := range s.ents {
		if e.scan != noScan {
			runs = append(runs, int32(i))
		}
	}
	slices.SortFunc(runs, func(a, b int32) int { return cmp.Compare(s.ents[a].scan, s.ents[b].scan) })
	at := 0
	for _, i := range runs {
		e := &s.ents[i]
		from, k := int(e.scan), bits.OnesCount64(e.mask)
		copy(s.red[at:], s.red[from:from+k])
		copy(s.stop[at:], s.stop[from:from+k])
		e.scan = int32(at)
		at += k
	}
	s.red, s.stop, s.free = s.red[:at], s.stop[:at], 0
	return runs
}

// insertSeed adds seed v's event for the worlds of mask, none of which holds
// v yet, at its key (-1, v): after the seeds below v, ahead of every other
// event, whose parent indexes move up by one. With scans its run, appended,
// records 0 redeemed and resume position stop in every world. The entries
// from the slot on shift up one and take their new parents in one pass.
func (s *blockSnap) insertSeed(v int32, mask uint64, scans bool, stop int32) {
	at := 0
	for at < len(s.ents) && s.ents[at].parent < 0 && s.ents[at].pos < v {
		at++
	}
	e := snapEntry{node: v, scan: noScan, parent: -1, pos: v, mask: mask}
	if scans {
		n := s.extend(bits.OnesCount64(mask))
		e.scan = int32(n)
		clear(s.red[n:])
		for i := n; i < len(s.stop); i++ {
			s.stop[i] = stop
		}
	}
	s.ents = append(s.ents, snapEntry{})
	for i := len(s.ents) - 1; i > at; i-- {
		x := s.ents[i-1]
		if x.parent >= int32(at) {
			x.parent++
		}
		s.ents[i] = x
	}
	s.ents[at] = e
}

// holdScan fits seed entry i's run to whether the seed now holds coupons:
// a holder without a run gets one of zeroed slots, and an entry with a run
// that holds none frees it. Its coupons moved between none and some, so
// every world of the entry re-scans it and writes the slots (setRun).
func (s *blockSnap) holdScan(i int, holds bool) {
	e := &s.ents[i]
	switch k := bits.OnesCount64(e.mask); {
	case holds && e.scan == noScan:
		n := s.extend(k)
		clear(s.red[n:])
		clear(s.stop[n:])
		e.scan = int32(n)
	case !holds && e.scan != noScan:
		s.free += k
		e.scan = noScan
	}
}

// extend lengthens red and stop by k slots and returns the first. Past
// their capacity both arrays grow by the runtime's append policy (a
// quarter past a few hundred slots), not to twice their length: doubling
// halved the copying but left pooled caches holding up to twice the slots
// they use. The new slots' contents are stale.
func (s *blockSnap) extend(k int) int {
	n := len(s.red)
	s.red = slices.Grow(s.red, k)[:n+k]
	s.stop = slices.Grow(s.stop, k)[:n+k]
	return n
}

// newParent returns the index in merge's output of the entry at index p of
// an input list, given that list's index map: the first half of the key,
// comparable across the two lists, since parents precede their events.
func newParent(p int32, m []int32) int32 {
	if p < 0 {
		return -1
	}
	return m[p]
}

// grow returns buf resized to n entries, reallocating only past its
// capacity; the contents are stale.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}
