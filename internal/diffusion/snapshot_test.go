package diffusion

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"s3crm/internal/graph"
)

// snapshotProblem draws a random instance over n users plus a stream of
// extra edges to append in churn batches. Under LT every target's in-weight
// over the base and the whole stream together is scaled to at most 1, so
// every prefix of the stream keeps the LT precondition.
func snapshotProblem(t *testing.T, r *rand.Rand, n, baseEdges, streamEdges int, model string) (*Instance, []graph.Edge) {
	t.Helper()
	all := randEdges(r, n, baseEdges+streamEdges, 0.9, map[int64]bool{})
	if model == ModelLT {
		in := make([]float64, n)
		for _, e := range all {
			in[e.To] += e.P
		}
		for i := range all {
			if s := in[all[i].To]; s > 0.95 {
				all[i].P *= 0.95 / s
			}
		}
	}
	g, err := graph.FromEdges(n, all[:baseEdges])
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{G: g, Benefit: make([]float64, n), SeedCost: make([]float64, n), SCCost: make([]float64, n), Budget: 1e9}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 0.5 + r.Float64()
		inst.SeedCost[i] = 1 + r.Float64()
		inst.SCCost[i] = 0.5 + r.Float64()
	}
	return inst, all[baseEdges:]
}

// checkSnapshotLayout asserts the block snapshot's own bookkeeping: the
// entries open with the base's seeds, each in every world; every entry
// names a world of the block and at least one; its parent precedes it
// (a seed's key is (-1, its id)) and the keys ascend strictly, so no two
// entries hold one event; every holder run has one slot per world of its
// mask, inside the arrays and apart from every other run; the free slots are
// counted and never outnumber the owned ones (compact's bound); and the
// maintained inverted index, refreshed over the blocks the moves marked
// stale, lists exactly the entries of each node — the lists of an index
// built from scratch — with consistent links and block ownership.
func checkSnapshotLayout(t *testing.T, wc *WorldCache, step string) {
	t.Helper()
	samples := wc.Est.Samples
	var refs []entryRef
	for b := range wc.snaps {
		s := &wc.snaps[b]
		valid := wc.Est.blockWorlds(b)
		owner := make([]int, len(s.red))
		owned := 0
		for i, v := range wc.base.Seeds() {
			if i >= len(s.ents) || s.ents[i].node != v || s.ents[i].mask != valid {
				t.Fatalf("%s block %d: entry %d is not seed %d in every world", step, b, i, v)
			}
		}
		for i, e := range s.ents {
			if e.mask == 0 || e.mask&^valid != 0 {
				t.Fatalf("%s block %d entry %d: mask %#x empty or outside the block's %d worlds", step, b, i, e.mask, samples)
			}
			if e.parent >= int32(i) || e.parent < 0 && (e.parent != -1 || e.pos != e.node) {
				t.Fatalf("%s block %d entry %d: key (%d, %d) of node %d", step, b, i, e.parent, e.pos, e.node)
			}
			if i > 0 {
				if p := s.ents[i-1]; cmp.Or(cmp.Compare(p.parent, e.parent), cmp.Compare(p.pos, e.pos)) >= 0 {
					t.Fatalf("%s block %d entry %d: key (%d, %d) not above its predecessor's (%d, %d)", step, b, i, e.parent, e.pos, p.parent, p.pos)
				}
			}
			if e.scan != noScan {
				k := bits.OnesCount64(e.mask)
				if e.scan < 0 || int(e.scan)+k > len(s.red) || len(s.stop) != len(s.red) {
					t.Fatalf("%s block %d entry %d: run [%d, +%d) outside %d/%d slots", step, b, i, e.scan, k, len(s.red), len(s.stop))
				}
				for at := int(e.scan); at < int(e.scan)+k; at++ {
					if owner[at] != 0 {
						t.Fatalf("%s block %d entry %d: run slot %d also held by entry %d", step, b, i, at, owner[at]-1)
					}
					owner[at] = i + 1
				}
				owned += k
			}
			refs = append(refs, entryRef{blk: int32(b), idx: int32(i)})
		}
		if s.free != len(s.red)-owned || s.free > owned {
			t.Fatalf("%s block %d: %d free slots counted, %d of %d unowned (must not outnumber the owned)", step, b, s.free, len(s.red)-owned, len(s.red))
		}
	}
	n := wc.Est.Inst.G.NumNodes()
	wc.refreshIndex()
	fresh := &WorldCache{Est: wc.Est, snaps: wc.snaps}
	fresh.refreshIndex()
	key := func(r entryRef) int64 { return int64(r.blk)<<32 | int64(r.idx) }
	sorted := func(es []entryRef) []entryRef {
		es = slices.Clone(es)
		slices.SortFunc(es, func(a, b entryRef) int { return cmp.Compare(key(a), key(b)) })
		return es
	}
	var got []entryRef
	for v := int32(0); v < int32(n); v++ {
		es := sorted(wc.activeEntries(v))
		for _, r := range es {
			if wc.snaps[r.blk].ents[r.idx].node != v {
				t.Fatalf("%s: inverted index of node %d lists %v", step, v, es)
			}
		}
		if want := sorted(fresh.activeEntries(v)); !slices.Equal(es, want) {
			t.Fatalf("%s: maintained index of node %d lists %v, one built from scratch %v", step, v, es, want)
		}
		got = append(got, es...)
	}
	slices.SortFunc(got, func(a, b entryRef) int { return cmp.Compare(key(a), key(b)) })
	if !slices.Equal(got, refs) {
		t.Fatalf("%s: inverted index holds %d entries, the snapshot %d", step, len(got), len(refs))
	}
	// Links: every listed ref's neighbours point back at it, and the refs
	// each block owns are exactly the ones listing its entries.
	ix := &wc.inv
	owner := map[int32]int{}
	for b, own := range ix.owned {
		for _, r := range own {
			owner[r] = b
		}
	}
	listed := 0
	for v := int32(0); v < int32(n); v++ {
		prev := int32(-1)
		for r := ix.head[v]; r >= 0; prev, r = r, ix.refs[r].next {
			x := ix.refs[r]
			if x.prev != prev || x.node != v {
				t.Fatalf("%s: ref %d of node %d links back to %d, names node %d", step, r, v, x.prev, x.node)
			}
			if b, ok := owner[r]; !ok || b != int(x.blk) {
				t.Fatalf("%s: ref %d of block %d is not owned by it", step, r, x.blk)
			}
			listed++
		}
	}
	if listed != len(owner) {
		t.Fatalf("%s: %d refs listed, %d owned", step, listed, len(owner))
	}
}

// cloneSnaps deep-copies the block snapshots.
func cloneSnaps(snaps []blockSnap) []blockSnap {
	out := make([]blockSnap, len(snaps))
	for b, s := range snaps {
		out[b] = blockSnap{ents: slices.Clone(s.ents), red: slices.Clone(s.red), stop: slices.Clone(s.stop), free: s.free}
	}
	return out
}

// sameSnaps reports whether two block-snapshot lists hold the same events,
// key for key, and the same scan state for each: the runs' places in the
// arrays may differ.
func sameSnaps(a, b []blockSnap) bool {
	return slices.EqualFunc(a, b, func(x, y blockSnap) bool {
		return slices.EqualFunc(x.ents, y.ents, func(e, f snapEntry) bool {
			if e.node != f.node || e.parent != f.parent || e.pos != f.pos || e.mask != f.mask || (e.scan == noScan) != (f.scan == noScan) {
				return false
			}
			if e.scan == noScan {
				return true
			}
			k := bits.OnesCount64(e.mask)
			return slices.Equal(x.red[e.scan:int(e.scan)+k], y.red[f.scan:int(f.scan)+k]) &&
				slices.Equal(x.stop[e.scan:int(e.scan)+k], y.stop[f.scan:int(f.scan)+k])
		})
	})
}

// TestWorldCacheBlockSnapshotProperty drives world caches through long
// random chains of partial re-simulation — coupon advances, seed additions,
// churn patches, sparse delta evaluations and delta sweeps — under IC and
// LT, on materialized and hashed liveness, at sample counts with a ragged
// tail block, and checks after every step that:
//   - each world's expanded view of the block-order snapshot, and its
//     metrics, equal simWorld's record for the current base (checkSnapshots);
//   - the snapshot's bookkeeping and inverted index hold (checkSnapshotLayout);
//   - the snapshot equals a cold cache's rebased on the same deployment, entry
//     for entry and slot for slot: partial moves merge, never fragment;
//   - Rebase equals the scalar fold, EvaluateDelta the scalar delta fold
//     while leaving the snapshot untouched, and DeltaBenefits a cold cache
//     rebased on the same deployment bit for bit.
//
// After every coupon advance and seed add the seed scans kept and re-run
// must number one per seed holder (the added seed excepted) and
// re-simulated world. The seed additions cycle through a new seed that
// already held coupons, one left without coupons, and one in a base
// holder's row; the test fails unless the chain took the coupon-advance and
// seed-add paths, advanced the coupons of a seed and of another user, and
// reached (classifySeedMove) a seed addition whose block mixed inert and
// re-simulated worlds, an earlier seed whose recorded scan redeemed on the
// added seed, a later seed whose recorded prefix holds a user the added
// seed activates, and a seed whose re-run scan came out different; and
// freed run slots and compacted them.
func TestWorldCacheBlockSnapshotProperty(t *testing.T) {
	for _, model := range Models() {
		for _, sub := range substrateBudgets {
			for _, samples := range []int{70, 170} {
				name := model
				if sub.budget != 0 {
					name += "-" + sub.name
				}
				t.Run(fmt.Sprintf("%s/samples=%d", name, samples), func(t *testing.T) {
					snapshotChain(t, model, sub.budget, samples, int64(len(model)*1000+samples))
				})
			}
		}
	}
}

func snapshotChain(t *testing.T, model string, budget int64, samples int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const n = 36
	inst, stream := snapshotProblem(t, r, n, 130, 60, model)
	newEst := func(inst *Instance) *Estimator {
		ev, err := NewEngineOpts(inst, EngineOptions{Engine: EngineMC, Model: model, Samples: samples, Seed: 9, LiveEdgeMemBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		return ev.(*Estimator)
	}
	est := newEst(inst)
	est.Workers = 2
	wc := &WorldCache{Est: est}
	d := NewDeployment(n)
	for d.NumSeeds() < 3 {
		d.AddSeed(int32(r.Intn(n)))
	}
	for i := 0; i < 8; i++ {
		if v := int32(r.Intn(n)); inst.G.OutDegree(v) > 0 {
			d.SetK(v, 1+r.Intn(inst.G.OutDegree(v)))
		}
	}
	checkCacheStep(t, wc, wc.Rebase(d), nil, 0)
	checkSnapshotLayout(t, wc, "rebase")

	// couponMove changes the coupon counts of 1–3 users of dep in place and
	// returns them.
	couponMove := func(dep *Deployment) []int32 {
		var changed []int32
		for m := 1 + r.Intn(3); len(changed) < m; {
			v := int32(r.Intn(n))
			if slices.Contains(changed, v) {
				continue
			}
			switch deg := wc.Est.Inst.G.OutDegree(v); {
			case dep.K(v) > 0 && r.Intn(3) == 0:
				dep.AddK(v, -1)
			case dep.K(v) < deg:
				dep.AddK(v, 1)
			default:
				continue
			}
			changed = append(changed, v)
		}
		return changed
	}
	// seedMove adds one seed to d, of the kind the count of seed moves so
	// far selects, and sets its coupons; past ten seeds it removes one
	// instead, a move only a full rebase takes.
	seedMoves := 0
	seedMove := func() string {
		g := wc.Est.Inst.G
		if d.NumSeeds() >= 10 {
			d.RemoveSeed(d.Seeds()[r.Intn(d.NumSeeds())])
			return "seed removal"
		}
		var pool []int32
		kind := seedMoves % 3
		seedMoves++
		for v := int32(0); v < n; v++ {
			if d.IsSeed(v) {
				continue
			}
			switch kind {
			case 0: // a holder: the new seed already held coupons
				if d.K(v) > 0 {
					pool = append(pool, v)
				}
			case 1: // any user, left without coupons
				pool = append(pool, v)
			default: // a target in a holder's row
				for _, u := range d.holders {
					if ts, _ := g.OutEdges(u); slices.Contains(ts, v) {
						pool = append(pool, v)
						break
					}
				}
			}
		}
		if len(pool) == 0 {
			pool = append(pool, int32(slices.IndexFunc(d.seed, func(s bool) bool { return !s })))
		}
		s := pool[r.Intn(len(pool))]
		d.AddSeed(s)
		switch deg := g.OutDegree(s); {
		case kind == 1 || deg == 0:
			d.SetK(s, 0)
		case d.K(s) > 0 && r.Intn(2) == 0:
			// keep the coupons it held
		default:
			d.SetK(s, 1+r.Intn(deg))
		}
		return "seed add"
	}
	var reached seedScanCase
	var seedAdvance, userAdvance, freed, compacted bool
	taken := map[string]int64{} // moves made, by kind
	for step := 1; step <= 150; step++ {
		before := cloneSnaps(wc.snaps)
		base := d.Clone()
		counts := wc.Rebases()
		var what string
		switch op := r.Intn(12); {
		case op < 5:
			what = "advance"
			for _, v := range couponMove(d) {
				seedAdvance = seedAdvance || d.IsSeed(v)
				userAdvance = userAdvance || !d.IsSeed(v)
			}
			checkCacheStep(t, wc, wc.Rebase(d), nil, step)
		case op < 7:
			what = "EvaluateDelta"
			trial := d.Clone()
			changed := couponMove(trial)
			if got, want := wc.EvaluateDelta(trial, changed), scalarDelta(wc, trial); got != want {
				t.Fatalf("step %d: EvaluateDelta %v != scalar delta fold %v", step, got, want)
			}
			if !reflect.DeepEqual(wc.snaps, before) {
				t.Fatalf("step %d: EvaluateDelta changed the snapshot", step)
			}
		case op < 9 && len(stream) > 0:
			what = "PatchEdges"
			k := min(len(stream), 1+r.Intn(3))
			batch := stream[:k]
			stream = stream[k:]
			g2, err := wc.Est.Inst.G.WithEdges(batch)
			if err != nil {
				t.Fatal(err)
			}
			inst2 := &Instance{G: g2, Benefit: inst.Benefit, SeedCost: inst.SeedCost, SCCost: inst.SCCost, Budget: inst.Budget}
			e2 := wc.Est.WithGraph(inst2, ChurnTargets(batch))
			checkCacheStep(t, wc, wc.PatchEdges(e2, batch), nil, step)
		case op < 10:
			what = "DeltaBenefits"
			cands := couponCandidates(wc.Est.Inst, d)
			cold := &WorldCache{Est: newEst(wc.Est.Inst)}
			cold.Rebase(d)
			got, want := wc.DeltaBenefits(cands), cold.DeltaBenefits(cands)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: DeltaBenefits over the patched snapshot %v != cold %v", step, got, want)
			}
		default:
			what = seedMove()
			checkCacheStep(t, wc, wc.Rebase(d), nil, step)
		}
		if what == "advance" || what == "seed add" {
			// Every re-simulated world keeps or re-runs each seed scan but
			// the added seed's, and the counts say which, per (seed, world).
			resim, s := resimulated(wc.Est, before, base, d)
			c := classifySeedMove(wc.Est, before, wc.snaps, base, d, resim, s)
			reached.mixed = reached.mixed || c.mixed && s >= 0
			reached.earlierOnAdded = reached.earlierOnAdded || c.earlierOnAdded
			reached.laterPrefix = reached.laterPrefix || c.laterPrefix
			reached.changed = reached.changed || c.changed
			scans := int64(0)
			for _, u := range d.Seeds() {
				if u != s && d.K(u) > 0 {
					scans++
				}
			}
			worlds := int64(0)
			for _, m := range resim {
				worlds += int64(bits.OnesCount64(m))
			}
			now := wc.Rebases()
			kept, rerun := now.SeedScansKept-counts.SeedScansKept, now.SeedScansRerun-counts.SeedScansRerun
			if kept+rerun != scans*worlds {
				t.Fatalf("step %d (%s): %d seed scans kept and %d re-run, want %d seeds × %d re-simulated worlds",
					step, what, kept, rerun, scans, worlds)
			}
		}
		for b := range wc.snaps {
			s, was := &wc.snaps[b], &before[b]
			freed = freed || s.free > 0
			// Only compact, or a full rebase, clears a block's free slots.
			compacted = compacted || what != "seed removal" && was.free > 0 && s.free == 0
		}
		taken[what]++
		step := fmt.Sprintf("step %d (%s)", step, what)
		checkSnapshotLayout(t, wc, step)
		cold := &WorldCache{Est: newEst(wc.Est.Inst)}
		cold.Rebase(d)
		if !sameSnaps(wc.snaps, cold.snaps) {
			t.Fatalf("%s: snapshot differs from a cold rebase's", step)
		}
	}
	// Every coupon move and seed addition takes its incremental path; a
	// seed removal, and only the first rebase besides, simulates every
	// world.
	c := wc.Rebases()
	if c.Advance != taken["advance"] || c.SeedAdd != taken["seed add"] || c.Full != 1+taken["seed removal"] {
		t.Fatalf("rebases %+v for moves %v", c, taken)
	}
	if c.Advance == 0 || c.SeedAdd == 0 || c.SeedScansKept == 0 || !seedAdvance || !userAdvance || !freed || !compacted {
		t.Fatalf("chain took %+v, a coupon advance on a seed: %v and on another user: %v, freed run slots: %v, compacted: %v: lengthen it",
			c, seedAdvance, userAdvance, freed, compacted)
	}
	if !reached.mixed || !reached.earlierOnAdded || !reached.laterPrefix || !reached.changed {
		t.Fatalf("chain reached %+v of the seed-scan cases: lengthen it", reached)
	}
}

// resimulated returns, per block, the worlds the move from base to d
// re-simulates, read off the outgoing snapshot before: for a seed add of s,
// every world but the inert ones — where base leaves s inactive and, if s
// holds coupons under d, no out-edge of s is live; for a coupon move, the
// worlds activating a changed user whose recorded scan can change
// (scanUnchanged). It also returns the added seed, -1 for a coupon move.
func resimulated(e *Estimator, before []blockSnap, base, d *Deployment) ([]uint64, int32) {
	g := e.Inst.G
	out := make([]uint64, len(before))
	s := int32(-1)
	for _, v := range d.Seeds() {
		if !base.IsSeed(v) {
			s = v
		}
	}
	for w := 0; w < e.Samples; w++ {
		rec := blockRecord(&before[w/64], w%64)
		hit := false
		if s >= 0 {
			hit = slices.Contains(rec.nodes, s)
			if targets, _, keys, kbase := g.OutRow(s); !hit && d.K(s) > 0 {
				for j := range targets {
					ek := uint64(kbase) + uint64(j)
					if keys != nil {
						ek = uint64(uint32(keys[j]))
					}
					hit = hit || e.Live.Live(uint64(w), ek)
				}
			}
		} else {
			for i, v := range rec.nodes {
				hit = hit || base.K(v) != d.K(v) && !scanUnchanged(base.K(v), d.K(v), int(rec.scanRed[i]))
			}
		}
		if hit {
			out[w/64] |= 1 << uint(w%64)
		}
	}
	return out, s
}

// seedScanCase is what a move from base to d reached of the ways a seed's
// recorded scan changes, read off the outgoing and incoming snapshots before
// and after (each equal to simWorld's records, which the chain checks).
type seedScanCase struct {
	mixed          bool // a block held both re-simulated and untouched worlds
	earlierOnAdded bool // an earlier seed's recorded scan redeemed on the added seed
	laterPrefix    bool // a later seed's recorded prefix holds a user the added seed activates
	changed        bool // a kept seed's child events differ across the move in some world
}

// classifySeedMove fills c with the cases the move from base to d (a seed
// add of s >= 0, or a coupon move) reaches, given its re-simulated worlds.
func classifySeedMove(e *Estimator, before, after []blockSnap, base, d *Deployment, resim []uint64, s int32) (c seedScanCase) {
	g := e.Inst.G
	// children returns the child events of seed entry i in world bit w of
	// block snapshot sn, as (node, pos) pairs.
	children := func(sn *blockSnap, i, w int) [][2]int32 {
		var out [][2]int32
		for _, ent := range sn.ents {
			if int(ent.parent) == i && ent.mask>>uint(w)&1 != 0 {
				out = append(out, [2]int32{ent.node, ent.pos})
			}
		}
		return out
	}
	for b, m := range resim {
		c.mixed = c.mixed || m != 0 && m != e.blockWorlds(b)
		was, now := &before[b], &after[b]
		for ; m != 0; m &= m - 1 {
			w := bits.TrailingZeros64(m)
			for i, u := range base.Seeds() {
				j, _ := slices.BinarySearch(d.Seeds(), u)
				if !slices.Equal(children(was, i, w), children(now, j, w)) {
					c.changed = true
				}
				if s < 0 {
					continue
				}
				for _, ch := range children(was, i, w) {
					c.earlierOnAdded = c.earlierOnAdded || u < s && ch[0] == s
				}
				if u < s || base.K(u) == 0 {
					continue
				}
				_, stop := was.scanAt(was.ents[i], w)
				row, _ := g.OutEdges(u)
				is, _ := slices.BinarySearch(d.Seeds(), s)
				for _, ch := range children(now, is, w) {
					if at := slices.Index(row, ch[0]); at >= 0 && int32(at) < stop {
						c.laterPrefix = true
					}
				}
			}
		}
	}
	return c
}

// TestBlockSnapMerge checks merge and insertSeed on hand-built blocks:
// re-simulating some worlds rewrites the seed's scan state at those worlds
// in place, fuses their other events with the kept worlds' events of equal
// key and node, adds the rest by key and removes entries left without
// worlds, keeping every world's view — nodes, order and scan state; a new
// seed joins every world at its key, the offers' parents moving up by one.
func TestBlockSnapMerge(t *testing.T) {
	view := func(s *blockSnap) [][][3]int32 {
		out := make([][][3]int32, 64)
		for w := 0; w < 64; w++ {
			for _, e := range s.ents {
				if e.mask>>uint(w)&1 != 0 {
					red, st := s.scanAt(e, w)
					out[w] = append(out[w], [3]int32{e.node, red, st})
				}
			}
		}
		return out
	}
	// Users 0, 2 and 4 hold coupons; cnt and stop give each world's scan
	// state, shifted by off.
	d := NewDeployment(6)
	for _, v := range []int32{0, 2, 4} {
		d.SetK(v, 1)
	}
	d.AddSeed(0)
	scan := func(off int32) (cnt, stop [64]int32) {
		for w := range cnt {
			cnt[w], stop[w] = int32(w%3)+off, int32(100+w)+off
		}
		return cnt, stop
	}
	// build writes one simulation's queue as a snapshot.
	build := func(queue []blockEntry, off int32) *blockSnap {
		cnt, stop := scan(off)
		var s blockSnap
		for _, q := range queue {
			if d.K(q.node) > 0 {
				s.addRun(q.mask, &cnt, &stop)
			}
		}
		s.addEvents(queue, d)
		return &s
	}
	// Seed 0 in every world offers to 1 (position 0), 2 (position 1) and 3
	// (position 2); 2 offers to 4.
	all := ^uint64(0)
	s := build([]blockEntry{{node: 0, parent: -1, pos: 0, mask: all},
		{node: 1, parent: 0, pos: 0, mask: 0xf0f0}, {node: 2, parent: 0, pos: 1, mask: 0x8000_0000_0000_0101},
		{node: 3, parent: 0, pos: 2, mask: 0x0f}, {node: 4, parent: 2, pos: 0, mask: 0x0100}}, 0)
	// Worlds 0–3 and 8 re-simulate: seed 0 offers to 2 only there, and 2 to
	// 4 in world 0 and to 5 (position 1) in world 8.
	a := uint64(0x010f)
	queue := []blockEntry{{node: 0, parent: -1, pos: 0, mask: a},
		{node: 2, parent: 0, pos: 1, mask: a}, {node: 4, parent: 1, pos: 0, mask: 0x01},
		{node: 5, parent: 1, pos: 1, mask: 0x0100}}
	want, gv := view(s), view(build(queue, 1))
	for m := a; m != 0; m &= m - 1 {
		w := bits.TrailingZeros64(m)
		want[w] = gv[w]
	}
	g := build(queue[1:], 1)
	cnt, stop := scan(1)
	s.setRun(0, 0, a, &cnt, &stop)
	var sc mergeScratch
	s.merge(a, g, 1, &sc)
	if got := view(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge changed the per-world views:\n got %v\nwant %v", got, want)
	}
	var keys [][3]int32
	for _, e := range s.ents {
		keys = append(keys, [3]int32{e.node, e.parent, e.pos})
	}
	// Node 3 was only in dropped worlds; 2 and 4 fuse; 5 is new.
	if wantKeys := [][3]int32{{0, -1, 0}, {1, 0, 0}, {2, 0, 1}, {4, 2, 0}, {5, 2, 1}}; !slices.Equal(keys, wantKeys) {
		t.Fatalf("merged entries %v, want %v", keys, wantKeys)
	}
	if m := s.ents[2].mask; m != 0x8000_0000_0000_010f {
		t.Fatalf("fused entry of node 2 holds worlds %#x", m)
	}
	// A new seed 3 in every world lands at its key (-1, 3): after seed 0,
	// before every offer, whose parents move up by one.
	before := view(s)
	s.insertSeed(3, all, true, 7)
	if s.ents[1].node != 3 || s.ents[1].mask != all || s.ents[2].parent != 0 || s.ents[4].parent != 3 {
		t.Fatalf("seed inserted as %+v", s.ents)
	}
	for w := range before {
		before[w] = slices.Insert(before[w], 1, [3]int32{3, 0, 7})
	}
	if got := view(s); !reflect.DeepEqual(got, before) {
		t.Fatalf("seed insertion changed the per-world views:\n got %v\nwant %v", got, before)
	}
}
