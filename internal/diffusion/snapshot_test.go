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

// checkSnapshotLayout asserts the block snapshot's own bookkeeping: no entry
// names a world past the sample count, live counts the set mask bits, the
// cleared bits never outnumber the live ones (compactIfSparse's bound), every
// holder run has one slot per world of its creation mask, and the inverted
// index lists exactly the live entries of each node in ascending block order.
func checkSnapshotLayout(t *testing.T, wc *WorldCache, step string) {
	t.Helper()
	samples := wc.Est.Samples
	var refs []entryRef
	for b := range wc.snaps {
		s := &wc.snaps[b]
		valid := ^uint64(0)
		if rest := samples - b*64; rest < 64 {
			valid = 1<<uint(rest) - 1
		}
		live, slots := 0, 0
		for i, e := range s.ents {
			if e.mask&^valid != 0 || e.mask&^e.orig != 0 {
				t.Fatalf("%s block %d entry %d: mask %#x outside the block's worlds or its creation mask %#x", step, b, i, e.mask, e.orig)
			}
			live += bits.OnesCount64(e.mask)
			if e.scan != noScan {
				if int(e.scan) != slots {
					t.Fatalf("%s block %d entry %d: run at %d, want %d", step, b, i, e.scan, slots)
				}
				slots += bits.OnesCount64(e.orig)
			}
			if e.mask != 0 {
				refs = append(refs, entryRef{blk: int32(b), idx: int32(i)})
			}
		}
		if live != s.live || len(s.red) != slots || len(s.stop) != slots {
			t.Fatalf("%s block %d: live %d (counted %d), runs %d/%d slots (want %d)", step, b, s.live, live, len(s.red), len(s.stop), slots)
		}
		if s.dead > s.live {
			t.Fatalf("%s block %d: %d cleared bits outnumber %d live ones: not compacted", step, b, s.dead, s.live)
		}
	}
	wc.buildInverted()
	var got []entryRef
	for v := int32(0); v < int32(wc.Est.Inst.G.NumNodes()); v++ {
		es := wc.activeEntries(v)
		for i, r := range es {
			if wc.snaps[r.blk].ents[r.idx].node != v || i > 0 && es[i-1].blk > r.blk {
				t.Fatalf("%s: inverted index of node %d lists %v", step, v, es)
			}
		}
		got = append(got, es...)
	}
	key := func(r entryRef) int64 { return int64(r.blk)<<32 | int64(r.idx) }
	slices.SortFunc(got, func(a, b entryRef) int { return cmp.Compare(key(a), key(b)) })
	if !slices.Equal(got, refs) {
		t.Fatalf("%s: inverted index holds %d entries, the snapshot %d live ones", step, len(got), len(refs))
	}
}

// cloneSnaps deep-copies the block snapshots.
func cloneSnaps(snaps []blockSnap) []blockSnap {
	out := make([]blockSnap, len(snaps))
	for b, s := range snaps {
		out[b] = blockSnap{ents: slices.Clone(s.ents), red: slices.Clone(s.red), stop: slices.Clone(s.stop), live: s.live, dead: s.dead}
	}
	return out
}

// sameSnaps reports whether two block-snapshot lists hold the same entries,
// runs and counts.
func sameSnaps(a, b []blockSnap) bool {
	return slices.EqualFunc(a, b, func(x, y blockSnap) bool {
		return slices.Equal(x.ents, y.ents) && slices.Equal(x.red, y.red) && slices.Equal(x.stop, y.stop) &&
			x.live == y.live && x.dead == y.dead
	})
}

// TestWorldCacheBlockSnapshotProperty drives world caches through long
// random chains of partial re-simulation — coupon advances, churn patches,
// sparse delta evaluations and delta sweeps — under IC and LT, at sample
// counts with a ragged tail block, and checks after every step that:
//   - each world's expanded view of the block-order snapshot, and its
//     metrics, equal simWorld's record for the current base (checkSnapshots);
//   - the snapshot's bookkeeping and inverted index hold (checkSnapshotLayout);
//   - Rebase equals the scalar fold, EvaluateDelta the scalar delta fold
//     while leaving the snapshot untouched, and DeltaBenefits a cold cache
//     rebased on the same deployment bit for bit.
//
// The chains clear enough bits to fragment blocks and to push them past the
// compaction bound, which checkSnapshotLayout enforces; the test fails if no
// block ever accumulated cleared bits or had them cleared by a rebuild.
func TestWorldCacheBlockSnapshotProperty(t *testing.T) {
	for _, model := range Models() {
		for _, samples := range []int{70, 170} {
			t.Run(fmt.Sprintf("%s/samples=%d", model, samples), func(t *testing.T) {
				snapshotChain(t, model, samples, int64(len(model)*1000+samples))
			})
		}
	}
}

func snapshotChain(t *testing.T, model string, samples int, seed int64) {
	r := rand.New(rand.NewSource(seed))
	const n = 36
	inst, stream := snapshotProblem(t, r, n, 130, 60, model)
	newEst := func(inst *Instance) *Estimator {
		ev, err := NewEngineOpts(inst, EngineOptions{Engine: EngineMC, Model: model, Samples: samples, Seed: 9})
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
	fragmented, rebuilt := false, false
	for step := 1; step <= 120; step++ {
		before := cloneSnaps(wc.snaps)
		var what string
		switch op := r.Intn(10); {
		case op < 5:
			what = "advance"
			couponMove(d)
			checkCacheStep(t, wc, wc.Rebase(d), nil, step)
		case op < 7:
			what = "EvaluateDelta"
			trial := d.Clone()
			changed := couponMove(trial)
			if got, want := wc.EvaluateDelta(trial, changed), scalarDelta(wc, trial); got != want {
				t.Fatalf("step %d: EvaluateDelta %v != scalar delta fold %v", step, got, want)
			}
			if !sameSnaps(wc.snaps, before) {
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
		default:
			what = "DeltaBenefits"
			cands := couponCandidates(wc.Est.Inst, d)
			cold := &WorldCache{Est: newEst(wc.Est.Inst)}
			cold.Rebase(d)
			got, want := wc.DeltaBenefits(cands), cold.DeltaBenefits(cands)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: DeltaBenefits over the patched snapshot %v != cold %v", step, got, want)
			}
		}
		checkSnapshotLayout(t, wc, fmt.Sprintf("step %d (%s)", step, what))
		for b := range wc.snaps {
			s, was := &wc.snaps[b], &before[b]
			fragmented = fragmented || s.dead > 0
			// Only a compaction, or a re-simulation of every live world of
			// the block, clears a nonzero dead count of a live block.
			rebuilt = rebuilt || was.dead > 0 && s.dead == 0 && s.live > 0
		}
	}
	if !fragmented || !rebuilt {
		t.Fatalf("chain never fragmented (%v) or never rebuilt (%v) a block: lengthen it", fragmented, rebuilt)
	}
}

// TestBlockSnapCompaction checks compactIfSparse on a hand-built block:
// below the bound it leaves the snapshot alone; past it, dead entries go,
// every holder run keeps exactly its live worlds' slots, and each world's
// view — nodes, order and scan state — is unchanged.
func TestBlockSnapCompaction(t *testing.T) {
	var cnt, stop [64]int32
	for w := range cnt {
		cnt[w], stop[w] = int32(w%3), int32(100+w)
	}
	// Holders 0 (a seed, every world), 2 (scattered worlds) and 4; users 1
	// and 3 hold no coupons.
	d := NewDeployment(5)
	for _, v := range []int32{0, 2, 4} {
		d.SetK(v, 1)
	}
	queue := []blockEntry{{node: 0, mask: ^uint64(0)}, {node: 1, mask: 0xf0f0},
		{node: 2, mask: 0x8000_0000_0000_0101}, {node: 3, mask: 0x0f}, {node: 4, mask: 0xff00}}
	var s blockSnap
	for _, q := range queue {
		if d.K(q.node) > 0 {
			s.addRun(q.mask, &cnt, &stop)
		}
	}
	s.addEvents(queue, d, 0)
	view := func() [][][3]int32 {
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
	s.drop(0x0f) // kills node 3's entry: 9 bits cleared, 78 live
	s.compactIfSparse()
	if len(s.ents) != 5 || s.dead != 9 || s.live != 78 {
		t.Fatalf("compacted below the bound: %d entries, %d dead, %d live", len(s.ents), s.dead, s.live)
	}
	s.drop(^uint64(0) &^ 0x8000_0000_0000_0100) // leaves worlds 8 and 63: 82 dead, 5 live
	want := view()
	s.compactIfSparse()
	if s.dead != 0 || s.live != 5 {
		t.Fatalf("after compaction: %d dead, %d live, want 0 and 5", s.dead, s.live)
	}
	if got := view(); !reflect.DeepEqual(got, want) {
		t.Fatalf("compaction changed the per-world views:\n got %v\nwant %v", got, want)
	}
	var nodes []int32
	for _, e := range s.ents {
		nodes = append(nodes, e.node)
	}
	if !slices.Equal(nodes, []int32{0, 2, 4}) {
		t.Fatalf("compacted entries %+v, want nodes 0, 2 and 4", s.ents)
	}
	if len(s.red) != 5 || len(s.stop) != 5 {
		t.Fatalf("compacted runs hold %d/%d slots, want one per live holder world (5)", len(s.red), len(s.stop))
	}
}
