package diffusion

import (
	"fmt"
	"math/bits"
	"sort"

	"s3crm/internal/bitset"
	"s3crm/internal/graph"
)

// This file is the world-cache side of dynamic graphs: an edge batch applied
// through graph.WithEdges moves a warm WorldCache onto the extended view by
// re-simulating only the worlds the appended edges can actually perturb,
// leaving every other world's snapshot untouched and provably identical to a
// cold rebase over the new graph.

// ChurnTargets returns the distinct target nodes of batch in ascending
// order — the nodes whose in-edge distribution the batch changes, which is
// exactly the row set LiveEdges.Extend must invalidate under LT.
func ChurnTargets(batch []graph.Edge) []int32 {
	if len(batch) == 0 {
		return nil
	}
	ts := make([]int32, 0, len(batch))
	for _, e := range batch {
		ts = append(ts, e.To)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := ts[:1]
	for _, t := range ts[1:] {
		if t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// churnSources returns the distinct source nodes of batch in ascending
// order — the nodes whose offer-scan row the batch reorders.
func churnSources(batch []graph.Edge) []int32 {
	if len(batch) == 0 {
		return nil
	}
	ss := make([]int32, 0, len(batch))
	for _, e := range batch {
		ss = append(ss, e.From)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	out := ss[:1]
	for _, s := range ss[1:] {
		if s != out[len(out)-1] {
			out = append(out, s)
		}
	}
	return out
}

// WithGraph returns an estimator over inst2 — whose graph must extend the
// receiver's via graph.WithEdges — sharing the receiver's possible worlds:
// same sample count and worker count, with the liveness substrate (and its
// coin) carried forward by LiveEdges.Extend (churnTargets are the batch's
// distinct targets, see ChurnTargets; ignored under IC). The receiver stays
// fully usable over the old view — in-flight evaluations are unaffected.
func (e *Estimator) WithGraph(inst2 *Instance, churnTargets []int32) *Estimator {
	return &Estimator{
		Inst:    inst2,
		Samples: e.Samples,
		Workers: e.Workers,
		Live:    e.Live.Extend(inst2.G, churnTargets),
	}
}

// PatchEdges moves the cache onto e2, an estimator produced by
// Estimator.WithGraph on this cache's estimator after exactly batch was
// applied through graph.WithEdges (e2's graph holds the old edges plus
// batch, under stable coin keys). The base deployment is unchanged; only
// worlds the appended edges can perturb re-simulate:
//
//   - Source side (both models): an appended edge is only ever examined by
//     its source's offer scan, so a world is untouched when the source is
//     inactive, allocates no coupons, or its recorded scan provably stopped
//     — for lack of coupons — inside the row prefix that precedes every
//     appended edge (the merged row's prefix of old edges is the old row's
//     prefix verbatim, so the scan replays identically and the recorded
//     resume position stays valid in the new row's coordinates). Everywhere
//     else the scan could probe an appended edge — redeeming on it when
//     live, or probing it dead, which still moves the recorded stop — so the
//     world re-simulates, from hop 0 (the seeds' recorded scans are not
//     reused: a reused seed scan would have to count a row that gained
//     edges, and under LT a row holding a churn target, as changed).
//   - Target side (LT only): an appended edge changes its target's in-edge
//     distribution, so the target's per-world selection is re-drawn; any
//     world whose old and new choices differ re-simulates (the liveness of
//     every in-edge of that target may have flipped there). Worlds with
//     identical choices keep identical liveness for every old edge, and the
//     appended edges are dead there by construction.
//
// Both criteria over-approximate safely: re-simulation is deterministic, so
// an extra world re-derives its identical snapshot. After the move every
// query — Rebase, DeltaBenefits, EvaluateDelta — answers against the
// extended graph, bit-identical to a cache cold-rebased over it.
//
// Node growth (batch endpoints past the old node count) re-keys the
// per-node layouts, so the cache pads the base deployment and falls back to
// one full rebase. A cache that was never rebased just adopts e2.
func (wc *WorldCache) PatchEdges(e2 *Estimator, batch []graph.Edge) Result {
	old := wc.Est
	gOld, gNew := old.Inst.G, e2.Inst.G
	if e2.Samples != old.Samples {
		panic(fmt.Sprintf("diffusion: PatchEdges sample count %d does not match the cache's %d", e2.Samples, old.Samples))
	}
	if gNew.NumEdges() != gOld.NumEdges()+len(batch) {
		panic(fmt.Sprintf("diffusion: PatchEdges batch of %d edges does not match the graph delta (%d -> %d edges)",
			len(batch), gOld.NumEdges(), gNew.NumEdges()))
	}
	if wc.base == nil {
		wc.Est = e2
		return Result{}
	}
	if gNew.NumNodes() != gOld.NumNodes() {
		wc.base.Pad(gNew.NumNodes())
		wc.Est = e2
		return wc.rebaseFull(wc.base)
	}
	e2.evals.Add(1)
	samples := old.Samples
	affected := wc.affectedScratch()
	oldM := int32(gOld.NumEdges())
	wc.refreshIndex()
	for _, u := range churnSources(batch) {
		k := wc.base.K(u)
		if k == 0 {
			continue // u's scan never runs: its row order is inert
		}
		// prefixLen: appended keys are >= oldM, old keys < oldM, and the
		// merged row sorts old edges in their old relative order, so the run
		// of old keys at the front is the old row's prefix verbatim.
		_, _, keys, _ := gNew.OutRow(u)
		prefixLen := int32(0)
		for int(prefixLen) < len(keys) && keys[prefixLen] < oldM {
			prefixLen++
		}
		for _, r := range wc.activeEntries(u) {
			s := &wc.snaps[r.blk]
			ent := s.ents[r.idx]
			for m := ent.mask &^ affected[r.blk]; m != 0; m &= m - 1 {
				w := bits.TrailingZeros64(m)
				if red, stop := s.scanAt(ent, w); int(red) == k && stop <= prefixLen {
					continue // capacity-stopped inside the unchanged prefix
				}
				affected[r.blk] |= 1 << uint(w)
			}
		}
	}
	if old.Live.lt {
		oldLive, newLive := old.Live, e2.Live
		for _, t := range ChurnTargets(batch) {
			for w := 0; w < samples; w++ {
				b, bit := w/bitset.WordBits, uint64(1)<<uint(w&bitset.WordMask)
				if affected[b]&bit != 0 {
					continue
				}
				if oldLive.chosenEdge(uint64(w), t) != newLive.chosenEdge(uint64(w), t) {
					affected[b] |= bit
				}
			}
		}
	}
	wc.Est = e2
	e2.sweepMasks(wc.base, affected, wc.outs, wc.snaps, nil)
	wc.inv.markStale(affected)
	wc.baseResult, wc.baseSumB = foldWorlds(wc.outs, samples)
	return wc.baseResult
}
