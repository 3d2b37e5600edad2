package core

import (
	"runtime"
	"sort"

	"s3crm/internal/diffusion"
	"s3crm/internal/par"
)

// pivotEntry is one pivot source: a user evaluated standalone, with the
// coupon count phase 1 assigned (0 or 1) and the resulting standalone
// redemption rate (the queue priority).
type pivotEntry struct {
	node int32
	k    int
	rate float64
}

// buildPivotQueue runs phase 1 of S3CA (Alg. 1 lines 1–8).
//
// The pseudocode iteratively selects the user with the highest positive
// marginal redemption: first as a seed (MR = b(vi)/cseed(vi)), then — once
// enqueued — as a seed holding one SC (MR = ΔB/ΔCsc of the first coupon).
// Because each user is evaluated standalone (Ŝ and Î stay empty during this
// phase), every MR is a static closed-form quantity and the iterative
// selection is equivalent to the direct construction below: a user joins
// the queue when its seed MR is positive and affordable, and additionally
// gets one coupon when the coupon's MR is positive and still affordable
// (DESIGN.md fidelity note 5). A one-coupon single-seed spread has depth
// one, so both quantities need no Monte Carlo.
//
// Users are independent here, so the scan shards across workers by
// contiguous node ranges (each range yields entries in node order;
// concatenating ranges reproduces the sequential scan exactly) — on a
// million-node graph this is the one phase whose cost is O(|V| + |E|)
// regardless of the budget.
func (s *solver) buildPivotQueue() []pivotEntry {
	in := s.inst
	n := in.G.NumNodes()
	scan := func(lo, hi int32) []pivotEntry {
		entries := make([]pivotEntry, 0, 64)
		var rp []float64 // per-scan redeem-probability scratch
		for v := lo; v < hi; v++ {
			seedCost := in.SeedCost[v]
			if seedCost > in.Budget {
				continue // never affordable as a seed
			}
			seedMR := safeRatio(in.Benefit[v], seedCost)
			if seedMR <= 0 {
				continue
			}
			// One capacity DP yields both one-coupon quantities,
			// NodeSCCost(v, 1) and StandaloneBenefit(v, 1), summed in the
			// same order as those functions so every rate is bit-identical.
			targets, probs := in.G.OutEdges(v)
			if cap(rp) < len(probs) {
				rp = make([]float64, len(probs))
			}
			rp = rp[:len(probs)]
			diffusion.RedeemProbsInto(rp, probs, 1)
			couponCost, benefit1 := 0.0, in.Benefit[v]
			for j, t := range targets {
				couponCost += in.SCCost[t] * rp[j]
				benefit1 += in.Benefit[t] * rp[j]
			}
			k, cost, benefit := 0, 0.0, in.Benefit[v]
			if couponCost > 0 && seedCost+couponCost <= in.Budget && safeRatio(benefit1-in.Benefit[v], couponCost) > 0 {
				k, cost, benefit = 1, couponCost, benefit1
			}
			entries = append(entries, pivotEntry{
				node: v,
				k:    k,
				rate: safeRatio(benefit, seedCost+cost),
			})
		}
		return entries
	}

	// Options.Workers governs solver parallelism everywhere (0 means
	// sequential — callers pinning CPU rely on that), so the scan fans out
	// only when workers were requested, capped by the machine.
	workers := min(s.opts.Workers, runtime.GOMAXPROCS(0))
	if n < 1<<14 {
		workers = 1
	}
	parts := make([][]pivotEntry, max(workers, 1))
	par.Ranges(n, workers, func(w, lo, hi int) { parts[w] = scan(int32(lo), int32(hi)) })
	entries := parts[0]
	for _, part := range parts[1:] {
		entries = append(entries, part...)
	}
	// Touch sequentially: the scan goroutines must not race on the solver's
	// explored marks, and every enqueued user counts as examined.
	for _, e := range entries {
		s.touch(e.node)
	}
	// Priority queue ordered by standalone redemption rate, descending;
	// ties broken by node id for determinism.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].rate != entries[j].rate {
			return entries[i].rate > entries[j].rate
		}
		return entries[i].node < entries[j].node
	})
	return entries
}
