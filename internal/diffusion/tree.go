package diffusion

import (
	"fmt"
)

// ExactTreeBenefit computes B(S, K) exactly when the deployment's reachable
// subgraph is a forest (every reachable node has at most one reachable
// parent and no cycles). On a tree, sibling redemption interacts only
// through the parent's coupon capacity — captured exactly by RedeemProbs —
// while descendants of distinct children are independent, so expected
// benefit is a simple top-down product of activation probabilities.
//
// This is the evaluator behind the paper's worked examples (Fig. 1, 3, 5)
// and the ground truth the Monte-Carlo estimator is validated against. An
// error is returned when the reachable subgraph is not a forest.
//
// The evaluation is valid under both triggering models: whenever the
// reachable subgraph is a forest, each reachable node has a single relevant
// in-edge, and the LT live-edge selection makes that edge live with exactly
// its weight — the same marginal as an independent IC coin — while sibling
// edges (distinct targets, hence distinct selections) stay independent, so
// IC and LT coincide on forests.
func ExactTreeBenefit(in *Instance, d *Deployment) (float64, error) {
	g := in.G
	n := g.NumNodes()
	// activationProb[v] > 0 ⇒ reached; parent tracked to detect re-entry.
	prob := make([]float64, n)
	seen := make([]bool, n)
	queue := make([]int32, 0, 64)
	for _, s := range d.Seeds() {
		if seen[s] {
			continue
		}
		seen[s] = true
		prob[s] = 1
		queue = append(queue, s)
	}
	total := 0.0
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		total += in.Benefit[v] * prob[v]
		k := d.K(v)
		if k == 0 {
			continue
		}
		targets, probs := g.OutEdges(v)
		if len(targets) == 0 {
			continue
		}
		rp := RedeemProbs(probs, k)
		for j, t := range targets {
			if rp[j] == 0 {
				continue
			}
			if seen[t] {
				return 0, fmt.Errorf("diffusion: reachable subgraph is not a forest (node %d reached twice)", t)
			}
			seen[t] = true
			prob[t] = prob[v] * rp[j]
			queue = append(queue, t)
		}
	}
	return total, nil
}
