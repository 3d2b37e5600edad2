// Package baselines implements the algorithms S3CA is evaluated against in
// Section VI of the paper:
//
//   - IM — greedy influence maximization (the Kempe et al. line of work),
//     with the seed-size sweep |V|/2^n, n = 0..10 of the experimental
//     setup; IM-U and IM-L denote the unlimited and limited real-world
//     coupon strategies bolted on;
//   - PM — greedy profit maximization (expected benefit minus seed cost,
//     following Tang et al.), same coupon strategies;
//   - IM-S — the paper's two-stage heuristic: IM seeds, then SCs spread
//     uniformly over the 1−P shortest paths connecting every seed pair;
//   - Exhaustive — the computation-intensive optimal search used to
//     validate the approximation ratio (Fig. 10) on small instances, plus
//     the worst-case bound (1 − e^{−1/(b0·c0)})·OPT.
//
// Since IM and PM know nothing about coupon allocation, the coupon strategy
// assigns K to every user the selected seeds can reach, mirroring how the
// real programs (Dropbox: k=32; Uber/Lyft: unlimited) hand out referral
// quotas, and the budget check charges the resulting closed-form Csc.
package baselines

import (
	"fmt"

	"s3crm/internal/diffusion"
)

// Strategy is a real-world coupon allocation policy.
type Strategy int

const (
	// Unlimited gives every user as many coupons as friends (Uber, Lyft,
	// Hotels.com): Ki = |N(vi)|.
	Unlimited Strategy = iota
	// Limited gives every user a fixed quota (Dropbox: 32; Airbnb,
	// Booking.com similar): Ki = min(k, |N(vi)|).
	Limited
)

// DefaultLimitedK is the Dropbox quota used throughout the paper's
// experiments (16 GB / 500 MB = 32 referrals).
const DefaultLimitedK = 32

func (s Strategy) String() string {
	switch s {
	case Unlimited:
		return "U"
	case Limited:
		return "L"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// K returns the allocation the strategy gives user v.
func (s Strategy) K(in *diffusion.Instance, v int32, limit int) int {
	deg := in.G.OutDegree(v)
	switch s {
	case Limited:
		if limit <= 0 {
			limit = DefaultLimitedK
		}
		if deg > limit {
			return limit
		}
		return deg
	default:
		return deg
	}
}

// Outcome is the result of running a baseline (the same accounting as
// core.Solution so the evaluation harness can compare directly).
type Outcome struct {
	Name           string
	Deployment     *diffusion.Deployment
	Benefit        float64
	SeedCost       float64
	SCCost         float64
	TotalCost      float64
	RedemptionRate float64
	Influence      float64 // expected number of activated users
	FarthestHop    float64
}

func measure(name string, in *diffusion.Instance, est *diffusion.Estimator, d *diffusion.Deployment) *Outcome {
	r := est.Evaluate(d)
	seedCost := in.SeedCostOf(d)
	scCost := in.SCCostOf(d)
	total := seedCost + scCost
	rate := 0.0
	if total > 0 {
		rate = r.Benefit / total
	}
	return &Outcome{
		Name:           name,
		Deployment:     d,
		Benefit:        r.Benefit,
		SeedCost:       seedCost,
		SCCost:         scCost,
		TotalCost:      total,
		RedemptionRate: rate,
		Influence:      r.Activated,
		FarthestHop:    r.FarthestHop,
	}
}

// reachable returns the set of users reachable from the seeds over
// out-edges — the users a seed-only algorithm's coupon strategy equips.
func reachable(in *diffusion.Instance, seeds []int32) []bool {
	g := in.G
	mark := make([]bool, g.NumNodes())
	var queue []int32
	for _, s := range seeds {
		if !mark[s] {
			mark[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		ts, _ := g.OutEdges(queue[head])
		for _, t := range ts {
			if !mark[t] {
				mark[t] = true
				queue = append(queue, t)
			}
		}
	}
	return mark
}

// applyStrategy builds the deployment for a seed set under a coupon
// strategy: users are equipped with their strategy quota in BFS order from
// the seeds until the investment budget runs out (the last user may get a
// truncated quota). The paper reports that "the total cost approximately
// equals Binv for all algorithms" and that IM-L's farthest hop is exactly
// 1.000, both of which imply exactly this seed-outward, budget-capped
// hand-out rather than equipping the entire reachable set.
func applyStrategy(in *diffusion.Instance, seeds []int32, s Strategy, limit int) *diffusion.Deployment {
	d := diffusion.NewDeployment(in.G.NumNodes())
	cost := 0.0
	for _, v := range seeds {
		d.AddSeed(v)
		cost += in.SeedCost[v]
	}
	for _, v := range bfsOrder(in, seeds) {
		k := s.K(in, v, limit)
		if k == 0 {
			continue
		}
		delta := in.NodeSCCost(v, k)
		if cost+delta > in.Budget {
			// Truncate the quota of the frontier user, then stop: the
			// budget is exhausted.
			for k > 0 && cost+in.NodeSCCost(v, k) > in.Budget {
				k--
			}
			if k > 0 {
				d.SetK(v, k)
			}
			break
		}
		d.SetK(v, k)
		cost += delta
	}
	return d
}

// bfsOrder returns the users reachable from the seeds in breadth-first
// order (seeds first, then their neighbours layer by layer; the adjacency's
// descending-probability order fixes intra-layer order deterministically).
func bfsOrder(in *diffusion.Instance, seeds []int32) []int32 {
	g := in.G
	mark := make([]bool, g.NumNodes())
	var queue []int32
	for _, s := range seeds {
		if !mark[s] {
			mark[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		ts, _ := g.OutEdges(queue[head])
		for _, t := range ts {
			if !mark[t] {
				mark[t] = true
				queue = append(queue, t)
			}
		}
	}
	return queue
}
