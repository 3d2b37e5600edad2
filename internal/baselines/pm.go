package baselines

import (
	"context"
	"fmt"

	"s3crm/internal/diffusion"
)

// PM runs greedy profit maximization with the configured coupon strategy:
// seeds are added by marginal profit — expected benefit minus seed cost, as
// in the paper's Fig. 1(b) worked example — while profit keeps improving
// and the deployment stays within budget (the PM-U / PM-L baselines).
// Cancelling ctx aborts between greedy steps with ctx.Err().
func PM(ctx context.Context, in *diffusion.Instance, cfg Config) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg, est, err := cfg.setup(in)
	if err != nil {
		return nil, err
	}

	profit := func(seeds []int32) float64 {
		if len(seeds) == 0 {
			return 0
		}
		d := applyStrategy(in, seeds, cfg.Strategy, cfg.LimitedK)
		seedCost := 0.0
		for _, s := range seeds {
			seedCost += in.SeedCost[s]
		}
		return est.Evaluate(d).Benefit - seedCost
	}

	ranked := greedyRank(ctx, in, cfg, in.G.NumNodes(), profit)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baselines: PM aborted: %w", err)
	}
	seeds := budgetFeasiblePrefix(in, cfg, ranked)
	if len(seeds) == 0 {
		// No seed has positive profit (common under the paper's κ=10 seed
		// costs). PM still invests: it settles for the affordable seed
		// with the least-negative profit, matching the paper's PM curves,
		// which always deploy a campaign.
		best := int32(-1)
		bestProfit := 0.0
		for i, v := range seedCandidates(in, cfg) {
			if i&15 == 0 && ctx.Err() != nil {
				return nil, fmt.Errorf("baselines: PM aborted: %w", ctx.Err())
			}
			p := profit([]int32{v})
			if best == -1 || p > bestProfit {
				best = v
				bestProfit = p
			}
		}
		if best == -1 {
			return emptyOutcome("PM-"+cfg.Strategy.String(), in, est), nil
		}
		seeds = []int32{best}
	}
	d := applyStrategy(in, seeds, cfg.Strategy, cfg.LimitedK)
	o := measure("PM-"+cfg.Strategy.String(), in, est, d)
	return o, nil
}

// Profit returns the paper's profit measure for an outcome: expected
// benefit minus the seed cost (coupon cost excluded, as in Fig. 1(b)).
func (o *Outcome) Profit() float64 { return o.Benefit - o.SeedCost }
