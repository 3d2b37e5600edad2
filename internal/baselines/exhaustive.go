package baselines

import (
	"context"
	"fmt"
	"math"

	"s3crm/internal/diffusion"
)

// ExhaustiveConfig bounds the optimal search. The search space is
// exponential — (MaxK+1)^nodes per seed set — so it is only usable on the
// small synthetic instances of the Fig. 10 validation (the paper uses
// computation-intensive exhaustive search on 150-node PPGG graphs; we keep
// full enumeration tractable by bounding nodes and coupons, see DESIGN.md
// Substitutions).
type ExhaustiveConfig struct {
	MaxSeeds int // maximum seed-set size (default 2)
	MaxK     int // maximum coupons per user (default 2)
	Samples  int // Monte-Carlo samples per evaluation (default 2000)
	Seed     uint64
	// MaxNodes aborts with an error when the instance exceeds this many
	// users (default 24) — a tripwire against accidentally exponential
	// runs.
	MaxNodes int
}

func (c ExhaustiveConfig) withDefaults() ExhaustiveConfig {
	if c.MaxSeeds <= 0 {
		c.MaxSeeds = 2
	}
	if c.MaxK <= 0 {
		c.MaxK = 2
	}
	if c.Samples <= 0 {
		c.Samples = 2000
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 24
	}
	return c
}

// Exhaustive enumerates every deployment within the configured bounds and
// returns the one with the maximum redemption rate under the
// independent-cascade model — the OPT reference of the Fig. 10
// approximation validation. Cancelling ctx aborts the enumeration with
// ctx.Err().
func Exhaustive(ctx context.Context, in *diffusion.Instance, cfg ExhaustiveConfig) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	n := in.G.NumNodes()
	if n > cfg.MaxNodes {
		return nil, fmt.Errorf("baselines: exhaustive search on %d users exceeds the %d-user bound", n, cfg.MaxNodes)
	}
	est := diffusion.NewEstimator(in, cfg.Samples, cfg.Seed)

	var bestOutcome *Outcome
	bestRate := -1.0
	stopped := false // latched on cancellation; prunes the whole search
	consider := func(d *diffusion.Deployment) {
		if stopped {
			return
		}
		if ctx.Err() != nil { // cheap next to the full MC evaluation below
			stopped = true
			return
		}
		if in.TotalCost(d) > in.Budget {
			return
		}
		o := measure("OPT", in, est, d)
		if o.RedemptionRate > bestRate {
			bestRate = o.RedemptionRate
			bestOutcome = o
		}
	}

	// Affordable seeds only.
	var seedPool []int32
	for v := int32(0); v < int32(n); v++ {
		if in.SeedCost[v] <= in.Budget {
			seedPool = append(seedPool, v)
		}
	}

	// Enumerate seed subsets up to MaxSeeds.
	var seeds []int32
	var chooseSeeds func(start int)
	chooseSeeds = func(start int) {
		if stopped {
			return
		}
		if len(seeds) > 0 {
			enumerateAllocations(in, cfg, seeds, consider, func() bool { return stopped })
		}
		if len(seeds) >= cfg.MaxSeeds {
			return
		}
		for i := start; i < len(seedPool) && !stopped; i++ {
			cost := in.SeedCost[seedPool[i]]
			total := cost
			for _, s := range seeds {
				total += in.SeedCost[s]
			}
			if total > in.Budget {
				continue
			}
			seeds = append(seeds, seedPool[i])
			chooseSeeds(i + 1)
			seeds = seeds[:len(seeds)-1]
		}
	}
	chooseSeeds(0)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baselines: exhaustive search aborted: %w", err)
	}

	if bestOutcome == nil {
		bestOutcome = emptyOutcome("OPT", in, est)
	}
	return bestOutcome, nil
}

// enumerateAllocations walks every K assignment over users reachable from
// the seeds, coupons bounded by min(MaxK, out-degree), pruning on the
// closed-form cost. stop short-circuits the walk once the caller has
// observed a cancellation.
func enumerateAllocations(in *diffusion.Instance, cfg ExhaustiveConfig,
	seeds []int32, consider func(*diffusion.Deployment), stop func() bool) {

	mark := reachable(in, seeds)
	var nodes []int32
	for v := int32(0); v < int32(in.G.NumNodes()); v++ {
		if mark[v] && in.G.OutDegree(v) > 0 {
			nodes = append(nodes, v)
		}
	}
	d := diffusion.NewDeployment(in.G.NumNodes())
	seedCost := 0.0
	for _, s := range seeds {
		d.AddSeed(s)
		seedCost += in.SeedCost[s]
	}
	var walk func(i int, cost float64)
	walk = func(i int, cost float64) {
		if cost > in.Budget || stop() {
			return
		}
		if i == len(nodes) {
			consider(d.Clone())
			return
		}
		v := nodes[i]
		maxK := cfg.MaxK
		if deg := in.G.OutDegree(v); deg < maxK {
			maxK = deg
		}
		for k := 0; k <= maxK; k++ {
			d.SetK(v, k)
			walk(i+1, cost+in.NodeSCCost(v, k))
		}
		d.SetK(v, 0)
	}
	walk(0, seedCost)
}

// WorstCaseBound returns the paper's guarantee (1 − e^{−1/(b0·c0)}) · opt,
// the floor any S3CA run must clear in the Fig. 10 validation. When either
// ratio degenerates (zero minimum benefit or cost) the bound is 0.
func WorstCaseBound(in *diffusion.Instance, optRate float64) float64 {
	b0 := in.BenefitRatio()
	c0 := in.CostRatio()
	if b0 <= 0 || c0 <= 0 {
		return 0
	}
	return (1 - math.Exp(-1/(b0*c0))) * optRate
}
