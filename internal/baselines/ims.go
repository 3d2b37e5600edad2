package baselines

import (
	"context"
	"fmt"
	"math"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// IMS runs the paper's two-stage IM-S heuristic. Stage one selects seeds
// with the existing IM algorithm. Stage two connects every two seeds with
// shortest paths under edge weight 1 − P(e(i,j)) ("an edge with a higher
// influence probability having a smaller weight") and uniformly distributes
// SCs to the users on those paths so that the overall seed plus SC cost
// satisfies the investment budget. Cancelling ctx aborts between steps with
// ctx.Err().
func IMS(ctx context.Context, in *diffusion.Instance, cfg Config) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(in)
	est, err := cfg.engine(in)
	if err != nil {
		return nil, err
	}

	// Stage 1: IM seeds under the configured strategy, but only the seed
	// set is retained.
	im, err := IM(ctx, in, cfg)
	if err != nil {
		return nil, err
	}
	seeds := append([]int32(nil), im.Deployment.Seeds()...)
	if len(seeds) == 0 {
		return emptyOutcome("IM-S", in, est), nil
	}

	// Stage 2: gather the union of users on pairwise shortest paths.
	onPath := pathUnion(in.G, seeds)

	// Uniform SC distribution: round-robin one coupon per path user per
	// round (capped by out-degree) while the closed-form cost fits the
	// budget.
	d := diffusion.NewDeployment(in.G.NumNodes())
	seedCost := 0.0
	for _, s := range seeds {
		d.AddSeed(s)
		seedCost += in.SeedCost[s]
	}
	if seedCost > in.Budget {
		// Drop the cheapest-influence (last-ranked) seeds until feasible.
		for len(seeds) > 0 && seedCost > in.Budget {
			last := seeds[len(seeds)-1]
			seeds = seeds[:len(seeds)-1]
			d.RemoveSeed(last)
			seedCost -= in.SeedCost[last]
		}
		if len(seeds) == 0 {
			return emptyOutcome("IM-S", in, est), nil
		}
		onPath = pathUnion(in.G, seeds)
	}
	scCost := 0.0
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("baselines: IM-S aborted: %w", err)
		}
		progressed := false
		for _, v := range onPath {
			if d.K(v) >= in.G.OutDegree(v) || d.K(v) >= round {
				continue
			}
			delta := in.NodeSCCost(v, d.K(v)+1) - in.NodeSCCost(v, d.K(v))
			if seedCost+scCost+delta > in.Budget {
				continue
			}
			d.AddK(v, 1)
			scCost += delta
			progressed = true
		}
		if !progressed {
			break
		}
	}
	return measure("IM-S", in, est, d), nil
}

// pathUnion returns the distinct users lying on 1−P shortest paths between
// every ordered seed pair, in deterministic order.
func pathUnion(g *graph.Graph, seeds []int32) []int32 {
	seen := make(map[int32]bool)
	var out []int32
	add := func(v int32) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	for _, s := range seeds {
		add(s)
	}
	for _, s := range seeds {
		dist, parent := g.ShortestPaths(s)
		for _, t := range seeds {
			if t == s || math.IsInf(dist[t], 1) {
				continue
			}
			for _, v := range graph.PathTo(parent, t) {
				add(v)
			}
		}
	}
	return out
}
