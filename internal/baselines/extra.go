package baselines

import (
	"context"
	"fmt"
	"sort"

	"s3crm/internal/diffusion"
	"s3crm/internal/ris"
	"s3crm/internal/rng"
)

// risRank ranks IM seed candidates by reverse-influence sampling instead of
// forward Monte-Carlo greedy. Unaffordable or capped-out candidates are
// filtered the same way greedyRank's candidate pool is.
func risRank(in *diffusion.Instance, cfg Config, maxSeeds int) ([]int32, error) {
	sketches := cfg.RISSketches
	if sketches <= 0 {
		sketches = 200 * in.G.NumNodes()
		if sketches > 200000 {
			sketches = 200000
		}
	}
	s, err := cfg.sketches(in, sketches, cfg.Seed^0x815)
	if err != nil {
		return nil, fmt.Errorf("baselines: RIS ranking: %w", err)
	}
	allowed := make(map[int32]bool)
	for _, v := range seedCandidates(in, cfg) {
		allowed[v] = true
	}
	var ranked []int32
	budget := 0.0
	for _, v := range s.TopSeeds(maxSeeds + len(allowed)) {
		if !allowed[v] {
			continue
		}
		ranked = append(ranked, v)
		budget += in.SeedCost[v]
		if len(ranked) >= maxSeeds || budget > in.Budget {
			break
		}
	}
	return ranked, nil
}

// sketches draws count RR sets under the configured triggering model
// through the live-edge substrate: an RR set crosses an edge exactly when
// the forward engines would see it live in the set's world — reading
// materialized model state within the memory budget, hashing past it — so
// the sketches and the forward simulators share one liveness source.
func (c Config) sketches(in *diffusion.Instance, count int, seed uint64) (*ris.Sketches, error) {
	coin := rng.NewCoin(seed)
	var le *diffusion.LiveEdges
	generate := ris.GenerateLive
	if c.Model == diffusion.ModelLT {
		le, generate = diffusion.NewLTLiveEdges(in.G, count, coin, c.LiveEdgeMemBudget), ris.GenerateLiveLT
	} else {
		le = diffusion.NewLiveEdges(in.G, count, coin, c.LiveEdgeMemBudget)
	}
	return generate(in.G, count, rng.New(seed), func(world, edge uint64, _ float64) bool {
		return le.Live(world, edge)
	})
}

// sketchPrune ranks the affordable candidates by estimated IC influence —
// the RR-set cover count of reverse-influence sampling — and keeps the top
// CandidateCap. This is the EngineSSR candidate-pruning backend: on
// skewed-probability graphs a raw degree cap keeps hubs with weak edges,
// while the sketch cap keeps the users that actually spread.
func sketchPrune(in *diffusion.Instance, cfg Config, affordable []int32) ([]int32, error) {
	count := cfg.RISSketches
	if count <= 0 {
		count = 200 * in.G.NumNodes()
		if count > 200000 {
			count = 200000
		}
	}
	s, err := cfg.sketches(in, count, cfg.Seed^0x515)
	if err != nil {
		return nil, fmt.Errorf("baselines: sketch pruning: %w", err)
	}
	ranked := append([]int32(nil), affordable...)
	sort.Slice(ranked, func(a, b int) bool {
		ca, cb := s.CoverCount(ranked[a]), s.CoverCount(ranked[b])
		if ca != cb {
			return ca > cb
		}
		return ranked[a] < ranked[b]
	})
	return ranked[:cfg.CandidateCap], nil
}

// Random selects uniformly random affordable seeds under the configured
// coupon strategy — the sanity-check baseline below every published curve.
func Random(ctx context.Context, in *diffusion.Instance, cfg Config) (*Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baselines: RAND aborted: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	est, err := cfg.engine(in)
	if err != nil {
		return nil, err
	}
	pool := seedCandidates(in, cfg)
	if len(pool) == 0 {
		return emptyOutcome("RAND", in, est), nil
	}
	src := rng.New(cfg.Seed ^ 0x7a2d)
	src.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	seeds := budgetFeasiblePrefix(in, cfg, pool)
	if len(seeds) == 0 {
		return emptyOutcome("RAND", in, est), nil
	}
	d := applyStrategy(in, seeds, cfg.Strategy, cfg.LimitedK)
	o := measure("RAND", in, est, d)
	return o, nil
}

// HighDegree seeds the highest-out-degree affordable users — the classic
// degree heuristic — under the configured coupon strategy, sweeping sizes
// like IM and keeping the best-influence feasible configuration.
func HighDegree(ctx context.Context, in *diffusion.Instance, cfg Config) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	est, err := cfg.engine(in)
	if err != nil {
		return nil, err
	}
	ranked := seedCandidates(in, cfg)
	sort.Slice(ranked, func(a, b int) bool {
		da, db := in.G.OutDegree(ranked[a]), in.G.OutDegree(ranked[b])
		if da != db {
			return da > db
		}
		return ranked[a] < ranked[b]
	})
	best := selectBySweep(ctx, in, est, cfg, ranked, func(o *Outcome) float64 { return o.Influence })
	if best == nil {
		return emptyOutcome("DEG", in, est), nil
	}
	best.Name = "DEG"
	return best, nil
}
