package baselines

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"s3crm/internal/diffusion"
	"s3crm/internal/progress"
)

// Config parameterizes the baseline runs.
type Config struct {
	// Evaluator, when non-nil, is a pre-built estimator used instead of
	// constructing one from Model/Samples/Seed — the serving layer's
	// injection point and the seam tests use to run a baseline over a
	// parity-oracle engine (see core.Options.Evaluator). The baselines
	// evaluate whole deployments only, so an estimator serves every
	// engine. Engine and Model are validated before it is used, and sketch
	// pruning still reads them.
	Evaluator *diffusion.Estimator
	// Progress, when non-nil, receives one event per greedy ranking step
	// and per sweep configuration. Called synchronously; keep it cheap.
	Progress progress.Func
	// Strategy and LimitedK select the coupon policy (LimitedK defaults to
	// DefaultLimitedK when the strategy is Limited).
	Strategy Strategy
	LimitedK int
	// Engine selects the evaluation engine (see diffusion.ResolveEngine:
	// empty means diffusion.EngineMC and diffusion.EngineAuto resolves by
	// instance size at every entry point). Under diffusion.EngineSSR,
	// CandidateCap prunes greedy seed candidates by estimated influence
	// (RR-set cover counts under the configured triggering model) instead
	// of raw out-degree; the baselines have no solver-side SSR path, so
	// that pruning is what the name means here.
	Engine string
	// Model selects the triggering model deciding per-world edge liveness
	// (see diffusion.Models; empty means diffusion.ModelIC). It drives
	// both the forward evaluations and RR-set drawing: linear-threshold
	// sketches walk a single sampled in-edge per step.
	Model string
	// Samples is the Monte-Carlo sample count (default 1000) and Seed the
	// estimator seed.
	Samples int
	Seed    uint64
	Workers int
	// CandidateCap restricts greedy seed candidates to the top-N users by
	// out-degree (or by sketch-estimated influence under EngineSSR); 0
	// considers everyone. The paper's datasets make full greedy infeasible,
	// and candidate pruning is the standard practical shortcut.
	CandidateCap int
}

// setup fills the defaults, validates the model and resolves the engine
// name by in's size, as core.SolveCtx does, so candidate pruning sees the
// concrete engine. It returns the injected estimator or constructs the
// configured one over in.
func (c Config) setup(in *diffusion.Instance) (Config, *diffusion.Estimator, error) {
	engine, err := diffusion.ResolveEngine(c.Engine, in.G.NumNodes(), in.G.NumEdges())
	if err != nil {
		return c, nil, fmt.Errorf("baselines: %w", err)
	}
	c.Engine = engine
	if _, err := diffusion.ResolveModel(c.Model); err != nil {
		return c, nil, fmt.Errorf("baselines: %w", err)
	}
	if c.Samples <= 0 {
		c.Samples = 1000
	}
	if c.Strategy == Limited && c.LimitedK <= 0 {
		c.LimitedK = DefaultLimitedK
	}
	if c.Evaluator != nil {
		return c, c.Evaluator, nil
	}
	est, err := diffusion.NewEngineOpts(in, diffusion.EngineOptions{
		Model: c.Model, Samples: c.Samples, Seed: c.Seed, Workers: c.Workers,
	})
	if err != nil {
		return c, nil, fmt.Errorf("baselines: %w", err)
	}
	return c, est, nil
}

// celfEntry is a lazily re-evaluated marginal gain.
type celfEntry struct {
	node  int32
	gain  float64
	round int // the greedy round the gain was computed in
}

type celfHeap []celfEntry

func (h celfHeap) Len() int { return len(h) }
func (h celfHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].node < h[j].node
}
func (h celfHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *celfHeap) Push(x interface{}) { *h = append(*h, x.(celfEntry)) }
func (h *celfHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// greedyRank orders candidate seeds by marginal value under the CELF lazy
// strategy: each evaluation builds the strategy-consistent deployment for
// the trial seed set (seeds plus their reachable region's coupon quotas)
// and measures value(). Ranking stops after maxSeeds selections, when the
// best marginal value is no longer positive, or when ctx is cancelled (the
// prefix ranked so far is returned; the caller surfaces ctx.Err()).
func greedyRank(ctx context.Context, in *diffusion.Instance, cfg Config,
	maxSeeds int, value func(seeds []int32) float64) []int32 {

	candidates := seedCandidates(in, cfg)
	var picked []int32
	base := 0.0

	h := make(celfHeap, 0, len(candidates))
	for i, v := range candidates {
		if i&15 == 0 && ctx.Err() != nil {
			return picked
		}
		g := value([]int32{v})
		h = append(h, celfEntry{node: v, gain: g, round: 0})
	}
	heap.Init(&h)

	// Ranking deeper than the budget can ever afford is wasted work: once
	// the cumulative seed cost alone exceeds Binv, no prefix of that
	// length is feasible.
	cumSeedCost := 0.0
	for len(picked) < maxSeeds && h.Len() > 0 && cumSeedCost <= in.Budget {
		if ctx.Err() != nil {
			return picked
		}
		top := heap.Pop(&h).(celfEntry)
		if top.round == len(picked) {
			if top.gain <= 0 {
				break
			}
			picked = append(picked, top.node)
			cumSeedCost += in.SeedCost[top.node]
			base = value(picked)
			// Rate stays 0: the greedy's value() is influence (IM) or
			// profit (PM), not a redemption rate — the schema reserves
			// Rate for phases that track the actual objective (the
			// "sweep" events do).
			cfg.Progress.Emit(progress.Event{
				Phase: "rank", Iteration: len(picked), Spent: cumSeedCost,
			})
			continue
		}
		// Stale: recompute against the current seed set.
		g := value(append(append([]int32(nil), picked...), top.node)) - base
		heap.Push(&h, celfEntry{node: top.node, gain: g, round: len(picked)})
	}
	return picked
}

func seedCandidates(in *diffusion.Instance, cfg Config) []int32 {
	n := in.G.NumNodes()
	// A user whose seed cost alone exceeds the budget can never appear in
	// a feasible deployment, so filter before applying the candidate cap —
	// otherwise a cap of k could select k unaffordable hubs and leave the
	// greedy with nothing.
	affordable := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if in.SeedCost[v] <= in.Budget {
			affordable = append(affordable, v)
		}
	}
	if cfg.CandidateCap > 0 && cfg.CandidateCap < len(affordable) {
		if cfg.Engine == diffusion.EngineSSR {
			return sketchPrune(in, cfg, affordable)
		}
		sort.Slice(affordable, func(a, b int) bool {
			da, db := in.G.OutDegree(affordable[a]), in.G.OutDegree(affordable[b])
			if da != db {
				return da > db
			}
			return affordable[a] < affordable[b]
		})
		affordable = affordable[:cfg.CandidateCap]
	}
	return affordable
}

// IM runs greedy influence maximization with the configured coupon
// strategy, sweeping seed sizes |V|/2^n for n = 0..maxSweep and keeping the
// budget-feasible configuration with the maximum influence (the paper's
// IM-U / IM-L baselines). Cancelling ctx aborts between greedy steps with
// ctx.Err().
func IM(ctx context.Context, in *diffusion.Instance, cfg Config) (*Outcome, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg, est, err := cfg.setup(in)
	if err != nil {
		return nil, err
	}

	maxSeeds := in.G.NumNodes() // n = 0 means |V| seeds
	ranked := greedyRank(ctx, in, cfg, maxSeeds, func(seeds []int32) float64 {
		d := applyStrategy(in, seeds, cfg.Strategy, cfg.LimitedK)
		return est.Evaluate(d).Activated
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baselines: IM aborted: %w", err)
	}

	best := selectBySweep(ctx, in, est, cfg, ranked, func(o *Outcome) float64 { return o.Influence })
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("baselines: IM aborted: %w", err)
	}
	if best == nil {
		return emptyOutcome("IM-"+cfg.Strategy.String(), in, est), nil
	}
	best.Name = "IM-" + cfg.Strategy.String()
	return best, nil
}

// maxSweep bounds the seed-size sweep exponent (paper: n = 0..10).
const maxSweep = 10

// selectBySweep evaluates the ranked prefix at sizes |V|/2^n, drops seeds
// that break the budget, and keeps the feasible outcome maximizing score.
func selectBySweep(ctx context.Context, in *diffusion.Instance, est *diffusion.Estimator, cfg Config,
	ranked []int32, score func(*Outcome) float64) *Outcome {

	n := in.G.NumNodes()
	tried := map[int]bool{}
	var best *Outcome
	var bestScore float64
	sweep := 0
	for exp := 0; exp <= maxSweep; exp++ {
		if ctx.Err() != nil {
			return best
		}
		size := n >> exp
		if size < 1 {
			size = 1
		}
		if size > len(ranked) {
			size = len(ranked)
		}
		if size == 0 || tried[size] {
			continue
		}
		tried[size] = true
		seeds := budgetFeasiblePrefix(in, cfg, ranked[:size])
		if len(seeds) == 0 {
			continue
		}
		d := applyStrategy(in, seeds, cfg.Strategy, cfg.LimitedK)
		if in.TotalCost(d) > in.Budget {
			continue
		}
		o := measure("", in, est, d)
		sweep++
		cfg.Progress.Emit(progress.Event{
			Phase: "sweep", Iteration: sweep, Spent: o.TotalCost, Rate: o.RedemptionRate,
		})
		if best == nil || score(o) > bestScore {
			best = o
			bestScore = score(o)
		}
	}
	return best
}

// budgetFeasiblePrefix keeps the longest prefix of seeds whose seed cost
// fits the budget, dropping later (lower-ranked) seeds first. The coupon
// hand-out is budget-capped by construction (applyStrategy), so only the
// seed cost can break feasibility.
func budgetFeasiblePrefix(in *diffusion.Instance, cfg Config, seeds []int32) []int32 {
	cost := 0.0
	for i, s := range seeds {
		cost += in.SeedCost[s]
		if cost > in.Budget {
			return seeds[:i]
		}
	}
	return seeds
}

func emptyOutcome(name string, in *diffusion.Instance, est *diffusion.Estimator) *Outcome {
	d := diffusion.NewDeployment(in.G.NumNodes())
	o := measure(name, in, est, d)
	return o
}

// String implements fmt.Stringer.
func (o *Outcome) String() string {
	return fmt.Sprintf("%s{rate=%.4g, benefit=%.4g, cost=%.4g, seeds=%d}",
		o.Name, o.RedemptionRate, o.Benefit, o.TotalCost, o.Deployment.NumSeeds())
}
