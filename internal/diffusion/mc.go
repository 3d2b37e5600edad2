package diffusion

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"s3crm/internal/rng"
)

// Estimator estimates B(S, K) by Monte-Carlo simulation of the
// capacity-constrained triggering model. It is the EngineMC implementation
// of Evaluator and the simulation substrate the world-cache engine builds
// on. The kernel itself is model-agnostic — it sweeps reachability over a
// possible world's fixed edge-liveness assignment — and the triggering
// model (IC or LT, see Models) owns how that assignment is drawn, behind
// the Live substrate.
//
// Edge liveness is a stateless function of (seed, world, edge) — under IC a
// per-edge hash, under LT a per-target-node categorical draw — so two
// deployments evaluated by the same Estimator see identical possible worlds
// — common random numbers. Marginal gains B(D') − B(D) computed from the
// same Estimator are therefore far less noisy than with independent
// sampling, which is what makes the greedy marginal-redemption comparisons
// of S3CA stable at modest sample counts.
type Estimator struct {
	Inst    *Instance
	Samples int // number of possible worlds; must be > 0
	Workers int // parallel workers; <= 1 means sequential
	// Live is the model-aware liveness substrate every edge probe goes
	// through (see LiveEdges): it owns the coin and decides liveness, reading
	// precomputed per-world rows within its memory budget and hashing past
	// it, with identical outcomes either way. NewEstimator attaches the
	// independent-cascade substrate; NewEngineOpts attaches the configured
	// model's.
	Live *LiveEdges

	// ctx, when non-nil, is checked periodically inside the simulation
	// loop so a cancelled serving request aborts mid-evaluation instead of
	// finishing the full sample sweep. Set only on per-call Views; a
	// cancelled evaluation returns garbage aggregates, so callers must
	// check ctx.Err() before using any value produced after cancellation.
	ctx context.Context

	blockPoolOnce sync.Once
	blockPool     sync.Pool // of *blockScratch, reused across evaluations

	evals  atomic.Int64 // number of Evaluate calls, for instrumentation
	blocks atomic.Int64 // number of 64-world blocks the block kernel swept
}

// cancelled reports whether the estimator's per-call context (if any) has
// been cancelled — the MC kernel's abort check, also consulted by the
// world-cache engine's re-simulation sweeps.
func (e *Estimator) cancelled() bool {
	return e.ctx != nil && e.ctx.Err() != nil
}

// View returns a per-call estimator sharing the receiver's possible worlds
// — the same (lazily filled, concurrency-safe) live-edge substrate — but
// carrying its own cancellation context, worker count and instrumentation
// counters. Views of one estimator may evaluate
// concurrently; results are identical to the receiver's by construction,
// because edge liveness depends only on (seed, world, edge).
func (e *Estimator) View(ctx context.Context, workers int) *Estimator {
	return &Estimator{
		Inst:    e.Inst,
		Samples: e.Samples,
		Workers: workers,
		Live:    e.Live,
		ctx:     ctx,
	}
}

// NewEstimator returns an independent-cascade estimator over inst with the
// given sample count and coin seed, probing through a default-budget
// substrate.
func NewEstimator(inst *Instance, samples int, seed uint64) *Estimator {
	return &Estimator{
		Inst:    inst,
		Samples: samples,
		Live:    NewLiveEdges(inst.G, samples, rng.NewCoin(seed), 0),
	}
}

// Result aggregates one deployment's Monte-Carlo outcome.
type Result struct {
	Benefit      float64 // expected total benefit of activated users
	RealizedCost float64 // expected SC cost actually paid for redemptions
	Activated    float64 // expected number of activated users
	FarthestHop  float64 // expected maximum hop distance from the seeds
	Explored     float64 // expected nodes examined per world: activated plus probed inactive out-neighbours
	// BenefitSqMean is the mean of the squared per-world benefit — the
	// second raw moment the serving layer turns into a Monte-Carlo
	// standard-error bar (stats.StdErrFromMoments), accumulated in ascending
	// world order from the same per-world benefits as Benefit itself.
	BenefitSqMean float64
}

// Benefit estimates B(S, K).
func (e *Estimator) Benefit(d *Deployment) float64 {
	return e.Evaluate(d).Benefit
}

// RedemptionRate estimates the S3CRM objective B/(Cseed+Csc); it returns 0
// when the total cost is zero (the empty deployment).
func (e *Estimator) RedemptionRate(d *Deployment) float64 {
	cost := e.Inst.TotalCost(d)
	if cost <= 0 {
		return 0
	}
	return e.Benefit(d) / cost
}

// Evals returns the number of Evaluate calls made so far.
func (e *Estimator) Evals() int64 { return e.evals.Load() }

// BlockEvals returns the number of 64-world blocks the block kernel has
// swept. Instrumentation for the solver's stats.
func (e *Estimator) BlockEvals() int64 { return e.blocks.Load() }

// Evaluate runs the full simulation and returns all aggregate metrics. The
// Result is bit-identical at every worker count: workers fill per-world
// slots, which fold in ascending world order.
func (e *Estimator) Evaluate(d *Deployment) Result {
	if e.Samples <= 0 {
		panic("diffusion: Estimator with non-positive sample count")
	}
	e.evals.Add(1)
	slots := getSlots(e.Samples)
	defer slotPool.Put(slots)
	e.sweepAll(d, slots, nil)
	r, _ := foldWorlds(slots, e.Samples)
	return r
}

// String implements fmt.Stringer for debugging.
func (r Result) String() string {
	return fmt.Sprintf("Result{B=%.4g, Creal=%.4g, act=%.3g, hop=%.3g}",
		r.Benefit, r.RealizedCost, r.Activated, r.FarthestHop)
}
