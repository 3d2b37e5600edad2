package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"s3crm/internal/diffusion"
	"s3crm/internal/progress"
	"s3crm/internal/sketch"
)

// Options configures Solve.
type Options struct {
	// Evaluator, when non-nil, is a pre-built evaluation engine the solver
	// uses instead of constructing one from Engine/Model/Samples/Seed —
	// the serving layer's injection point: a Campaign builds the engine
	// (and its live-edge substrate) once and hands per-call views to every
	// solve. It is also how tests run the solver over a parity oracle (a
	// hash-substrate engine built with diffusion.NewEngineOpts). The remaining engine fields still
	// parameterize the snapshot scorer stream, so they should describe the
	// injected engine.
	Evaluator diffusion.Evaluator
	// Scorer, when non-nil, is a pre-built engine for the snapshot
	// selection pass, replacing the internally constructed
	// ScorerSeed-derived stream. It must be decorrelated from Evaluator
	// (distinct coin seed) or selection inherits the greedy's own noise;
	// the serving layer pools scorers the same way it pools engines.
	Scorer diffusion.Evaluator
	// Progress, when non-nil, receives one event per solver step (ID
	// investment, GPI seed traversal, SCM path examination, snapshot
	// scored). Called synchronously from the search loops: keep it cheap
	// and non-blocking.
	Progress progress.Func
	// Engine selects the evaluation engine: diffusion.EngineMC (the
	// default, plain Monte Carlo), diffusion.EngineWorldCache (incremental
	// world-cache evaluation — the ID loop's candidate deltas and the SCM
	// donor scan replay only the affected worlds/frontiers) or
	// diffusion.EngineSSR (the SSR sketch solver: selection runs as
	// weighted cover maximization over coupon-indexed RR samples sized
	// adaptively by Epsilon/Delta, and only the final deployment is
	// forward-evaluated). diffusion.EngineAuto
	// resolves to ssr or worldcache by instance size before dispatch (see
	// diffusion.AutoEngine).
	Engine string
	// Model selects the triggering model deciding per-world edge liveness
	// (see diffusion.Models): diffusion.ModelIC (the default, independent
	// per-edge coins — the paper's setting) or diffusion.ModelLT (linear
	// threshold via its live-edge equivalence — each node selects at most
	// one live in-edge, requiring in-weights summing to at most 1). The
	// propagation kernel, the world-cache replays and the sketches all
	// follow the selected model.
	Model string
	// LiveEdgeMemBudget caps the bytes the live-edge substrate may commit
	// to materialized worlds (<= 0 means diffusion.DefaultLiveEdgeMemBudget);
	// past the cap the solver falls back to hashing.
	LiveEdgeMemBudget int64
	// Samples is the Monte-Carlo sample count per benefit evaluation.
	// 0 means 1000 (the paper's simulation average count). The SSR engine
	// sizes its own sample set adaptively (see Epsilon/Delta); Samples then
	// only parameterizes the final forward evaluation and the snapshot
	// scorer stream.
	Samples int
	// Epsilon and Delta set the SSR engine's accuracy target: its stopping
	// rule doubles the sample collections until the selected cover is
	// certified within (1−1/e−Epsilon)·OPT of the sketch objective with
	// probability 1−Delta. 0 means 0.1 and 0.01 respectively; both must lie
	// in (0, 1). Other engines ignore them.
	Epsilon float64
	Delta   float64
	// Seed seeds the estimator's possible worlds and any tie-breaking.
	Seed uint64
	// ScorerSeed, when non-zero, seeds the independent estimator stream
	// snapshot selection re-scores with; 0 means the classic Seed ^ 0x5c04e.
	// The serving layer derives it from the campaign call sequence number
	// so repeated calls draw fresh, reproducible selection noise.
	ScorerSeed uint64
	// Workers sets estimator parallelism; 0 means sequential.
	Workers int
	// DisableGPI skips phases 2 and 3 (ablation: ID only).
	DisableGPI bool
	// GPILimit caps the guaranteed-path DFS at this many visits per seed
	// (0 = unlimited, the paper-faithful enumeration); a capped traversal
	// keeps the strongest — first-enumerated — paths. A visit costs one
	// update of its parent's redeem-probability row plus O(1) path pricing
	// from level-indexed sums, not a sweep of the visited set, so the cap
	// trims GPI rather than making large solves tractable (EXPERIMENTS.md,
	// "Large-graph scaling"). The ssr engine runs no GPI and ignores it.
	GPILimit int
	// DisableSCM runs GPI but skips the maneuver phase (ablation).
	DisableSCM bool
	// DisablePivot makes ID invest SCs greedily without comparing against
	// pivot sources; new seeds are only added when no SC investment is
	// feasible (ablation: the investment trade-off machinery off).
	DisablePivot bool
	// SpendBudget makes ID return the full-budget deployment (the last
	// trajectory snapshot) instead of the strict argmax-rate snapshot.
	// Alg. 1 line 24 specifies the argmax, but the paper's evaluation has
	// every algorithm's total cost ≈ Binv and S3CA's total benefit growing
	// with the budget (Fig. 6(b)) — behaviour only the full-budget variant
	// exhibits when the marginal redemption declines along the trajectory.
	// The experiment harness enables this to mirror the paper's regime;
	// the strict variant's redemption rates are higher still.
	SpendBudget bool
	// SketchWarm, when non-nil and the SSR engine runs, seeds the sketch
	// solver with a pooled sample state from an earlier solve; the state
	// produced by this solve comes back in Solution.SketchWarm. An exact
	// unchurned state replays bit-identically; a churned one is used only
	// under SketchWarmApprox, re-drawing just its invalidated samples
	// (ε-accurate, not bit-exact — Resolve-style callers opt in).
	SketchWarm       *sketch.Warm
	SketchWarmApprox bool
	// SketchPool asks the SSR engine to hand its sample state back in
	// Solution.SketchWarm for pooling. Callers without a pool (one-shot
	// solves) leave it false so the collections become collectable before
	// the final forward measurement instead of sitting in the heap.
	SketchPool bool
}

func (o Options) withDefaults() Options {
	if o.Samples <= 0 {
		o.Samples = 1000
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Delta == 0 {
		o.Delta = 0.01
	}
	return o
}

// Stats captures instrumentation the scalability experiments report.
type Stats struct {
	QueueSize     int   // pivot sources enqueued by phase 1
	IDIterations  int   // investments made by the ID loop
	GPCount       int   // guaranteed paths identified
	ManeuverCount int   // maneuver operations applied
	GPsCreated    int   // guaranteed paths realized by SCM
	ExploredNodes int   // distinct users examined across all phases
	Evaluations   int64 // Monte-Carlo evaluations performed
	// WorldBlocks counts blocks of up to 64 worlds evaluated by the block
	// kernel, the sweep every evaluation and world-cache re-simulation
	// runs; a world re-simulated alone counts as one block.
	WorldBlocks int64
	// FullRebases counts world-cache rebases that simulated every world —
	// each cache's first and any move its coupon-advance and seed-add paths
	// do not cover — on the solver's engine and its snapshot-selection
	// scorer together. Zero under other engines.
	FullRebases int64
	// CandidateEvals counts ID-loop candidate marginal-gain evaluations.
	// An exhaustive sweep would pay |candidates| per iteration; the lazy
	// loop pays only for new candidates, stale re-pops and pivot refreshes,
	// so CandidateEvals / IDIterations is the measured win of CELF.
	CandidateEvals int64
	// HeapRepops counts lazy-loop pops whose cached gain was stale and had
	// to be re-evaluated (new, never-evaluated candidates excluded).
	HeapRepops int64
	// SketchRounds and SketchSamples report the SSR engine's adaptive
	// schedule: doubling rounds run and total RR samples drawn across both
	// collections. Zero under every other engine.
	SketchRounds  int
	SketchSamples int
	// SketchLB and SketchUB are the final certification bounds on the
	// sketch objective; SketchCertified reports whether the (1−1/e−ε, δ)
	// target was met before the sample cap.
	SketchLB        float64
	SketchUB        float64
	SketchCertified bool
	// SketchWorkers is the worker cap the SSR sample build ran under and
	// SketchBuildNs the nanoseconds it spent drawing or patching samples.
	// SketchReused and SketchRedrawn account a warm state's churn patch:
	// samples copied bit-for-bit versus re-drawn. Zero under other engines.
	SketchWorkers int
	SketchBuildNs int64
	SketchReused  int
	SketchRedrawn int
}

// Solution is the output of Solve.
type Solution struct {
	Deployment     *diffusion.Deployment
	Benefit        float64
	SeedCost       float64
	SCCost         float64
	TotalCost      float64
	RedemptionRate float64
	Stats          Stats
	// Trajectory is the investment move log, the Fig. 3
	// iteration-by-iteration view: every ID move with the greedy's benefit
	// estimate and total cost right after it, or under the ssr engine the
	// selected prefix of the sketch's moves. Each prefix replays
	// (diffusion.Replay) to one candidate deployment of Alg. 1 line 24.
	Trajectory []diffusion.TrajectoryPoint
	// SketchWarm is the SSR engine's poolable sample state (nil under every
	// other engine); a caller may hand it to a later compatible solve via
	// Options.SketchWarm.
	SketchWarm *sketch.Warm
}

// PartialError reports a solve aborted by context cancellation or deadline
// expiry: the phase that was interrupted and the instrumentation gathered up
// to the abort. Unwrap yields the context error, so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded both work.
type PartialError struct {
	Phase string // phase interrupted: "pivot", "id", "sketch", "gpi", "scm" or "select"
	Stats Stats  // instrumentation up to the abort
	Err   error  // the context's error
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("core: solve aborted during %s after %d ID iterations: %v",
		e.Phase, e.Stats.IDIterations, e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// solver carries shared state across the three phases.
type solver struct {
	inst       *diffusion.Instance
	opts       Options
	ctx        context.Context
	err        error  // first cancellation observed; sticky
	phase      string // current phase, for PartialError and events
	est        diffusion.Evaluator
	wc         *diffusion.WorldCache // non-nil iff Engine == EngineWorldCache
	explored   []bool
	stats      Stats
	trajectory []diffusion.TrajectoryPoint // the move log (see Solution.Trajectory)
	sketchWarm *sketch.Warm                // SSR engine's poolable sample state
	// viewEvals and viewBlocks count the forward evaluations, and their
	// 64-world blocks, made on per-goroutine sequential views of the engine
	// (seqView), which the engine's own counters cannot see.
	viewEvals, viewBlocks atomic.Int64
	// fullRebases counts the full rebases of world caches other than wc
	// (the scorer's); wcFull is wc's full-rebase count when the solve began,
	// as a pooled cache arrives with its own.
	fullRebases, wcFull int64

	// choose is the ID loop's candidate choice; nil means the CELF heap.
	choose candidateChoice

	// gpiSt is the GPI traversal's reusable per-node state (see gpiState).
	gpiSt *dfsState

	// price[v] caches v's marginal coupon cost at coupon count priceK[v]-1
	// (0: never priced); see marginalSCCost.
	price  []float64
	priceK []int32
}

// record logs one ID move with the deployment's benefit and total cost
// right after it.
func (s *solver) record(mv diffusion.Move, benefit, cost float64) {
	s.trajectory = append(s.trajectory, diffusion.TrajectoryPoint{Move: mv, Benefit: benefit, Cost: cost})
}

func (s *solver) touch(v int32) {
	if !s.explored[v] {
		s.explored[v] = true
		s.stats.ExploredNodes++
	}
}

// aborted reports whether the solve has been cancelled, latching the
// context error on first observation. Every phase loop checks it at its
// head so a cancelled request stops within one step.
func (s *solver) aborted() bool {
	if s.err != nil {
		return true
	}
	if s.ctx != nil {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return true
		}
	}
	return false
}

// emit reports one progress event from the current phase.
func (s *solver) emit(iteration int, spent, rate float64) {
	if s.opts.Progress == nil {
		return
	}
	s.opts.Progress(progress.Event{
		Phase:          s.phase,
		Iteration:      iteration,
		Spent:          spent,
		Rate:           rate,
		CandidateEvals: s.stats.CandidateEvals,
		Evaluations:    s.evaluations(),
	})
}

// enterPhase records the phase for events and PartialError reporting.
func (s *solver) enterPhase(name string) { s.phase = name }

// benefit evaluates B(S,K) for a deployment through the configured engine.
func (s *solver) benefit(d *diffusion.Deployment) float64 {
	return s.est.Benefit(d)
}

// estimatorViewer is satisfied by *diffusion.Estimator. Goroutines that
// score deployments side by side each evaluate on a sequential (workers=0)
// view of it, so no evaluation also splits its worlds across the engine's
// workers; an engine without views scores on the calling goroutine alone.
type estimatorViewer interface {
	View(ctx context.Context, workers int) *diffusion.Estimator
}

// seqView returns a sequential view of the engine for one scoring
// goroutine, or nil when the engine offers no views.
func (s *solver) seqView() *diffusion.Estimator {
	if vr, ok := s.est.(estimatorViewer); ok {
		return vr.View(s.ctx, 0)
	}
	return nil
}

// benefitOn evaluates d on view, or through the engine when view is nil,
// adding a view's evaluation and blocks to the solver's counters so Stats
// read the same at every worker count.
func (s *solver) benefitOn(view *diffusion.Estimator, d *diffusion.Deployment) float64 {
	if view == nil {
		return s.benefit(d)
	}
	blocks := view.BlockEvals()
	b := view.Benefit(d)
	s.viewEvals.Add(1)
	s.viewBlocks.Add(view.BlockEvals() - blocks)
	return b
}

// evaluations returns the forward evaluations made so far, views included.
func (s *solver) evaluations() int64 { return s.est.Evals() + s.viewEvals.Load() }

// incremental reports whether the world-cache fast paths apply.
func (s *solver) incremental() bool {
	return s.wc != nil
}

// benefitRebased evaluates B(S,K) of d and, under the world-cache engine,
// makes d the cached base so subsequent delta queries replay against its
// per-world snapshot.
func (s *solver) benefitRebased(d *diffusion.Deployment) float64 {
	if s.incremental() {
		return s.wc.Rebase(d).Benefit
	}
	return s.benefit(d)
}

// benefitSparse evaluates d, which differs from the last rebased deployment
// only in the coupon counts of the nodes in changed. Under the world-cache
// engine only the worlds activating a changed node are re-simulated — an
// exact evaluation, not an approximation; other engines fall back to a full
// evaluation.
func (s *solver) benefitSparse(d *diffusion.Deployment, changed []int32) float64 {
	if s.incremental() {
		return s.wc.EvaluateDelta(d, changed)
	}
	return s.benefit(d)
}

// Solve runs S3CA on the instance.
func Solve(inst *diffusion.Instance, opts Options) (*Solution, error) {
	return SolveCtx(context.Background(), inst, opts)
}

// SolveCtx runs S3CA on the instance under a context: cancellation or
// deadline expiry aborts the solve within one phase step and returns a
// *PartialError wrapping ctx.Err() together with the instrumentation
// gathered so far.
func SolveCtx(ctx context.Context, inst *diffusion.Instance, opts Options) (*Solution, error) {
	return solve(ctx, inst, opts, nil)
}

// solve is SolveCtx with the ID loop's candidate choice as a parameter
// (nil means the CELF heap), so the package tests can run the loop over the
// exhaustive reference sweep.
func solve(ctx context.Context, inst *diffusion.Instance, opts Options, choose candidateChoice) (*Solution, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.G.NumNodes()
	opts = opts.withDefaults()
	if opts.Engine == diffusion.EngineAuto {
		opts.Engine = diffusion.AutoEngine(n, inst.G.NumEdges())
	}
	ev := opts.Evaluator
	if ev == nil {
		var err error
		ev, err = diffusion.NewEngineOpts(inst, diffusion.EngineOptions{
			Engine: opts.Engine, Model: opts.Model,
			Samples: opts.Samples, Seed: opts.Seed,
			Workers: opts.Workers, LiveEdgeMemBudget: opts.LiveEdgeMemBudget,
		})
		if err != nil {
			return nil, err
		}
	}
	s := &solver{
		inst:     inst,
		opts:     opts,
		ctx:      ctx,
		est:      ev,
		explored: make([]bool, n),
		choose:   choose,
	}
	if wc, ok := ev.(*diffusion.WorldCache); ok {
		s.wc = wc
		s.wcFull = wc.Rebases().Full
	}

	s.enterPhase("pivot")
	queue := s.buildPivotQueue()
	s.stats.QueueSize = len(queue)
	s.emit(len(queue), 0, 0)
	if err := s.partial(); err != nil {
		return nil, err
	}
	if len(queue) == 0 {
		// No affordable seed: the only feasible deployment is empty.
		empty := diffusion.NewDeployment(n)
		return s.finish(empty), nil
	}

	if opts.Engine == diffusion.EngineSSR {
		// The SSR engine replaces the forward ID/GPI/SCM search wholesale:
		// selection runs against adaptively sized SSR samples, and the
		// estimator only measures the returned deployment.
		s.enterPhase("sketch")
		best, err := s.sketchSolve(queue)
		if err != nil {
			if perr := s.partial(); perr != nil {
				return nil, perr
			}
			return nil, err
		}
		sol := s.finish(best)
		sol.SketchWarm = s.sketchWarm
		return sol, nil
	}

	s.enterPhase("id")
	best := s.investmentDeployment(queue)
	if err := s.partial(); err != nil {
		return nil, err
	}

	if !opts.DisableGPI {
		s.enterPhase("gpi")
		forest := s.identifyGuaranteedPaths(best)
		s.stats.GPCount = len(forest.paths)
		if err := s.partial(); err != nil {
			return nil, err
		}
		if !opts.DisableSCM && len(forest.paths) > 0 {
			s.enterPhase("scm")
			best = s.maneuver(best, forest)
			if err := s.partial(); err != nil {
				return nil, err
			}
		}
	}
	return s.finish(best), nil
}

// worldBlocks reads the bit-parallel block counter off engines that expose
// one (both the estimator and the world cache do); other evaluators report 0.
func worldBlocks(ev diffusion.Evaluator) int64 {
	if b, ok := ev.(interface{ BlockEvals() int64 }); ok {
		return b.BlockEvals()
	}
	return 0
}

// countWork copies the engines' work counters into the stats.
func (s *solver) countWork() {
	s.stats.Evaluations = s.evaluations()
	s.stats.WorldBlocks = worldBlocks(s.est) + s.viewBlocks.Load()
	s.stats.FullRebases = s.fullRebases
	if s.wc != nil {
		s.stats.FullRebases += s.wc.Rebases().Full - s.wcFull
	}
}

// partial converts a recorded cancellation into the error Solve returns.
func (s *solver) partial() error {
	if !s.aborted() {
		return nil
	}
	s.countWork()
	return &PartialError{Phase: s.phase, Stats: s.stats, Err: s.err}
}

// finish computes the final metrics for a deployment.
func (s *solver) finish(d *diffusion.Deployment) *Solution {
	seedCost := s.inst.SeedCostOf(d)
	scCost := s.inst.SCCostOf(d)
	benefit := s.benefit(d)
	total := seedCost + scCost
	rate := 0.0
	if total > 0 {
		rate = benefit / total
	}
	s.countWork()
	return &Solution{
		Deployment:     d,
		Benefit:        benefit,
		SeedCost:       seedCost,
		SCCost:         scCost,
		TotalCost:      total,
		RedemptionRate: rate,
		Stats:          s.stats,
		Trajectory:     s.trajectory,
	}
}

// rate returns the redemption rate of d, with the 0/0 case mapped to 0.
func (s *solver) rate(d *diffusion.Deployment) float64 {
	cost := s.inst.TotalCost(d)
	if cost <= 0 {
		return 0
	}
	return s.benefit(d) / cost
}

// safeRatio returns num/den, mapping 0/0 to 0 and x/0 (x>0) to +Inf: a
// positive gain at zero marginal cost always wins a marginal-redemption
// comparison.
func safeRatio(num, den float64) float64 {
	if den <= 0 {
		if num <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return num / den
}

// String implements fmt.Stringer.
func (sol *Solution) String() string {
	return fmt.Sprintf("Solution{rate=%.4g, benefit=%.4g, cost=%.4g (seed %.4g + sc %.4g), seeds=%d, coupons=%d}",
		sol.RedemptionRate, sol.Benefit, sol.TotalCost, sol.SeedCost, sol.SCCost,
		sol.Deployment.NumSeeds(), sol.Deployment.TotalK())
}
