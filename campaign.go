package s3crm

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"s3crm/internal/baselines"
	"s3crm/internal/core"
	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
	"s3crm/internal/par"
	"s3crm/internal/progress"
	"s3crm/internal/rng"
	"s3crm/internal/sketch"
	"s3crm/internal/stats"
)

// Campaign is a long-lived, concurrency-safe serving session over one
// Problem: it constructs the evaluation engine, the diffusion substrate and
// the scratch pools once and then serves many Solve, RunBaseline, Evaluate
// and EvaluateBatch calls against the shared state. Live-edge bit rows are
// materialized once and read by every call; world-cache snapshots are pooled
// and rebased instead of rebuilt; per-call RNG streams are derived
// deterministically from a call sequence number, so a campaign's call
// history is reproducible run to run (see DESIGN.md, "Serving API").
//
// All methods are safe for concurrent use. Each call accepts call-level
// options overriding the campaign's settings for that call only — including
// WithEngine, so one campaign serves requests across engines. A call-level
// WithSeed pins the call's streams to that seed alone, making it
// bit-identical to the same pinned call on a fresh campaign regardless of
// what else the campaign is doing.
//
// Cancelling the call's context aborts the solve mid-iteration: the call
// returns an error wrapping both ctx.Err() and a *core.PartialError carrying
// the statistics gathered up to the abort.
type Campaign struct {
	p   *Problem
	cfg config
	seq atomic.Uint64 // call sequence numbers, starting at 1

	mu         sync.Mutex
	inst       *diffusion.Instance // current graph view; advances under ApplyEdges
	engines    map[engineKey]*enginePool
	defaultKey engineKey          // the construction-time pool, exempt from eviction
	churned    []int32            // distinct churn endpoints since the last Resolve
	churnSeen  map[int32]struct{} // the members of churned
}

// maxEnginePools bounds the engine-state cache. Calls are keyed by
// (samples, seed, model, memBudget, epsilon, delta) — in a serving
// deployment those come from client requests, so without a cap a client
// sweeping seeds would grow the map (each entry holds a live-edge
// substrate) until OOM.
// Evicted pools stay alive for calls already using them and are rebuilt on
// the next request for their key; only warmth is lost, never correctness.
const maxEnginePools = 16

// maxIdleWorldCaches bounds each pool's idle snapshot list; one snapshot
// holds every world's activations (in block order), so keep only what a
// typical concurrent burst reuses.
const maxIdleWorldCaches = 8

// maxIdleSketchWarms bounds each pool's idle SSR sample states. A warm
// state holds both sample collections' arenas and inverted postings —
// typically far smaller than a world-cache snapshot but still O(samples ·
// avg RR-set size) — and sequential ssr traffic reuses exactly one.
const maxIdleSketchWarms = 2

// engineKey identifies the shared evaluation state two calls may reuse:
// calls agreeing on these fields see the same possible worlds, so they can
// share materialized live-edge rows and pooled world-cache snapshots. The
// engine name is deliberately absent — mc, worldcache and ssr all
// evaluate through the same underlying estimator — but the triggering
// model is present: IC and LT calls draw different per-world liveness, so
// they must never share substrates or snapshots. The SSR accuracy knobs
// (epsilon, delta) are part of the key: two calls disagreeing on them run
// different sample schedules, so their warmed state must stay separate.
type engineKey struct {
	samples        int
	seed           uint64
	model          string
	memBudget      int64
	epsilon, delta float64
}

// enginePool holds one engine key's shared state: the prototype estimator
// owning the live-edge substrate (concurrency-safe; per-call views share
// it) and idle world-cache instances whose snapshots and allocations warm
// calls rebase instead of rebuilding.
//
// Graph churn advances the pool through applyBatch: the prototype moves to
// an estimator over the extended view and every idle snapshot is patched in
// place. epoch counts those moves, and each checkout records the epoch it
// saw — a cache from a call that straddled an ApplyEdges comes back with a
// stale stamp and is dropped instead of re-pooled, so a snapshot over an old
// graph can never warm an incremental rebase against the new one.
type enginePool struct {
	mu    sync.Mutex
	proto *diffusion.Estimator
	epoch uint64
	idle  []*diffusion.WorldCache
	// idleSketch pools SSR sample states the way idle pools world-cache
	// snapshots: ssr calls check one out, the sketch solver replays or
	// patches it, and the state the solve produced comes back on success.
	// ApplyEdges notes churn on idle states in place (the actual sample
	// patching is deferred to the next checkout) and the shared epoch stamp
	// drops any state that straddled an append.
	idleSketch []*sketch.Warm
}

// view returns a per-call view of the pool's current prototype estimator.
func (ep *enginePool) view(ctx context.Context, workers int) *diffusion.Estimator {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return ep.proto.View(ctx, workers)
}

// checkout returns a world cache over a fresh per-call estimator view,
// reusing an idle instance's snapshot arrays when one is available, plus the
// pool's churn epoch at checkout time (hand it back to put).
func (ep *enginePool) checkout(ctx context.Context, workers int) (*diffusion.WorldCache, *diffusion.Estimator, uint64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	view := ep.proto.View(ctx, workers)
	if n := len(ep.idle); n > 0 {
		wc := ep.idle[n-1]
		ep.idle = ep.idle[:n-1]
		wc.Est = view
		return wc, view, ep.epoch
	}
	return &diffusion.WorldCache{Est: view}, view, ep.epoch
}

// put returns a world cache to the pool. Only caches from calls that
// completed without error may come back: a cancelled call can leave the
// snapshot mid-rebase, and a corrupt snapshot must never seed a future
// incremental rebase. A cache checked out before a graph append (stale
// epoch) is dropped too — its snapshot describes the old graph. Beyond
// maxIdleWorldCaches the cache is dropped for the garbage collector.
func (ep *enginePool) put(wc *diffusion.WorldCache, epoch uint64) {
	if wc == nil {
		return
	}
	ep.mu.Lock()
	if epoch == ep.epoch && len(ep.idle) < maxIdleWorldCaches {
		ep.idle = append(ep.idle, wc)
	}
	ep.mu.Unlock()
}

// takeSketch pops an idle SSR sample state, newest first, plus the pool's
// churn epoch at checkout time. Unless dirtyOK is set, only exact (never
// churned) states are eligible: Solve may only reuse a state it can replay
// bit-identically, while Resolve (dirtyOK) accepts a churned state and
// patches it.
func (ep *enginePool) takeSketch(dirtyOK bool) (*sketch.Warm, uint64) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for i := len(ep.idleSketch) - 1; i >= 0; i-- {
		w := ep.idleSketch[i]
		if dirtyOK || w.Exact() {
			ep.idleSketch = append(ep.idleSketch[:i], ep.idleSketch[i+1:]...)
			return w, ep.epoch
		}
	}
	return nil, ep.epoch
}

// putSketch returns an SSR sample state to the pool under the same rules as
// put: only successful calls re-pool, and a state checked out before a
// graph append (stale epoch) is dropped — it describes the old graph and
// never saw the append's NoteChurn.
func (ep *enginePool) putSketch(w *sketch.Warm, epoch uint64) {
	if w == nil {
		return
	}
	ep.mu.Lock()
	if epoch == ep.epoch && len(ep.idleSketch) < maxIdleSketchWarms {
		ep.idleSketch = append(ep.idleSketch, w)
	}
	ep.mu.Unlock()
}

// applyBatch moves the pool onto inst2, whose graph extends the prototype's
// by exactly batch: the prototype becomes a churn-extended estimator
// (carrying the liveness substrate forward via Extend) and every idle world
// cache is patched in place, re-simulating only the worlds the appended
// edges can perturb. Returns how many idle snapshots were patched.
func (ep *enginePool) applyBatch(inst2 *diffusion.Instance, batch []graph.Edge, churnTargets []int32, workers int) int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	next := ep.proto.WithGraph(inst2, churnTargets)
	for _, wc := range ep.idle {
		wc.PatchEdges(next.View(context.Background(), workers), batch)
	}
	// Idle SSR states record the batch (endpoint → max appended key) and
	// defer the sample patch to their next checkout; the append-only key
	// contract puts the batch's keys at the tail of the key space.
	firstKey := int64(inst2.G.NumEdges() - len(batch))
	for _, w := range ep.idleSketch {
		w.NoteChurn(inst2, batch, firstKey)
	}
	ep.proto = next
	ep.epoch++
	return len(ep.idle)
}

// NewCampaign validates the options eagerly and constructs the campaign's
// default engine: the estimator and its live-edge substrate are built here,
// once, so every call — and every engine, mc and worldcache alike — reuses
// them. Option errors (unknown engine or model name, non-positive
// sample count, …) surface from this call with a "want one of …" message
// instead of failing deep inside a solve.
func (p *Problem) NewCampaign(opts ...Option) (*Campaign, error) {
	cfg, err := defaultConfig().apply(opts)
	if err != nil {
		return nil, err
	}
	c := &Campaign{
		p:       p,
		cfg:     cfg,
		inst:    p.inst,
		engines: make(map[engineKey]*enginePool),
	}
	c.defaultKey = poolKey(cfg, cfg.seed)
	c.mu.Lock()
	_, err = c.poolLocked(cfg, cfg.seed)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

func poolKey(cfg config, seed uint64) engineKey {
	return engineKey{
		samples:   cfg.samples,
		seed:      seed,
		model:     cfg.model,
		memBudget: cfg.memBudget,
		epsilon:   cfg.epsilon,
		delta:     cfg.delta,
	}
}

// Problem returns the problem the campaign serves.
func (c *Campaign) Problem() *Problem { return c.p }

// poolLocked returns (building on first use) the shared engine state for
// the given call configuration; c.mu must be held. Pools are built over the
// campaign's current graph view, which advances under ApplyEdges. The cache
// is bounded: past maxEnginePools an arbitrary non-default entry is evicted
// — dropped pools are rebuilt on their next use, so eviction costs warmth,
// not correctness.
func (c *Campaign) poolLocked(cfg config, seed uint64) (*enginePool, error) {
	key := poolKey(cfg, seed)
	if ep, ok := c.engines[key]; ok {
		return ep, nil
	}
	// EngineMC builds the bare estimator the other engines wrap; the
	// call-level engine choice is applied per call (see call.engine).
	ev, err := diffusion.NewEngineOpts(c.inst, diffusion.EngineOptions{
		Engine: diffusion.EngineMC, Model: cfg.model,
		Samples: cfg.samples, Seed: seed,
		LiveEdgeMemBudget: cfg.memBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	for k := range c.engines {
		if len(c.engines) < maxEnginePools {
			break
		}
		if k != c.defaultKey {
			delete(c.engines, k)
		}
	}
	ep := &enginePool{proto: ev.(*diffusion.Estimator)}
	c.engines[key] = ep
	return ep, nil
}

// call is one resolved campaign call: the effective configuration, the
// sequence number, and the RNG stream seeds derived from them.
type call struct {
	cfg config
	seq uint64
	// seed drives the call's possible worlds (the estimator coin). It is
	// the campaign seed unless the call pinned its own with WithSeed, so
	// unpinned calls share worlds — and live-edge rows, and world-cache
	// snapshots — with every other unpinned call.
	seed uint64
	// scorerSeed decorrelates the solver's snapshot-selection stream. A
	// pinned call uses the fixed derivation seed ^ 0x5c04e — core's own
	// default — so its results depend on the seed alone; an unpinned call
	// derives it from the call sequence number, drawing fresh, reproducible
	// selection noise per call.
	scorerSeed uint64
	// degraded records that the campaign's degradation hook lowered this
	// call's sample count below what was requested (see WithDegradation);
	// the call's Results report it.
	degraded bool
}

// newCall applies call-level overrides and assigns the next sequence
// number.
func (c *Campaign) newCall(opts []Option) (call, error) {
	cfg, err := c.callConfig(opts)
	if err != nil {
		return call{}, err
	}
	cl := call{cfg: cfg, seq: c.seq.Add(1), seed: cfg.seed}
	if cfg.degrade != nil {
		// Graceful degradation: the hook may downgrade the call to fewer
		// Monte-Carlo worlds (never more, never below one world). The
		// degraded sample count keys its own engine pool, so a ladder of a
		// few rungs stays warm per rung.
		if eff := max(cfg.degrade(cfg.samples), 1); eff < cfg.samples {
			cl.cfg.samples = eff
			cl.degraded = true
		}
	}
	if cfg.seedPinned {
		cl.scorerSeed = cl.seed ^ 0x5c04e
	} else {
		cl.scorerSeed = rng.DeriveStream(cl.seed^0x5c04e, cl.seq)
	}
	return cl, nil
}

// callConfig applies a call's options over the campaign's and resolves auto
// by the campaign's *current* size (ApplyEdges growth included), so every
// downstream consumer — pools, core dispatch, results — sees a concrete
// engine name. It takes no call sequence number.
func (c *Campaign) callConfig(opts []Option) (config, error) {
	base := c.cfg
	base.seedPinned = false // pinning is a call-level property
	cfg, err := base.apply(opts)
	if err != nil {
		return config{}, err
	}
	if cfg.engine == diffusion.EngineAuto {
		c.mu.Lock()
		cfg.engine = diffusion.AutoEngine(c.inst.G.NumNodes(), c.inst.G.NumEdges())
		c.mu.Unlock()
	}
	return cfg, nil
}

// progressFor wraps the call's progress sink, stamping each event with the
// emitting algorithm and the call sequence number.
func (cl *call) progressFor(algo string) progress.Func {
	fn := cl.cfg.progress
	if fn == nil {
		return nil
	}
	seq := cl.seq
	return func(e progress.Event) {
		e.Algorithm = algo
		e.Call = seq
		fn(e)
	}
}

// callEngines is one call's resolved evaluation set: per requested stream
// seed, an evaluator over the campaign's shared state and the estimator view
// it measures through. The whole set resolves under one campaign lock hold,
// so a concurrent ApplyEdges lands entirely before or entirely after it —
// a call's engines always agree on the graph view (views[i].Inst is that
// view; use it, not the campaign's, for everything the call derives).
type callEngines struct {
	evs   []diffusion.Evaluator
	views []*diffusion.Estimator
	// sketch is the SSR sample state checked out for the call (nil when
	// none was pooled or the call runs another engine); sketchPut re-pools
	// the state the solve produced, under the checkout's epoch stamp.
	sketch    *sketch.Warm
	sketchPut func(*sketch.Warm)
	release   func(error)
}

// enginesFor resolves one evaluator per seed for the call configuration: a
// view of the pool's shared estimator carrying the call's context and worker
// count, wrapped in a (pooled, epoch-stamped) world cache when the call runs
// the worldcache engine. With bare set the evaluators stay plain estimator
// views regardless of the configured engine (the baselines evaluate whole
// deployments only). The release func must be invoked with the call's final
// error; it re-pools checked-out world caches only on success.
func (c *Campaign) enginesFor(ctx context.Context, cfg config, seeds []uint64, bare, sketchDirtyOK bool) (*callEngines, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ce := &callEngines{release: func(error) {}, sketchPut: func(*sketch.Warm) {}}
	var puts []func(error)
	for _, seed := range seeds {
		ep, err := c.poolLocked(cfg, seed)
		if err != nil {
			return nil, err
		}
		if !bare && cfg.engine == diffusion.EngineWorldCache {
			wc, view, epoch := ep.checkout(ctx, cfg.workers)
			ep := ep
			puts = append(puts, func(callErr error) {
				if callErr == nil {
					ep.put(wc, epoch)
				}
			})
			ce.evs = append(ce.evs, wc)
			ce.views = append(ce.views, view)
		} else { // mc, ssr: the estimator itself
			view := ep.view(ctx, cfg.workers)
			ce.evs = append(ce.evs, view)
			ce.views = append(ce.views, view)
		}
		if !bare && cfg.engine == diffusion.EngineSSR && len(ce.evs) == 1 {
			// The call's main seed also keys its SSR sample pool; the
			// scorer seed's pool (pinned calls) never holds sketch state.
			w, epoch := ep.takeSketch(sketchDirtyOK)
			ce.sketch = w
			ep := ep
			ce.sketchPut = func(nw *sketch.Warm) { ep.putSketch(nw, epoch) }
		}
	}
	if len(puts) > 0 {
		ce.release = func(callErr error) {
			for _, put := range puts {
				put(callErr)
			}
		}
	}
	return ce, nil
}

// Solve runs S3CA, the paper's approximation algorithm, against the
// campaign's shared engine. Cancelling ctx aborts mid-iteration with an
// error wrapping ctx.Err() and the partial statistics.
func (c *Campaign) Solve(ctx context.Context, opts ...Option) (*Result, error) {
	cl, err := c.newCall(opts)
	if err != nil {
		return nil, err
	}
	// The snapshot-selection scorer is an independent engine over a
	// decorrelated stream. For pinned calls the stream is stable, so pool
	// it like the main engine and warm calls reuse its materialized worlds
	// too; unpinned calls draw a fresh stream per call (by design), so
	// pooling would only grow the engine map — let the solver construct
	// the scorer internally instead.
	seeds := []uint64{cl.seed}
	if cl.cfg.seedPinned {
		seeds = append(seeds, cl.scorerSeed)
	}
	ce, err := c.enginesFor(ctx, cl.cfg, seeds, false, false)
	if err != nil {
		return nil, err
	}
	view := ce.views[0]
	inst := view.Inst
	sol, err := core.SolveCtx(ctx, inst, cl.coreOptions(ce))
	if err != nil {
		ce.release(err)
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	ce.sketchPut(sol.SketchWarm)
	var r *Result
	if wc, ok := ce.evs[0].(*diffusion.WorldCache); ok {
		// The solver leaves the snapshot on its last trial. Rebase it on the
		// answer before it is pooled, so later ApplyEdges batches patch the
		// answer's worlds and a Resolve from it starts warm; the rebase's
		// measurement is exactly Evaluate's, so it is the result's.
		r = resultOf("S3CA", inst, sol.Deployment, wc.Rebase(sol.Deployment), cl.cfg.samples, cl.degraded)
	} else {
		r = resultFrom("S3CA", inst, sol.Deployment, view, cl.cfg.samples, cl.degraded)
	}
	// The final measurement runs on the ctx-carrying view, which breaks out
	// of its world sweep when cancelled; never hand partial sums to a caller
	// or pool a half-rebased snapshot.
	if err := ctx.Err(); err != nil {
		ce.release(err)
		return nil, fmt.Errorf("s3crm: final measurement aborted: %w", err)
	}
	ce.release(nil)
	r.ExploredRatio = float64(sol.Stats.ExploredNodes) / float64(inst.G.NumNodes())
	copySketchStats(r, sol.Stats)
	return r, nil
}

// coreOptions is the S3CA solver configuration of one campaign call: the
// call's settings plus the evaluators, pinned scorer and pooled SSR sample
// state its engines resolved.
func (cl *call) coreOptions(ce *callEngines) core.Options {
	var scorer diffusion.Evaluator
	if len(ce.evs) > 1 {
		scorer = ce.evs[1]
	}
	return core.Options{
		Engine:            cl.cfg.engine,
		Model:             cl.cfg.model,
		LiveEdgeMemBudget: cl.cfg.memBudget,
		Samples:           cl.cfg.samples,
		Seed:              cl.seed,
		ScorerSeed:        cl.scorerSeed,
		Workers:           cl.cfg.workers,
		GPILimit:          cl.cfg.gpiLimit,
		Epsilon:           cl.cfg.epsilon,
		Delta:             cl.cfg.delta,
		Evaluator:         ce.evs[0],
		Scorer:            scorer,
		SketchWarm:        ce.sketch,
		SketchPool:        true,
		Progress:          cl.progressFor("S3CA"),
	}
}

// copySketchStats surfaces the SSR engine's build instrumentation and
// certificate on a public result; other engines leave the fields zero (and
// absent from the JSON encoding).
func copySketchStats(r *Result, st core.Stats) {
	r.SketchWorkers = st.SketchWorkers
	r.SketchBuildNs = st.SketchBuildNs
	r.SketchReused = st.SketchReused
	r.SketchRedrawn = st.SketchRedrawn
	r.SketchRounds = st.SketchRounds
	r.SketchSamples = st.SketchSamples
	r.SketchLB, r.SketchUB = st.SketchLB, st.SketchUB
	r.SketchCertified = st.SketchCertified
}

// RunBaseline runs one of the paper's comparison algorithms (see Baselines)
// against the campaign's shared engine. Cancelling ctx aborts between
// greedy steps with an error wrapping ctx.Err().
func (c *Campaign) RunBaseline(ctx context.Context, name string, opts ...Option) (*Result, error) {
	cl, err := c.newCall(opts)
	if err != nil {
		return nil, err
	}
	// The baselines have no incremental search paths: they evaluate whole
	// deployments, so the bare estimator view serves every engine (no
	// world cache is checked out); under ssr the engine name still selects
	// sketch-based candidate pruning.
	ce, err := c.enginesFor(ctx, cl.cfg, []uint64{cl.seed}, true, false)
	if err != nil {
		return nil, err
	}
	view := ce.views[0]
	inst := view.Inst
	cfg := baselines.Config{
		Engine:       cl.cfg.engine,
		Model:        cl.cfg.model,
		Samples:      cl.cfg.samples,
		Seed:         cl.seed,
		Workers:      cl.cfg.workers,
		CandidateCap: cl.cfg.candidateCap,
		LimitedK:     cl.cfg.limitedK,
		Evaluator:    view,
		Progress:     cl.progressFor(name),
	}
	var o *baselines.Outcome
	switch name {
	case "IM-U":
		o, err = baselines.IM(ctx, inst, cfg)
	case "IM-L":
		cfg.Strategy = baselines.Limited
		o, err = baselines.IM(ctx, inst, cfg)
	case "PM-U":
		o, err = baselines.PM(ctx, inst, cfg)
	case "PM-L":
		cfg.Strategy = baselines.Limited
		o, err = baselines.PM(ctx, inst, cfg)
	case "IM-S":
		o, err = baselines.IMS(ctx, inst, cfg)
	default:
		return nil, fmt.Errorf("s3crm: unknown baseline %q (want one of %v)", name, Baselines())
	}
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	r := resultFrom(name, inst, o.Deployment, view, cl.cfg.samples, cl.degraded)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("s3crm: final measurement aborted: %w", err)
	}
	return r, nil
}

// Evaluate measures one hand-built deployment against the campaign's shared
// possible worlds: the expected benefit, the closed-form coupon cost, the
// redemption rate and hop statistics.
func (c *Campaign) Evaluate(ctx context.Context, dep Deployment, opts ...Option) (*Result, error) {
	rs, err := c.EvaluateBatch(ctx, []Deployment{dep}, opts...)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// EvaluateBatch measures many candidate deployments against the same shared
// Monte-Carlo samples — common random numbers, so differences between the
// results are far less noisy than independently sampled evaluations, and
// any live-edge row materialized by one deployment serves the rest. The
// deployments are evaluated concurrently across the campaign's workers;
// results are returned in input order and are bit-identical to sequential
// evaluation.
func (c *Campaign) EvaluateBatch(ctx context.Context, deps []Deployment, opts ...Option) ([]*Result, error) {
	cl, err := c.newCall(opts)
	if err != nil {
		return nil, err
	}
	ce, err := c.enginesFor(ctx, cl.cfg, []uint64{cl.seed}, true, false)
	if err != nil {
		return nil, err
	}
	base := ce.views[0]
	inst := base.Inst
	ds := make([]*diffusion.Deployment, len(deps))
	for i, dep := range deps {
		if ds[i], err = buildDeploymentFor(inst, dep); err != nil {
			return nil, err
		}
	}
	// The deployments fan out across the call's workers, each worker
	// evaluating sequentially on its own view of the base view (worlds are
	// stateless, so the fan-out is bit-identical to one loop); a lone
	// deployment keeps the configured per-evaluation parallelism instead. A
	// cancelled view breaks out of its world sweep with partial sums, so a
	// result finished under a cancelled ctx is garbage and is never stored.
	results := make([]*Result, len(ds))
	par.Each(len(ds), cl.cfg.workers, func() func(int) {
		view := base
		if len(ds) > 1 {
			view = base.View(ctx, 0)
		}
		return func(i int) {
			r := resultFrom("custom", inst, ds[i], view, cl.cfg.samples, cl.degraded)
			if ctx.Err() == nil {
				results[i] = r
			}
		}
	})
	if err := ctx.Err(); err != nil {
		done := 0
		for _, r := range results {
			if r != nil {
				done++
			}
		}
		return nil, fmt.Errorf("s3crm: evaluate aborted after %d of %d deployments: %w", done, len(ds), err)
	}
	return results, nil
}

// resultFrom measures a solved deployment with the given estimator view and
// assembles the public result. samples is the call's effective Monte-Carlo
// world count and degraded whether a degradation hook lowered it below the
// request; both are reported alongside the standard-error bar derived from
// the per-world benefit variance the kernels accumulate.
func resultFrom(name string, inst *diffusion.Instance, d *diffusion.Deployment, est diffusion.Evaluator, samples int, degraded bool) *Result {
	return resultOf(name, inst, d, est.Evaluate(d), samples, degraded)
}

// resultOf assembles the public result from an already-measured diffusion
// result — the warm-restart path hands in its final Rebase measurement
// instead of paying one more full simulation.
func resultOf(name string, inst *diffusion.Instance, d *diffusion.Deployment, res diffusion.Result, samples int, degraded bool) *Result {
	seedCost := inst.SeedCostOf(d)
	scCost := inst.SCCostOf(d)
	out := &Result{
		Algorithm:        name,
		Coupons:          map[int]int{},
		Benefit:          res.Benefit,
		SeedCost:         seedCost,
		CouponCost:       scCost,
		TotalCost:        seedCost + scCost,
		FarthestHop:      res.FarthestHop,
		EffectiveSamples: samples,
		Degraded:         degraded,
	}
	if out.TotalCost > 0 {
		out.RedemptionRate = out.Benefit / out.TotalCost
		// The costs are deterministic in the deployment, so the objective's
		// Monte-Carlo error is the benefit's scaled by 1/cost.
		out.StdErr = stats.StdErrFromMoments(samples, res.Benefit, res.BenefitSqMean) / out.TotalCost
	}
	for _, s := range d.Seeds() {
		out.Seeds = append(out.Seeds, int(s))
	}
	sort.Ints(out.Seeds)
	for _, v := range d.Allocated() {
		out.Coupons[int(v)] = d.K(v)
	}
	return out
}
