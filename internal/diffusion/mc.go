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

	poolOnce sync.Once
	pool     sync.Pool // of *simScratch, reused across evaluations

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

// simScratch holds per-world propagation state, reused across worlds via
// epoch stamping so large arrays are never cleared.
type simScratch struct {
	epoch int32
	stamp []int32 // stamp[v] == epoch ⇒ v active in current world
	seen  []int32 // seen[v] == epoch ⇒ v examined (activated or probed)
	hop   []int32
	queue []int32
}

func newSimScratch(n int) *simScratch {
	return &simScratch{
		stamp: make([]int32, n),
		seen:  make([]int32, n),
		hop:   make([]int32, n),
		queue: make([]int32, 0, 256),
	}
}

func (s *simScratch) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped; clear stamps once per 2^31 worlds
		for i := range s.stamp {
			s.stamp[i] = -1
			s.seen[i] = -1
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
}

func (s *simScratch) active(v int32) bool { return s.stamp[v] == s.epoch }

func (s *simScratch) activate(v, hop int32) {
	s.stamp[v] = s.epoch
	s.hop[v] = hop
	s.queue = append(s.queue, v)
}

// see marks v as examined this world and reports whether it was new.
func (s *simScratch) see(v int32) bool {
	if s.seen[v] == s.epoch {
		return false
	}
	s.seen[v] = s.epoch
	return true
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

	// weight is the fraction of the full sample count a partial result
	// covers; used when combining per-worker results.
	weight float64
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

// Evaluate runs the full simulation and returns all aggregate metrics.
func (e *Estimator) Evaluate(d *Deployment) Result {
	if e.Samples <= 0 {
		panic("diffusion: Estimator with non-positive sample count")
	}
	e.evals.Add(1)
	workers := e.Workers
	if workers <= 1 || e.Samples < 4*workers {
		return e.runBlocks(d, 0, e.Samples)
	}
	results := make([]Result, workers)
	var wg sync.WaitGroup
	per := e.Samples / workers
	extra := e.Samples % workers
	start := 0
	for w := 0; w < workers; w++ {
		count := per
		if w < extra {
			count++
		}
		lo, hi := start, start+count
		start = hi
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			results[w] = e.runBlocks(d, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total Result
	for w := 0; w < workers; w++ {
		total.Benefit += results[w].Benefit * results[w].weight
		total.RealizedCost += results[w].RealizedCost * results[w].weight
		total.Activated += results[w].Activated * results[w].weight
		total.FarthestHop += results[w].FarthestHop * results[w].weight
		total.Explored += results[w].Explored * results[w].weight
		total.BenefitSqMean += results[w].BenefitSqMean * results[w].weight
	}
	total.weight = 1
	return total
}

func (e *Estimator) getScratch() *simScratch {
	e.poolOnce.Do(func() {
		n := e.Inst.G.NumNodes()
		e.pool.New = func() any { return newSimScratch(n) }
	})
	return e.pool.Get().(*simScratch)
}

func (e *Estimator) putScratch(s *simScratch) { e.pool.Put(s) }

// worldRecord captures one world's final state for the world-cache engine:
// the activated nodes in activation order and, for each, where its coupon
// offer scan stopped. scanStop is the adjacency position of the first
// neighbour never offered a coupon (the node's out-degree when the scan ran
// to the end of the list); scanRed is how many coupons the scan redeemed. A
// scan with scanRed == K stopped for lack of coupons, so granting one more
// coupon resumes exactly at scanStop.
type worldRecord struct {
	nodes    []int32
	scanStop []int32
	scanRed  []int32
}

// reset empties the record, keeping its capacity for the next simulation.
func (r *worldRecord) reset() {
	r.nodes = r.nodes[:0]
	r.scanStop = r.scanStop[:0]
	r.scanRed = r.scanRed[:0]
}

// simWorld propagates one possible world for deployment d using scratch s,
// returning the world's benefit, realized SC cost, farthest hop, activated
// count and examined-node count. When rec is non-nil the world's activation
// order and scan state are appended to it (the world-cache engine's
// snapshot). This is the lone-world kernel: the world cache re-simulates
// isolated worlds through it, and the tests fold it over worlds as the
// reference the 64-world block kernel (simBlock) must reproduce exactly.
func (e *Estimator) simWorld(s *simScratch, d *Deployment, world uint64, rec *worldRecord) (worldB, worldC float64, maxHop int32, activated, explored int) {
	// Rows come through OutRow so the kernel works on every graph lineage:
	// on plain CSR graphs keys is nil and the row's base offset doubles as
	// the coin-flip identity (the historical fast path, bit-for-bit); on
	// overlay or key-remapped graphs the per-edge stable keys identify the
	// coins instead.
	g := e.Inst.G
	le := e.Live
	s.reset()
	for _, seed := range d.Seeds() {
		if !s.active(seed) {
			s.activate(seed, 0)
			if s.see(seed) {
				explored++
			}
		}
	}
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		worldB += e.Inst.Benefit[v]
		if s.hop[v] > maxHop {
			maxHop = s.hop[v]
		}
		coupons := d.K(v)
		stop, redeemed := 0, 0
		if coupons > 0 {
			targets, _, keys, kbase := g.OutRow(v)
			base := uint64(kbase)
			j := 0
			for ; j < len(targets); j++ {
				if redeemed >= coupons {
					break
				}
				t := targets[j]
				if s.active(t) {
					continue // already active: no coupon consumed
				}
				if s.see(t) {
					explored++ // probed: a coin was flipped for t
				}
				ek := base + uint64(j)
				if keys != nil {
					ek = uint64(uint32(keys[j]))
				}
				if le.Live(world, ek) {
					s.activate(t, s.hop[v]+1)
					worldC += e.Inst.SCCost[t]
					redeemed++
				}
			}
			stop = j
		}
		if rec != nil {
			rec.nodes = append(rec.nodes, v)
			rec.scanStop = append(rec.scanStop, int32(stop))
			rec.scanRed = append(rec.scanRed, int32(redeemed))
		}
	}
	return worldB, worldC, maxHop, len(s.queue), explored
}

// String implements fmt.Stringer for debugging.
func (r Result) String() string {
	return fmt.Sprintf("Result{B=%.4g, Creal=%.4g, act=%.3g, hop=%.3g}",
		r.Benefit, r.RealizedCost, r.Activated, r.FarthestHop)
}
