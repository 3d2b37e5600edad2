// Package sketch is the SSR sketch solver: a reverse-sampling engine for
// the S3CRM objective in the TIM/IMM/OPIM family, with an adaptive
// (1−1/e−ε) stopping rule.
//
// Plain RIS breaks on S3CRM because a node's reach depends on its coupon
// count. SSR sampling (Tong et al., "Coupon Advertising in Online Social
// Systems") repairs this by drawing, per sampled root, one RR set per
// coupon index, each gated by the acceptance probability of that coupon
// surviving the redemption-capacity competition — so "the (c+1)-th coupon
// of node u reaches root r" becomes a set-cover statement and the ID loop's
// seed/coupon selection can run directly against cover counts, never
// forward-simulating. Two independent sample collections are grown in
// doubling rounds OPIM-C style: greedy cover on the selection collection,
// validation of the result on the other, and martingale bounds (bounds.go)
// that certify a (1−1/e−ε) approximation of the sketch objective with
// probability 1−δ, replacing any fixed sample-count knob.
//
// The sketch objective relaxes the forward process to first order: coupons
// held by intermediate nodes on multi-hop reverse paths are not re-gated,
// and roots are drawn from the pivot closure (truncated on huge graphs).
// The caller therefore always forward-measures the returned deployment for
// reporting; the sketches only drive selection (see DESIGN.md, "SSR sketch
// solver").
//
// The build is the solver's hot path and parallelizes without perturbing a
// single bit: every draw is keyed by the global sample index, so extension
// shards by contiguous sample ranges across Workers goroutines and merges
// in sample order, and a certified Warm state can be pooled and re-used by
// a later call — replayed exactly when nothing changed, or patched after
// append-only churn by re-drawing only watermark-invalidated samples.
package sketch

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"s3crm/internal/diffusion"
	"s3crm/internal/rng"
)

// The adaptive sampling schedule: roots are drawn from at most universeCap
// nodes, and each collection doubles from minSamples up to maxSamples, the
// cap that stops an uncertifiable instance (Result.Certified then reports
// false).
const (
	universeCap = 1 << 18
	minSamples  = 256
	maxSamples  = 1 << 19
)

// RateTolerance is the snapshot tie-break shared with core's ID loop:
// redemption rates within this relative fraction of the running maximum
// tie, and ties prefer the later — larger — deployment. The paper reports
// that every algorithm's total cost approximately equals Binv, which
// requires exactly this tie-break: once the rate plateaus, the search keeps
// investing the remaining budget.
const RateTolerance = 0.002

// BestRate returns the snapshot a trajectory's rates select: the last index
// whose rate lies within RateTolerance of the running maximum over the
// rates up to it. It returns −1 for no rates.
func BestRate(rates []float64) int {
	best, maxRate := -1, 0.0
	for i, r := range rates {
		first := best < 0
		if first || r > maxRate {
			maxRate = r
		}
		if first || r >= maxRate*(1-RateTolerance) {
			best = i
		}
	}
	return best
}

// RNG stream tags: the two sample collections draw from per-call streams
// derived off the solve seed, disjoint from each other and from every
// engine stream (which derive with different tags or use the seed raw).
const (
	streamSelect   = 0x55f1
	streamValidate = 0x55f2
)

// Pivot is one phase-1 pivot source: a seed candidate with its coupon count
// and closed-form standalone redemption rate, in queue (descending-rate)
// order. It mirrors core's pivot entries.
type Pivot struct {
	Node int32
	K    int
	Rate float64
}

// Config parameterizes Solve.
type Config struct {
	Inst *diffusion.Instance
	// Model is the triggering model RR sets are drawn under:
	// diffusion.ModelIC (default) or diffusion.ModelLT. Draws are keyed by
	// sample index off dedicated streams — deliberately independent of the
	// forward engines' diffusion substrate, so the selected deployment is
	// identical whichever substrate later measures it.
	Model string
	// Pivots is phase 1's queue, descending standalone rate.
	Pivots []Pivot
	// Seed pins the per-call RNG streams; equal seeds reproduce the exact
	// sample sets, moves and sample counts.
	Seed uint64
	// Epsilon and Delta set the accuracy target: the stopping rule ends the
	// doubling schedule once the selected cover is certified within
	// (1−1/e−ε)·OPT of the sketch objective with probability 1−δ. Both must
	// lie in (0, 1).
	Epsilon, Delta float64
	// SpendBudget returns the full-budget greedy prefix instead of the
	// argmax-rate snapshot, mirroring core.Options.SpendBudget.
	SpendBudget bool
	// ScoreBatch, when non-nil, forward-measures candidate snapshots'
	// redemption rates and snapshot selection runs on them instead of the
	// sketch's own validation estimates. The sketch objective's first-order
	// relaxation overestimates coupon marginals (a holder's own activation
	// is not re-checked), so the greedy's *order* is sound but its
	// estimated rate peak lands too late; a handful of exact forward
	// measurements over the move trajectory — deployments are small, so
	// each costs O(active · scan), not O(edges) — pins the peak where the
	// reported metric actually is. Solve calls it once with at most 32
	// independent deployments, which the callee may score concurrently (do
	// not retain), and reads their rates back in order.
	ScoreBatch func([]*diffusion.Deployment) []float64
	// Workers caps the goroutines sample extension, gate-DP prefill and
	// ScoreBatch fan-out may use (≤1 means sequential). Draws are keyed by
	// sample index, never by worker, so every worker count produces
	// byte-identical collections and bit-identical Results.
	Workers int
	// Warm, when non-nil and compatible with this Config, seeds the solve
	// with a pooled sample state from an earlier call instead of building
	// from scratch. An exact, unchurned Warm replays the cold doubling
	// schedule bit-identically (extension is prefix-preserving and the
	// cover passes are prefix-limited). A churned Warm is used only under
	// WarmApprox: its watermark-invalidated samples are re-drawn over the
	// patched graph and the rest reused, which is ε-accurate rather than
	// bit-exact because the root universe stays frozen between full builds.
	Warm *Warm
	// WarmApprox permits reusing a Warm that is no longer bit-exact
	// (churned since it was built). Resolve-style callers set it; plain
	// Solve callers leave it false so pinned-seed solves stay reproducible.
	WarmApprox bool
	// OnRound, when non-nil, receives one callback per doubling round with
	// the total samples drawn, the relative bound gap 1 − LB/UB, and the
	// cumulative nanoseconds spent building samples.
	OnRound func(round, samples int, gap float64, buildNs int64)
	// Ctx aborts the solve between rounds when cancelled.
	Ctx context.Context
}

// Result is a solved sketch selection.
type Result struct {
	Deployment *diffusion.Deployment
	Rounds     int     // doubling rounds run
	Samples    int     // total samples visible to the final round, both collections
	LB, UB     float64 // final benefit bounds on the sketch objective
	Certified  bool    // the (1−1/e−ε, δ) target was met before maxSamples
	// Steps is the selected prefix of greedy moves, each with its
	// validation-collection benefit estimate and closed-form cumulative
	// cost; Deployment is its replay.
	Steps   []diffusion.TrajectoryPoint
	Workers int   // effective worker cap the build ran under
	BuildNs int64 // nanoseconds spent drawing/patching samples
	Reused  int   // samples reused from a churned Warm (patch path)
	Redrawn int   // samples re-drawn from a churned Warm (patch path)
	Warm    *Warm // poolable sample state for a later compatible call
}

// Solve grows the two SSR sample collections through doubling rounds until
// the stopping rule certifies the greedy cover, then returns the
// rate-argmax snapshot of the move sequence (or the full-budget prefix
// under SpendBudget), scored on the validation collection.
func Solve(cfg Config) (*Result, error) {
	if cfg.Inst == nil {
		return nil, fmt.Errorf("sketch: nil instance")
	}
	if err := validateAccuracy(cfg.Epsilon, cfg.Delta); err != nil {
		return nil, err
	}
	lt := false
	switch cfg.Model {
	case "", diffusion.ModelIC:
	case diffusion.ModelLT:
		lt = true
	default:
		return nil, fmt.Errorf("sketch: unknown model %q (want one of %v)", cfg.Model, diffusion.Models())
	}
	n := cfg.Inst.G.NumNodes()
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}

	res := &Result{Deployment: diffusion.NewDeployment(n), Workers: workers}
	if len(cfg.Pivots) == 0 {
		// Nothing affordable: the empty deployment is optimal and needs no
		// samples to certify.
		res.Certified = true
		return res, nil
	}
	sig := pivotSig(cfg.Pivots)

	// Bind the sample state: an exact pooled Warm replays the cold schedule
	// bit-identically; a churned one (WarmApprox callers only) is patched —
	// invalidated samples re-drawn, the rest reused; otherwise build cold.
	var (
		u          *universe
		ga         *gates
		st1, st2   *store
		buildNs    int64
		exactState = true
	)
	if w := cfg.Warm; w.usable(cfg.Inst, cfg.Seed, lt) {
		if w.exact && !w.Dirty() && w.sig == sig {
			u, ga, st1, st2 = w.u, w.ga, w.st1, w.st2
		} else if cfg.WarmApprox {
			start := time.Now()
			w.patch(workers)
			buildNs += int64(time.Since(start))
			res.Reused, res.Redrawn = w.Reused, w.Redrawn
			u, ga, st1, st2 = w.u, w.ga, w.st1, w.st2
			exactState = false
		}
	}
	if st1 == nil {
		u = buildUniverse(cfg.Inst, cfg.Pivots, universeCap)
		if u.total <= 0 {
			res.Certified = true
			return res, nil
		}
		ga = newGates(cfg.Inst)
		st1 = newStore(cfg.Inst, u, ga, rng.DeriveStream(cfg.Seed, streamSelect), lt)
		st2 = newStore(cfg.Inst, u, ga, rng.DeriveStream(cfg.Seed, streamValidate), lt)
	}

	// Confidence is split evenly across the worst-case round count
	// (OPIM-C's δ/(3·imax) schedule), so the union bound over every round's
	// two tails holds at 1−δ however early the rule stops.
	imax := 1
	for t := minSamples; t < maxSamples; t *= 2 {
		imax++
	}
	a := math.Log(3 * float64(imax) / cfg.Delta)
	target := 1 - 1/math.E - cfg.Epsilon

	// An exact warm starts the schedule over from minSamples: extension no-ops
	// until theta passes the pooled length and the cover passes are limited
	// to the round's prefix, so the replay is bit-identical to the cold
	// run. A patched warm skips straight to its pooled length — its earlier
	// rounds already certified once and the patch preserved sample count.
	thetaStart := minSamples
	if !exactState && st1.len() > thetaStart {
		thetaStart = st1.len()
	}

	var moves []move
	var cov2 []int
	var scale float64
	for theta, round := thetaStart, 1; ; theta, round = theta*2, round+1 {
		start := time.Now()
		st1.extend(theta, workers)
		st2.extend(theta, workers)
		buildNs += int64(time.Since(start))
		scale = u.total / float64(theta)
		m := newMaximizer(cfg.Inst, st1, scale, theta)
		m.run(cfg.Pivots)
		moves = m.moves
		cov2 = replay(moves, st2, theta)
		covSel := 0
		if len(cov2) > 0 {
			covSel = cov2[len(cov2)-1]
		}
		// LB: the validation collection's concentration lower bound on the
		// greedy deployment's benefit. UB: the selection collection's upper
		// bound on the greedy cover, amplified to OPT by (1−1/e)-greedy
		// optimality and clamped at the universe's total benefit.
		lb := scale * lowerCount(float64(covSel), a)
		ub := scale * upperCount(float64(m.covCnt), a) / (1 - 1/math.E)
		if ub > u.total {
			ub = u.total
		}
		if lb > ub {
			lb = ub
		}
		res.Rounds, res.Samples = round, 2*theta
		res.LB, res.UB = lb, ub
		gap := 1.0
		if ub > 0 {
			gap = 1 - lb/ub
		}
		if cfg.OnRound != nil {
			cfg.OnRound(round, res.Samples, gap, buildNs)
		}
		// The cancellation check sits after the round report so a sink that
		// cancels on what it just saw aborts here — before the certified
		// break, because a cancelled solve must fail even when the round it
		// was cancelled from would have certified.
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return nil, err
			}
		}
		if ub > 0 && lb/ub >= target {
			res.Certified = true
			break
		}
		if theta >= maxSamples {
			break
		}
	}
	res.BuildNs = buildNs

	// Snapshot selection: the paper's argmax-rate over the investment
	// trajectory. With a forward scorer the argmax runs on exact
	// measurements of candidate prefixes; otherwise rates are estimated on
	// the validation collection so the pick is decorrelated from the
	// greedy's own sampling noise. Ties within RateTolerance prefer the
	// later (larger) deployment.
	bestIdx := len(moves) - 1
	if !cfg.SpendBudget {
		rates := make([]float64, len(moves))
		for i, mv := range moves {
			rates[i] = ratio(scale*float64(cov2[i]), mv.cost)
		}
		if cfg.ScoreBatch != nil {
			bestIdx = selectForward(cfg.ScoreBatch, moves, rates, n)
		} else {
			bestIdx = BestRate(rates)
		}
	}
	for i, mv := range moves[:bestIdx+1] {
		res.Steps = append(res.Steps, diffusion.TrajectoryPoint{
			Move: mv.Move, Benefit: scale * float64(cov2[i]), Cost: mv.cost,
		})
	}
	res.Deployment = diffusion.Replay(n, res.Steps)
	res.Warm = &Warm{
		inst: cfg.Inst, seed: cfg.Seed, lt: lt,
		sig: sig,
		u:   u, ga: ga, st1: st1, st2: st2,
		exact: exactState,
	}
	return res, nil
}

// maxScored bounds the forward measurements snapshot selection may spend:
// short trajectories are scored exhaustively; long ones score the top half
// by sketch-estimated rate plus an even sweep over the move index, so a
// biased estimate cannot hide an entire spending regime from the scorer.
const maxScored = 32

// selectForward picks the snapshot index by forward-measured rate over a
// bounded candidate set of greedy prefixes, each handed to score as an
// independent clone of the prefix; est holds the prefixes' sketch-estimated
// rates.
func selectForward(score func([]*diffusion.Deployment) []float64, moves []move, est []float64, n int) int {
	if len(moves) == 0 {
		return -1
	}
	cand := make([]bool, len(moves))
	if len(moves) <= maxScored {
		for i := range cand {
			cand[i] = true
		}
	} else {
		byRate := make([]int, len(moves))
		for i := range byRate {
			byRate[i] = i
		}
		sort.Slice(byRate, func(a, b int) bool { return est[byRate[a]] > est[byRate[b]] })
		for _, i := range byRate[:maxScored/2] {
			cand[i] = true
		}
		step := float64(len(moves)-1) / float64(maxScored/2-1)
		for j := 0; j < maxScored/2; j++ {
			cand[int(float64(j)*step+0.5)] = true
		}
		cand[len(moves)-1] = true
	}
	d := diffusion.NewDeployment(n)
	var deps []*diffusion.Deployment
	var idxs []int
	for i, mv := range moves {
		d.Apply(mv.Move)
		if cand[i] {
			deps = append(deps, d.Clone())
			idxs = append(idxs, i)
		}
	}
	return idxs[BestRate(score(deps))]
}

// replay marks each move's cover lists against the first limit samples of
// an independent collection, returning the cumulative covered count after
// every move — the unbiased per-snapshot benefit estimates the selection
// pass cannot provide for itself (its counts are optimized, hence biased
// upward).
func replay(moves []move, st *store, limit int) []int {
	covered := make([]bool, limit)
	cnt := 0
	mark := func(list []int32) {
		for _, s := range list {
			if int(s) >= limit {
				break // ascending sample order
			}
			if !covered[s] {
				covered[s] = true
				cnt++
			}
		}
	}
	out := make([]int, len(moves))
	for i, mv := range moves {
		if mv.Seed {
			mark(st.rootList(mv.Node))
		}
		for c := int(mv.slotLo); c < mv.K; c++ {
			mark(st.slotList(c, mv.Node))
		}
		out[i] = cnt
	}
	return out
}
