package diffusion

import "fmt"

// Engine names accepted by NewEngineOpts and threaded through core.Options,
// baselines.Config and the public s3crm.WithEngine.
const (
	// EngineMC is the plain Monte-Carlo estimator (the paper's setting):
	// every evaluation re-simulates all possible worlds from scratch.
	EngineMC = "mc"
	// EngineWorldCache snapshots the per-world activation state of a base
	// deployment once and evaluates candidate deltas by replaying only the
	// affected frontier per world (see WorldCache). Full evaluations are
	// identical to EngineMC; the incremental paths make the greedy ID loop
	// and the SCM donor scan O(delta) instead of O(full simulation).
	EngineWorldCache = "worldcache"
	// EngineSSR solves through SSR sketches (internal/sketch): per sampled
	// root, coupon-indexed RR sets gated by redemption-capacity acceptance
	// probabilities, with the ID loop's selection run as weighted cover
	// maximization over the samples and an adaptive OPIM-style stopping
	// rule sizing the sample set to a (1−1/e−ε, δ) certificate instead of a
	// fixed Samples knob. Reported metrics still come from one forward
	// evaluation of the selected deployment (this evaluator, MC semantics),
	// so all engines agree on what a redemption rate means. The baselines,
	// which have no sketch solver, rank their CandidateCap candidates by
	// reverse-influence-sampling cover counts under this engine instead of
	// raw out-degree.
	EngineSSR = "ssr"
	// EngineAuto resolves to EngineSSR or EngineWorldCache by instance size
	// before any engine is built (see AutoEngine): reverse sampling wins
	// once graphs are large enough that forward world simulation dominates,
	// and the world cache wins below that. Campaign and core resolve the
	// name at call time, so everything downstream (pools, stats, results)
	// sees the concrete engine.
	EngineAuto = "auto"
)

// Engines lists the evaluation engines in documentation order.
func Engines() []string {
	return []string{EngineMC, EngineWorldCache, EngineSSR, EngineAuto}
}

// Auto-selection thresholds: at or above either, AutoEngine picks the SSR
// sketch solver. The crossover in the benchmark suite sits between the
// Epinions-scale profiles (~120k nodes / ~1.6M edges, where worldcache
// solves in tens of milliseconds) and the million-node profile (1M nodes /
// 10M edges, where ssr solves seconds faster in a fraction of the memory);
// the thresholds split that gap.
const (
	AutoSSRNodeThreshold = 200_000
	AutoSSREdgeThreshold = 2_000_000
)

// AutoEngine resolves EngineAuto for an instance of the given size.
func AutoEngine(nodes, edges int) string {
	if nodes >= AutoSSRNodeThreshold || edges >= AutoSSREdgeThreshold {
		return EngineSSR
	}
	return EngineWorldCache
}

// EngineUsage is the one-line engine synopsis shared by both CLIs' -engine
// flag help and the daemon's /info payload, so the accepted names live in
// one place.
func EngineUsage() string {
	return "mc (plain Monte Carlo), worldcache (incremental world replay), " +
		"ssr (SSR sketch solver), " +
		"auto (ssr at scale, worldcache below it)"
}

// Evaluator is the evaluation seam every layer of the reproduction talks
// to: the S3CA solver, all baselines and the eval harness estimate B(S, K)
// through this interface, so engines can be swapped without touching the
// search algorithms.
type Evaluator interface {
	// Evaluate runs a full evaluation of the deployment and returns every
	// aggregate metric.
	Evaluate(d *Deployment) Result
	// Benefit estimates B(S, K).
	Benefit(d *Deployment) float64
	// RedemptionRate estimates the S3CRM objective B/(Cseed+Csc), mapping
	// the zero-cost (empty) deployment to 0.
	RedemptionRate(d *Deployment) float64
	// Evals returns the number of full evaluations performed so far, for
	// instrumentation.
	Evals() int64
}

// EngineOptions configures NewEngineOpts: which engine to build, its
// Monte-Carlo parameters, the triggering model that owns per-world edge
// liveness, and — for parity oracles only — the diffusion substrate and
// evaluation kernel the propagation probes that liveness through.
type EngineOptions struct {
	// Engine names the evaluation engine (see Engines); empty means EngineMC.
	Engine string
	// Model names the triggering model deciding per-world edge liveness
	// (see Models); empty means ModelIC. Under ModelLT the instance's
	// in-weights must satisfy the linear-threshold precondition
	// (ValidateLTWeights), checked here so misconfigured instances fail at
	// construction rather than deep inside a solve.
	Model string
	// Samples is the possible-world count; Seed seeds the coin stream.
	Samples int
	Seed    uint64
	// Workers sets evaluation parallelism; <= 1 means sequential.
	Workers int
	// Diffusion selects the edge-liveness substrate (see Diffusions); empty
	// means DiffusionLiveEdge — materialized per-world bitsets with an
	// automatic fall-back to hashing over the memory budget.
	Diffusion string
	// LiveEdgeMemBudget caps the bytes the live-edge substrate may commit
	// to materialized worlds (<= 0 means DefaultLiveEdgeMemBudget). Above
	// the cap the engine hashes every probe instead; results are identical.
	LiveEdgeMemBudget int64
	// EvalMode selects the world-evaluation kernel (see EvalModes); empty
	// means EvalBitParallel — 64 worlds per machine word — with an automatic
	// scalar fallback when the configuration yields no liveness substrate to
	// mask block probes from (IC under DiffusionHash). Both kernels produce
	// bit-identical Results; the mode is purely a speed/diagnosis choice.
	EvalMode string
}

// NewEngineOpts constructs the configured evaluation engine over inst.
// EngineSSR returns a plain Monte-Carlo evaluator — its sketches drive
// selection, not benefit estimation — so all engines agree on Evaluate up
// to floating-point summation order, whatever the substrate.
func NewEngineOpts(inst *Instance, o EngineOptions) (Evaluator, error) {
	var est *Estimator
	switch o.Engine {
	case EngineAuto:
		// Callers normally resolve auto before building (Campaign.newCall,
		// core.SolveCtx); resolve here too so direct engine construction
		// accepts every name Engines() lists.
		o.Engine = AutoEngine(inst.G.NumNodes(), inst.G.NumEdges())
		return NewEngineOpts(inst, o)
	case "", EngineMC, EngineSSR, EngineWorldCache:
		est = NewEstimator(inst, o.Samples, o.Seed)
		est.Workers = o.Workers
	default:
		return nil, fmt.Errorf("diffusion: unknown engine %q (want one of %v)", o.Engine, Engines())
	}
	model, err := normalizeModel(o.Model)
	if err != nil {
		return nil, err
	}
	switch o.Diffusion {
	case "", DiffusionLiveEdge, DiffusionHash:
	default:
		return nil, fmt.Errorf("diffusion: unknown diffusion substrate %q (want one of %v)", o.Diffusion, Diffusions())
	}
	switch o.EvalMode {
	case "", EvalBitParallel, EvalScalar:
		est.EvalMode = o.EvalMode
	default:
		return nil, fmt.Errorf("diffusion: unknown eval mode %q (want one of %v)", o.EvalMode, EvalModes())
	}
	switch model {
	case ModelIC:
		if o.Diffusion != DiffusionHash {
			est.Live = NewLiveEdges(inst.G, o.Samples, est.Coin, o.LiveEdgeMemBudget)
		}
		// Under DiffusionHash the estimator probes the coin directly
		// (Live == nil) — PR 1's behaviour, bit-for-bit.
	case ModelLT:
		if err := ValidateLTWeights(inst.G); err != nil {
			return nil, err
		}
		// LT always probes through the substrate: even hash-per-probe
		// evaluation needs the reverse CSR's in-rows for the categorical
		// walk. Only materialization is gated by the diffusion choice.
		est.Live = NewLTLiveEdges(inst.G, o.Samples, est.Coin, o.LiveEdgeMemBudget,
			o.Diffusion != DiffusionHash)
	}
	if o.Engine == EngineWorldCache {
		return &WorldCache{Est: est}, nil
	}
	return est, nil
}
