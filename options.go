package s3crm

import (
	"fmt"

	"s3crm/internal/diffusion"
)

// Option configures a Campaign at construction (Problem.NewCampaign) or a
// single call (Campaign.Solve, Campaign.RunBaseline, Campaign.Evaluate,
// Campaign.EvaluateBatch). Call-level options override the campaign's
// settings for that call only.
type Option func(*config) error

// config is the resolved option set a campaign — and, after call-level
// overrides, each call — runs with.
type config struct {
	engine       string
	model        string
	samples      int
	degrade      func(requested int) int
	seed         uint64
	seedPinned   bool // a call-level WithSeed pins the call's RNG streams
	workers      int
	limitedK     int
	candidateCap int
	gpiLimit     int
	memBudget    int64
	epsilon      float64
	delta        float64
	progress     func(Event)
}

func defaultConfig() config {
	return config{
		engine:  diffusion.EngineMC,
		model:   diffusion.ModelIC,
		samples: 1000,
	}
}

// apply runs the options over a copy of the receiver, reporting the first
// error.
func (c config) apply(opts []Option) (config, error) {
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(&c); err != nil {
			return c, fmt.Errorf("s3crm: %w", err)
		}
	}
	return c, nil
}

// WithEngine selects the evaluation engine: "mc" (plain Monte Carlo, the
// default and the paper's setting), "worldcache" (incremental world-cache
// evaluation — the solver's greedy loops replay only the simulation state a
// candidate change can affect) or "ssr" (the SSR sketch solver: S3CA's
// seed/coupon selection runs against reverse-sample cover counts under an
// adaptive (1−1/e−ε) stopping rule tuned by WithEpsilon and WithDelta, and
// only the final deployment is measured forward; the baselines rank their
// CandidateCap candidates by sketched influence instead of out-degree).
// "auto" defers the choice to instance size, resolving to "ssr" at or above
// 200k users / 2M edges and "worldcache" below, re-checked per call as
// ApplyEdges grows the network. See Engines and DESIGN.md
// ("Evaluation engines", "SSR sketch solver"). The engine name is validated
// eagerly, at NewCampaign or at the call that carries the option.
func WithEngine(name string) Option {
	return func(c *config) error {
		if name == "" {
			name = diffusion.EngineMC
		}
		for _, e := range diffusion.Engines() {
			if name == e {
				c.engine = name
				return nil
			}
		}
		return fmt.Errorf("unknown engine %q (want one of %v)", name, diffusion.Engines())
	}
}

// WithModel selects the triggering model deciding per-world edge liveness
// behind every engine: "ic" (independent cascade, the default and the
// paper's setting — one independent coin per edge) or "lt" (linear
// threshold via its live-edge equivalence — each user selects at most one
// live in-edge, with probability equal to the edge's weight). The model is
// validated eagerly, and under "lt" the campaign's construction also checks
// the instance satisfies the LT precondition (every user's in-weights sum
// to at most 1 — the weighted-cascade "wc" probability model guarantees
// it; see GraphConfig.NormalizeLT for arbitrary weightings). See Models and
// DESIGN.md ("Triggering models").
func WithModel(name string) Option {
	return func(c *config) error {
		if name == "" {
			name = diffusion.ModelIC
		}
		for _, m := range diffusion.Models() {
			if name == m {
				c.model = name
				return nil
			}
		}
		return fmt.Errorf("unknown triggering model %q (want one of %v)", name, diffusion.Models())
	}
}

// maxSamples caps the per-call Monte-Carlo sample count. Engines allocate
// per-world state up front, so an unbounded count is an out-of-memory
// crash rather than a slow call; 2^20 worlds is ten times the largest
// count the experiments use.
const maxSamples = 1 << 20

// WithSamples sets the Monte-Carlo sample count per benefit evaluation
// (default 1000, the paper's setting; at most 2^20).
func WithSamples(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("samples must be positive, got %d", n)
		}
		if n > maxSamples {
			return fmt.Errorf("samples must be at most %d, got %d", maxSamples, n)
		}
		c.samples = n
		return nil
	}
}

// WithDegradation installs a degradation hook: at the start of every call
// the hook receives the requested Monte-Carlo sample count and returns the
// count the call should actually run with. A return below the request
// downgrades the call — trading estimation precision for latency — and the
// call's Result reports Degraded, EffectiveSamples and a correspondingly
// wider StdErr. Returns above the request are ignored and returns below
// one world are clamped to one; any higher floor is the hook's to apply
// (cmd/s3crmd floors its ladder at -min-samples). nil removes the hook.
//
// The hook runs on every call — possibly concurrently — so it must be
// cheap and safe for concurrent use. This is the seam the serving layer
// (internal/serve, cmd/s3crmd) hangs its queue-pressure ladder on: under
// measured overload requests automatically drop to lower sample counts
// instead of queuing without bound.
func WithDegradation(fn func(requested int) int) Option {
	return func(c *config) error {
		c.degrade = fn
		return nil
	}
}

// WithSeed fixes the campaign's random seed: the Monte-Carlo possible
// worlds every call shares, and derived tie-breaking streams.
//
// As a call-level option it additionally pins the call: a pinned call's
// streams depend only on the given seed (not on the campaign's call
// counter), so it returns bit-identical results to the same pinned call on
// a fresh campaign, whatever calls ran before or run concurrently. Unpinned calls draw per-call streams derived
// from the campaign seed and the call sequence number (see DESIGN.md,
// "Serving API").
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.seed = seed
		c.seedPinned = true
		return nil
	}
}

// WithWorkers parallelizes evaluation inside a call (0 = sequential): the
// Monte-Carlo world sweep under the forward engines, and the sample
// extension, gate-DP prefill and snapshot scoring under the ssr engine.
// Parallel evaluation is bit-identical to sequential — worlds are stateless,
// and ssr keys every sample's random stream by its global sample index, never
// by the worker that drew it — so workers only trade memory for speed.
func WithWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("workers must be non-negative, got %d", n)
		}
		c.workers = n
		return nil
	}
}

// WithLimitedK overrides the limited coupon strategy quota for baselines
// (default 32, Dropbox's).
func WithLimitedK(k int) Option {
	return func(c *config) error {
		if k < 0 {
			return fmt.Errorf("limited-K must be non-negative, got %d", k)
		}
		c.limitedK = k
		return nil
	}
}

// WithCandidateCap restricts baseline greedy candidates to the top-N users
// by degree — or by sketch-estimated influence under the ssr engine
// (0 = all users).
func WithCandidateCap(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("candidate cap must be non-negative, got %d", n)
		}
		c.candidateCap = n
		return nil
	}
}

// WithGPILimit caps S3CA's guaranteed-path DFS at n visits per seed
// (0 = unlimited, the paper-faithful enumeration). The traversal explores
// strongest-probability-first, so the cap keeps the paths the SC maneuver
// phase ranks highest. A visit costs one update of its parent's
// redeem-probability row plus O(1) path pricing, so the cap only trims
// GPI's share of a solve — see EXPERIMENTS.md, "Large-graph scaling". It
// has no effect on engine "ssr", which runs no GPI.
func WithGPILimit(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("GPI limit must be non-negative, got %d", n)
		}
		c.gpiLimit = n
		return nil
	}
}

// WithEpsilon sets the SSR engine's approximation slack: the "ssr" solve
// keeps doubling its sample collections until the selected deployment is
// certified within (1−1/e−ε) of the sketch-objective optimum (default 0.1).
// Must lie strictly between 0 and 1; other engines ignore it.
func WithEpsilon(eps float64) Option {
	return func(c *config) error {
		if eps <= 0 || eps >= 1 {
			return fmt.Errorf("epsilon must be in (0,1), got %v", eps)
		}
		c.epsilon = eps
		return nil
	}
}

// WithDelta sets the SSR engine's failure probability: the (1−1/e−ε)
// certificate holds with probability at least 1−δ (default 0.01). Must lie
// strictly between 0 and 1; other engines ignore it.
func WithDelta(delta float64) Option {
	return func(c *config) error {
		if delta <= 0 || delta >= 1 {
			return fmt.Errorf("delta must be in (0,1), got %v", delta)
		}
		c.delta = delta
		return nil
	}
}

// WithProgress streams solver progress events to fn: one event per ID
// investment, GPI traversal, SCM path examination and baseline greedy step,
// carrying the phase, iteration, spent budget and current redemption rate
// (see Event). fn is called synchronously from the solver's inner loops —
// possibly from several goroutines when calls run concurrently — so it must
// be cheap, non-blocking and safe for concurrent use.
func WithProgress(fn func(Event)) Option {
	return func(c *config) error {
		c.progress = fn
		return nil
	}
}
