// Package s3crm is a Go implementation of Seed Selection and Social Coupon
// allocation for Redemption Maximization (S3CRM) in online social networks,
// reproducing Chang, Shi, Yang and Chen (ICDE 2019, arXiv:1902.07432).
//
// Social-coupon campaigns (Dropbox referrals, Airbnb travel credits,
// Booking.com invites) reward users for recruiting friends, but each user
// can redeem only a limited number of coupons. Given a social network with
// per-user benefit, seed cost and coupon cost, the S3CRM problem selects a
// seed set and a coupon allocation that maximize the redemption rate — the
// expected benefit of activated users per unit of invested budget — subject
// to an investment budget.
//
// # Problems and campaigns
//
// ProblemBuilder / Problem define an instance (graph, costs, budget);
// GenerateDataset builds synthetic instances mirroring the paper's Table II
// dataset profiles (Facebook, Epinions, Google+, Douban); LoadGraphProblem
// streams a real SNAP edge list — plain or gzip — into a ready-to-solve
// problem (see GraphConfig for the probability models and cost parameters):
//
//	problem, stats, err := s3crm.LoadGraphProblem("soc-Epinions1.txt.gz",
//	        s3crm.GraphConfig{Budget: 5000})
//
// The serving surface is the Campaign session: Problem.NewCampaign
// constructs the evaluation engine, the diffusion substrate and the scratch
// pools once, and then serves any number of concurrent calls against the
// shared state —
//
//	c, err := problem.NewCampaign(s3crm.WithEngine("worldcache"),
//	        s3crm.WithSamples(1000), s3crm.WithSeed(42))
//	r, err := c.Solve(ctx)                  // the paper's S3CA algorithm
//	r, err = c.RunBaseline(ctx, "IM-U")     // IM-U/IM-L/PM-U/PM-L/IM-S
//	r, err = c.Evaluate(ctx, dep)           // one hand-built deployment
//	rs, err := c.EvaluateBatch(ctx, deps)   // many, on shared samples
//
// Campaign calls accept call-level options (per-request engine selection,
// seeds, progress sinks), honour context cancellation mid-iteration, and
// stream per-iteration progress events through WithProgress. The Campaign
// is the only way to solve or evaluate: a single call is a Campaign built
// for it.
//
// # Engines
//
// Every call evaluates deployments through an engine selected with
// WithEngine: "mc" (plain Monte Carlo, the default), "worldcache"
// (incremental world-cache evaluation — the solver's greedy loops replay
// only the simulation state a candidate change can affect, typically
// several times faster at the paper's 1000-sample setting), or "ssr" (the
// SSR sketch solver: S3CA's seed/coupon selection runs against
// reverse-sample cover counts and an adaptive stopping rule certifies a
// (1−1/e−ε) approximation of the sketch objective with probability 1−δ,
// tuned by WithEpsilon and WithDelta; only the final deployment is
// forward-measured). WithEngine("auto") defers the choice to instance size:
// ssr at or above 200k users / 2M edges, worldcache below — the crossover
// where reverse sampling overtakes forward world replay in the benchmark
// suite. All engines agree on reported metrics within Monte-Carlo noise,
// and every engine serves both triggering models — WithModel("ic"), the
// default independent cascade, or WithModel("lt"), linear threshold via its
// live-edge equivalence; see DESIGN.md ("Evaluation engines", "Triggering
// models" and "Serving API") for the architecture.
//
// How worlds are evaluated underneath is not a knob: every engine probes
// edge liveness through one live-edge substrate and sweeps worlds with the
// bit-parallel block kernel (64 worlds per machine word). The substrate
// reads materialized rows within a fixed live-edge memory budget and hashes
// each probe past it, with bit-identical results.
//
// See the examples directory for runnable walkthroughs, cmd/s3crmd for the
// HTTP serving layer and EXPERIMENTS.md for the paper-reproduction results.
package s3crm

import (
	"fmt"
	"io"

	"s3crm/internal/costmodel"
	"s3crm/internal/diffusion"
	"s3crm/internal/eval"
	"s3crm/internal/gen"
	"s3crm/internal/gio"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// ProblemBuilder assembles an S3CRM instance.
type ProblemBuilder struct {
	n        int
	edges    []graph.Edge
	benefit  []float64
	seedCost []float64
	scCost   []float64
	budget   float64
	err      error
}

// NewProblem starts a builder for a network of n users (ids 0..n-1). Users
// default to benefit 1, seed cost 1 and coupon cost 1.
func NewProblem(n int) *ProblemBuilder {
	b := &ProblemBuilder{
		n:        n,
		benefit:  make([]float64, n),
		seedCost: make([]float64, n),
		scCost:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		b.benefit[i], b.seedCost[i], b.scCost[i] = 1, 1, 1
	}
	return b
}

// checkUser validates a user id against the network size — the single
// range check shared by the builder and deployment validation. The message
// carries no package prefix; call sites wrap it with their own context and
// a single "s3crm: " prefix.
func checkUser(id, n int) error {
	if id < 0 || id >= n {
		return fmt.Errorf("user %d out of range [0,%d)", id, n)
	}
	return nil
}

// AddEdge records a directed influence edge with probability p.
func (b *ProblemBuilder) AddEdge(from, to int, p float64) *ProblemBuilder {
	if b.err != nil {
		return b
	}
	if err := checkUser(from, b.n); err != nil {
		b.err = fmt.Errorf("s3crm: edge (%d,%d): %w", from, to, err)
		return b
	}
	if err := checkUser(to, b.n); err != nil {
		b.err = fmt.Errorf("s3crm: edge (%d,%d): %w", from, to, err)
		return b
	}
	b.edges = append(b.edges, graph.Edge{From: int32(from), To: int32(to), P: p})
	return b
}

// SetUser sets one user's benefit, seed cost and coupon cost.
func (b *ProblemBuilder) SetUser(id int, benefit, seedCost, scCost float64) *ProblemBuilder {
	if b.err != nil {
		return b
	}
	if err := checkUser(id, b.n); err != nil {
		b.err = fmt.Errorf("s3crm: %w", err)
		return b
	}
	b.benefit[id] = benefit
	b.seedCost[id] = seedCost
	b.scCost[id] = scCost
	return b
}

// Budget sets the investment budget Binv.
func (b *ProblemBuilder) Budget(budget float64) *ProblemBuilder {
	b.budget = budget
	return b
}

// Build validates and returns the problem.
func (b *ProblemBuilder) Build() (*Problem, error) {
	if b.err != nil {
		return nil, b.err
	}
	g, err := graph.FromEdges(b.n, b.edges)
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  b.benefit,
		SeedCost: b.seedCost,
		SCCost:   b.scCost,
		Budget:   b.budget,
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	return &Problem{inst: inst}, nil
}

// Problem is an immutable S3CRM instance. It is safe for concurrent use;
// any number of Campaigns may serve it at once.
type Problem struct {
	inst *diffusion.Instance
}

// Users returns the number of users.
func (p *Problem) Users() int { return p.inst.G.NumNodes() }

// Edges returns the number of influence edges.
func (p *Problem) Edges() int { return p.inst.G.NumEdges() }

// Budget returns the investment budget.
func (p *Problem) Budget() float64 { return p.inst.Budget }

// GenerateDataset builds a synthetic instance mirroring one of the paper's
// Table II dataset profiles ("Facebook", "Epinions", "Google+", "Douban"),
// scaled down by the given divisor (1 keeps the published size; see
// DESIGN.md on why the datasets are synthetic). Generation and cost
// assignment are deterministic in seed.
func GenerateDataset(name string, scale int, seed uint64) (*Problem, error) {
	preset, err := gen.PresetByName(name)
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	inst, err := eval.BuildInstance(eval.Setup{Preset: preset, Scale: scale, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	return &Problem{inst: inst}, nil
}

// GraphConfig configures LoadGraphProblem: how an external edge list is
// ingested and how per-user benefits and costs are drawn for it.
type GraphConfig struct {
	// Model assigns edge influence probabilities: "file" (the edge list's
	// third column), "uniform" (constant UniformP), "wc" (the paper's
	// weighted cascade, 1/in-degree) or "trivalency" (hash-pick from
	// 0.1/0.01/0.001). "" means "file" when the list has a probability
	// column and "wc" otherwise.
	Model string
	// UniformP is the "uniform" model's probability (default 0.1).
	UniformP float64
	// Mu and Sigma parameterize the benefit distribution N(Mu, Sigma)
	// (defaults 10 and 2, the experiment harness's setting).
	Mu, Sigma float64
	// Lambda and Kappa are the paper's cost-calibration ratios
	// (0 means the paper defaults λ=1, κ=10).
	Lambda, Kappa float64
	// Budget is the investment budget Binv; required.
	Budget float64
	// Seed drives cost assignment and the trivalency hash (default 1).
	Seed uint64
	// KeepSelfLoops retains u→u arcs; by default they are dropped.
	KeepSelfLoops bool
	// StrictDuplicates rejects repeated arcs instead of keeping the first.
	StrictDuplicates bool
	// NormalizeLT scales each user's in-weights down to sum to at most 1
	// after probability assignment — the linear-threshold live-edge
	// precondition (see WithModel). The weighted-cascade model satisfies
	// the bound by construction and passes through unchanged; uniform,
	// trivalency and file weightings may need it before solving with
	// WithModel("lt").
	NormalizeLT bool
}

// GraphStats reports what LoadGraphProblem's streaming ingestion saw.
type GraphStats struct {
	Nodes      int    // distinct users after dense re-mapping
	Edges      int    // influence edges in the final graph
	SelfLoops  int64  // u→u arcs dropped
	Duplicates int64  // repeated arcs dropped
	Model      string // probability model actually applied
}

// LoadGraphProblem streams a SNAP-style edge list — plain or gzip — into a
// ready-to-solve problem: node ids are densely re-mapped, self-loops and
// duplicate arcs resolved, influence probabilities assigned per cfg.Model,
// and per-user benefits and costs drawn from the paper's cost model
// (Section VI-A). The graph goes straight from the file into compressed
// sparse rows; no intermediate edge array is materialized, so ingestion of
// a million-node network peaks near the size of the final representation.
func LoadGraphProblem(path string, cfg GraphConfig) (*Problem, GraphStats, error) {
	if cfg.Budget <= 0 {
		return nil, GraphStats{}, fmt.Errorf("s3crm: graph problems need a positive Budget, got %v", cfg.Budget)
	}
	if cfg.Mu == 0 {
		cfg.Mu = 10
	}
	if cfg.Sigma == 0 {
		cfg.Sigma = 2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	model := cfg.Model
	auto := model == ""
	if auto {
		model = gio.ModelFile
	}
	lo := gio.LoadOptions{
		Model:         model,
		UniformP:      cfg.UniformP,
		Seed:          cfg.Seed,
		KeepSelfLoops: cfg.KeepSelfLoops,
		NormalizeLT:   cfg.NormalizeLT,
	}
	if cfg.StrictDuplicates {
		lo.Duplicates = graph.DupError
	}
	g, ls, err := gio.LoadEdgeListFile(path, lo)
	if err != nil {
		return nil, GraphStats{}, fmt.Errorf("s3crm: %w", err)
	}
	if auto && !ls.HasProbColumn {
		// No probability column anywhere: fall back to the paper's standard
		// 1/in-degree weighting (which satisfies the LT in-weight bound by
		// construction, so NormalizeLT has nothing left to do).
		model = gio.ModelWeightedCascade
		g = g.WeightByInDegree()
	}
	stats := GraphStats{
		Nodes: ls.Nodes, Edges: ls.Edges,
		SelfLoops: ls.SelfLoops, Duplicates: ls.Duplicates,
		Model: model,
	}
	m, err := costmodel.Assign(g, costmodel.Params{
		Mu: cfg.Mu, Sigma: cfg.Sigma, Lambda: cfg.Lambda, Kappa: cfg.Kappa,
	}, rng.New(cfg.Seed))
	if err != nil {
		return nil, stats, fmt.Errorf("s3crm: %w", err)
	}
	inst := &diffusion.Instance{
		G: g, Benefit: m.Benefit, SeedCost: m.SeedCost, SCCost: m.SCCost,
		Budget: cfg.Budget,
	}
	if err := inst.Validate(); err != nil {
		return nil, stats, fmt.Errorf("s3crm: %w", err)
	}
	return &Problem{inst: inst}, stats, nil
}

// GraphModels lists the probability models accepted by GraphConfig.Model.
func GraphModels() []string { return gio.Models() }

// DatasetNames lists the generatable dataset profiles.
func DatasetNames() []string {
	names := make([]string, 0, 4)
	for _, p := range gen.Presets() {
		names = append(names, p.Name)
	}
	return names
}

// Result reports a solved or evaluated deployment.
type Result struct {
	Algorithm      string
	Seeds          []int       // selected seed users, ascending
	Coupons        map[int]int // coupon allocation K for users holding any
	RedemptionRate float64     // the S3CRM objective
	Benefit        float64     // expected benefit of activated users
	SeedCost       float64
	CouponCost     float64
	TotalCost      float64
	FarthestHop    float64 // average maximum hop distance from the seeds
	ExploredRatio  float64 // fraction of the network examined (S3CA only)

	// EffectiveSamples is the number of Monte-Carlo worlds the reported
	// metrics were estimated over. It equals the requested sample count
	// unless the call was downgraded by a degradation hook (see
	// WithDegradation), in which case Degraded is set and EffectiveSamples
	// records what the estimate actually used.
	EffectiveSamples int `json:"effective_samples"`
	// StdErr is the Monte-Carlo standard error of RedemptionRate, computed
	// from the per-world benefit variance over EffectiveSamples worlds (the
	// deployment's costs are deterministic, so the redemption-rate error is
	// the benefit error divided by total cost). A degraded response's wider
	// error bar is the precision the caller traded for latency.
	StdErr float64 `json:"stderr"`
	// Degraded reports that the call was downgraded to fewer samples than
	// requested by the campaign's degradation hook (graceful degradation
	// under serving overload; see WithDegradation and cmd/s3crmd).
	Degraded bool `json:"degraded"`

	// SketchWorkers and SketchBuildNs instrument the SSR engine's sample
	// build: the worker cap the sharded extension ran under and the
	// nanoseconds it spent drawing or patching samples. SketchReused and
	// SketchRedrawn report a warm re-solve's sample economy (Campaign.Resolve
	// under the ssr engine): how many pooled samples survived the churn
	// watermark check and how many had to be re-drawn. All four are zero —
	// and absent from the JSON encoding — for other engines.
	SketchWorkers int   `json:"sketch_workers,omitempty"`
	SketchBuildNs int64 `json:"sketch_build_ns,omitempty"`
	SketchReused  int   `json:"sketch_reused,omitempty"`
	SketchRedrawn int   `json:"sketch_redrawn,omitempty"`
	// SketchRounds, SketchSamples, SketchLB, SketchUB and SketchCertified
	// are the SSR engine's certificate: the doubling rounds its stopping
	// rule ran, the RR samples drawn across both collections, the final
	// lower and upper bounds on the sketch objective, and whether the
	// (1−1/e−ε, δ) target was met before the sample cap. All five are zero
	// — and absent from the JSON encoding — for other engines.
	SketchRounds    int     `json:"sketch_rounds,omitempty"`
	SketchSamples   int     `json:"sketch_samples,omitempty"`
	SketchLB        float64 `json:"sketch_lb,omitempty"`
	SketchUB        float64 `json:"sketch_ub,omitempty"`
	SketchCertified bool    `json:"sketch_certified,omitempty"`
}

// Baselines lists the algorithm names accepted by RunBaseline.
func Baselines() []string { return []string{"IM-U", "IM-L", "PM-U", "PM-L", "IM-S"} }

// Engines lists the evaluation engines accepted by WithEngine.
func Engines() []string { return diffusion.Engines() }

// EngineUsage is a one-line synopsis of the engines Engines lists, shared by
// the CLIs' flag help and the daemon's /info payload.
func EngineUsage() string { return diffusion.EngineUsage() }

// Models lists the triggering models accepted by WithModel: "ic"
// (independent cascade, the default) and "lt" (linear threshold via its
// live-edge equivalence). Every engine and diffusion substrate serves both.
func Models() []string { return diffusion.Models() }

// Deployment is a hand-built campaign plan for Evaluate: the seed set and
// the coupon allocation.
type Deployment struct {
	Seeds   []int
	Coupons map[int]int
}

// buildDeploymentFor validates a public deployment against one graph view —
// a campaign call validates against the view its engines resolved, which may
// be ahead of the problem's original instance after ApplyEdges.
func buildDeploymentFor(inst *diffusion.Instance, dep Deployment) (*diffusion.Deployment, error) {
	d := diffusion.NewDeployment(inst.G.NumNodes())
	if err := fillDeployment(d, inst, dep); err != nil {
		return nil, err
	}
	return d, nil
}

// fillDeployment validates a public deployment against one graph view and
// writes it into d, an empty deployment over the view's users; Resolve
// fills a pooled cache's scratch through it.
func fillDeployment(d *diffusion.Deployment, inst *diffusion.Instance, dep Deployment) error {
	n := inst.G.NumNodes()
	for _, s := range dep.Seeds {
		if err := checkUser(s, n); err != nil {
			return fmt.Errorf("s3crm: seed: %w", err)
		}
		d.AddSeed(int32(s))
	}
	for v, k := range dep.Coupons {
		if err := checkUser(v, n); err != nil {
			return fmt.Errorf("s3crm: coupon: %w", err)
		}
		if k < 0 {
			return fmt.Errorf("s3crm: negative coupon count for user %d", v)
		}
		if deg := inst.G.OutDegree(int32(v)); k > deg {
			return fmt.Errorf("s3crm: user %d allocated %d coupons but has %d friends", v, k, deg)
		}
		d.SetK(int32(v), k)
	}
	return nil
}

// AdoptionCaseStudy re-weights the problem's network with the coupon
// adoption model of [30] for a real policy (Airbnb or Booking.com —
// see Policies) and sets uniform coupon costs and gross-margin benefits,
// mirroring the paper's Section VI-C case study.
func (p *Problem) AdoptionCaseStudy(policy string, grossMarginPct float64, seed uint64) (*Problem, error) {
	var pol costmodel.Policy
	switch policy {
	case "Airbnb":
		pol = costmodel.Airbnb
	case "Booking.com":
		pol = costmodel.Booking
	default:
		return nil, fmt.Errorf("s3crm: unknown policy %q (want Airbnb or Booking.com)", policy)
	}
	src := rng.New(seed)
	adoption, err := costmodel.AdoptionProbs(p.Users(), pol.SCCost, src)
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	g, err := costmodel.ApplyAdoption(p.inst.G, adoption)
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	benefit, err := costmodel.GrossMarginBenefit(pol.SCCost, grossMarginPct)
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	n := p.Users()
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: append([]float64(nil), p.inst.SeedCost...),
		SCCost:   make([]float64, n),
		Budget:   p.inst.Budget,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = benefit
		inst.SCCost[i] = pol.SCCost
	}
	return &Problem{inst: inst}, nil
}

// Policies lists the case-study coupon policies.
func Policies() []string { return []string{"Airbnb", "Booking.com"} }

// SaveScenario writes the problem as portable JSON, loadable with
// LoadScenario.
func (p *Problem) SaveScenario(w io.Writer) error {
	s := &gio.Scenario{
		Nodes:    p.inst.G.NumNodes(),
		Edges:    p.inst.G.Edges(),
		Benefit:  p.inst.Benefit,
		SeedCost: p.inst.SeedCost,
		SCCost:   p.inst.SCCost,
		Budget:   p.inst.Budget,
	}
	if err := gio.WriteScenario(w, s); err != nil {
		return fmt.Errorf("s3crm: %w", err)
	}
	return nil
}

// LoadScenario reads a problem saved with SaveScenario.
func LoadScenario(r io.Reader) (*Problem, error) {
	s, err := gio.ReadScenario(r)
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	g, err := s.Graph()
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  s.Benefit,
		SeedCost: s.SeedCost,
		SCCost:   s.SCCost,
		Budget:   s.Budget,
	}
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	return &Problem{inst: inst}, nil
}
