// Package eval drives the paper's experiments (Section VI): it builds
// instances from dataset presets, dispatches the algorithms, collects the
// reported metrics and renders the tables and figure series.
//
// Every driver is deterministic given its Setup seed, and every figure and
// table of the paper maps to one driver here (see DESIGN.md, experiment
// index):
//
//	Fig. 6  — BudgetSweep (redemption/benefit vs Binv), LambdaSweep,
//	          RunningTime
//	Fig. 7  — BudgetSweep / LambdaSweep / KappaSweep (seed–SC rate column)
//	Fig. 8  — CaseStudy (gross-margin sweep under real coupon policies)
//	Fig. 9  — Scalability (running time and explored ratio vs size/budget)
//	Fig. 10 — Approximation (S3CA vs exhaustive OPT vs worst-case bound)
//	Tab. II — PresetStatistics
//	Tab. III— FarthestHops
//	Tab. IV — RunningTime
package eval

import (
	"context"
	"fmt"
	"time"

	"s3crm/internal/baselines"
	"s3crm/internal/core"
	"s3crm/internal/costmodel"
	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/rng"
)

// Algorithms lists the compared algorithms in the paper's order.
var Algorithms = []string{"IM-U", "IM-L", "PM-U", "PM-L", "IM-S", "S3CA"}

// Setup configures instance construction for an experiment.
type Setup struct {
	Preset gen.Preset
	Scale  int     // down-scale divisor for the preset (see DESIGN.md); <=1 keeps it
	Lambda float64 // ΣB/ΣCsc target; 0 = paper default 1
	Kappa  float64 // ΣCseed/ΣB target; 0 = paper default 10
	Budget float64 // investment budget; 0 = preset default (scaled)
	Seed   uint64
}

// BuildInstance generates the synthetic graph for the preset and assigns
// benefits and costs per the paper's experiment setup.
func BuildInstance(s Setup) (*diffusion.Instance, error) {
	p := s.Preset.Scaled(s.Scale)
	src := rng.New(s.Seed ^ 0x5eed)
	g, err := p.Generate(src)
	if err != nil {
		return nil, fmt.Errorf("eval: generating %s: %w", p.Name, err)
	}
	m, err := costmodel.Assign(g, costmodel.Params{
		Mu: p.Mu, Sigma: p.Sigma, Lambda: s.Lambda, Kappa: s.Kappa,
	}, src)
	if err != nil {
		return nil, fmt.Errorf("eval: assigning costs for %s: %w", p.Name, err)
	}
	budget := s.Budget
	if budget <= 0 {
		budget = p.Binv
	}
	return &diffusion.Instance{
		G:        g,
		Benefit:  m.Benefit,
		SeedCost: m.SeedCost,
		SCCost:   m.SCCost,
		Budget:   budget,
	}, nil
}

// RunParams tunes one algorithm execution.
type RunParams struct {
	Samples      int
	Seed         uint64
	Workers      int
	Engine       string // evaluation engine (see diffusion.Engines; "" = mc)
	CandidateCap int    // baseline greedy candidate cap (0 = all users)
	LimitedK     int    // limited-strategy quota (0 = Dropbox's 32)
	// SpendBudget makes S3CA return the full-budget deployment, mirroring
	// the paper's evaluation regime (see core.Options.SpendBudget).
	SpendBudget bool
}

func (p RunParams) withDefaults() RunParams {
	if p.Samples <= 0 {
		p.Samples = 1000
	}
	return p
}

// Measure is one algorithm's metrics on one instance — the quantities the
// paper's figures and tables report.
type Measure struct {
	Algo           string
	Redemption     float64 // the S3CRM objective
	Benefit        float64 // total expected benefit
	SeedCost       float64
	SCCost         float64
	TotalCost      float64
	SeedSCRate     float64 // Cseed / Csc (Fig. 7's seed–SC rate)
	FarthestHop    float64 // Table III
	RuntimeSeconds float64 // Tables IV, Fig. 6(e,f), Fig. 9
	ExploredRatio  float64 // explored nodes / |V| (Fig. 9; S3CA only)
	Seeds          int
	Coupons        int
}

// RunOne executes one named algorithm and reports its measure.
func RunOne(algo string, inst *diffusion.Instance, p RunParams) (Measure, error) {
	p = p.withDefaults()
	start := time.Now()
	var (
		dep  *diffusion.Deployment
		meas Measure
	)
	switch algo {
	case "S3CA":
		sol, err := core.Solve(inst, core.Options{
			Engine: p.Engine, Samples: p.Samples, Seed: p.Seed, Workers: p.Workers,
			SpendBudget: p.SpendBudget,
		})
		if err != nil {
			return Measure{}, err
		}
		dep = sol.Deployment
		meas.ExploredRatio = float64(sol.Stats.ExploredNodes) / float64(inst.G.NumNodes())
	case "IM-U", "IM-L", "PM-U", "PM-L", "IM-S":
		cfg := baselines.Config{
			Engine: p.Engine, Samples: p.Samples, Seed: p.Seed, Workers: p.Workers,
			CandidateCap: p.CandidateCap, LimitedK: p.LimitedK,
		}
		if algo == "IM-L" || algo == "PM-L" {
			cfg.Strategy = baselines.Limited
		}
		var (
			o   *baselines.Outcome
			err error
		)
		switch algo {
		case "IM-U", "IM-L":
			o, err = baselines.IM(context.Background(), inst, cfg)
		case "PM-U", "PM-L":
			o, err = baselines.PM(context.Background(), inst, cfg)
		case "IM-S":
			o, err = baselines.IMS(context.Background(), inst, cfg)
		}
		if err != nil {
			return Measure{}, err
		}
		dep = o.Deployment
	default:
		return Measure{}, fmt.Errorf("eval: unknown algorithm %q", algo)
	}
	meas.RuntimeSeconds = time.Since(start).Seconds()

	// Re-measure every algorithm's deployment with a common MC estimator so
	// comparisons share possible worlds regardless of the engine that drove
	// the search (full evaluations agree across engines anyway).
	est := diffusion.NewEstimator(inst, p.Samples, p.Seed^0xfeed)
	est.Workers = p.Workers
	r := est.Evaluate(dep)
	meas.Algo = algo
	meas.Benefit = r.Benefit
	meas.FarthestHop = r.FarthestHop
	meas.SeedCost = inst.SeedCostOf(dep)
	meas.SCCost = inst.SCCostOf(dep)
	meas.TotalCost = meas.SeedCost + meas.SCCost
	if meas.TotalCost > 0 {
		meas.Redemption = meas.Benefit / meas.TotalCost
	}
	if meas.SCCost > 0 {
		meas.SeedSCRate = meas.SeedCost / meas.SCCost
	}
	meas.Seeds = dep.NumSeeds()
	meas.Coupons = dep.TotalK()
	return meas, nil
}

// Point is one sample of a sweep: the x-axis value and the measures of
// every algorithm at that x.
type Point struct {
	X        float64
	Measures []Measure
}

// runAll executes the listed algorithms against one instance.
func runAll(inst *diffusion.Instance, algos []string, p RunParams) ([]Measure, error) {
	out := make([]Measure, 0, len(algos))
	for _, a := range algos {
		m, err := RunOne(a, inst, p)
		if err != nil {
			return nil, fmt.Errorf("eval: running %s: %w", a, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// BudgetSweep reproduces the Binv sweeps: Fig. 6(a,b) reads the Redemption
// and Benefit columns, Fig. 7(a,b) the SeedSCRate column, Table IV the
// runtime column of the S3CA rows.
func BudgetSweep(s Setup, budgets []float64, algos []string, p RunParams) ([]Point, error) {
	var points []Point
	for _, b := range budgets {
		s := s
		s.Budget = b
		inst, err := BuildInstance(s)
		if err != nil {
			return nil, err
		}
		ms, err := runAll(inst, algos, p)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{X: b, Measures: ms})
	}
	return points, nil
}

// LambdaSweep reproduces the λ sweeps (Fig. 6(c,d), Fig. 7(c,d)).
func LambdaSweep(s Setup, lambdas []float64, algos []string, p RunParams) ([]Point, error) {
	var points []Point
	for _, l := range lambdas {
		s := s
		s.Lambda = l
		inst, err := BuildInstance(s)
		if err != nil {
			return nil, err
		}
		ms, err := runAll(inst, algos, p)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{X: l, Measures: ms})
	}
	return points, nil
}

// KappaSweep reproduces the κ sweeps (Fig. 7(e,f)).
func KappaSweep(s Setup, kappas []float64, algos []string, p RunParams) ([]Point, error) {
	var points []Point
	for _, k := range kappas {
		s := s
		s.Kappa = k
		inst, err := BuildInstance(s)
		if err != nil {
			return nil, err
		}
		ms, err := runAll(inst, algos, p)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{X: k, Measures: ms})
	}
	return points, nil
}
