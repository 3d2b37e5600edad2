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

// ScalabilityConfig drives the Fig. 9 experiments on PPGG-substitute
// synthetic networks (η = 1.7/2.5, clustering 0.6394 in the paper).
type ScalabilityConfig struct {
	Eta        float64 // power-law exponent; 0 = 1.7 (the paper's setting)
	Clustering float64 // 0 = 0.6394 (the paper's setting)
	AvgDegree  int     // edges per node; 0 = 10
	Mu, Sigma  float64 // benefit distribution; 0 = Facebook's (10, 2)
	Seed       uint64
}

func (c ScalabilityConfig) withDefaults() ScalabilityConfig {
	if c.Eta == 0 {
		c.Eta = 1.7
	}
	if c.Clustering == 0 {
		c.Clustering = 0.6394
	}
	if c.AvgDegree == 0 {
		c.AvgDegree = 10
	}
	if c.Mu == 0 {
		c.Mu = 10
	}
	if c.Sigma == 0 {
		c.Sigma = 2
	}
	return c
}

// buildSynthetic constructs one pattern-preserving instance of the given
// size.
func buildSynthetic(c ScalabilityConfig, nodes int, budget float64, seed uint64) (*diffusion.Instance, error) {
	src := rng.New(seed)
	g, err := gen.PatternPreserving(gen.PatternConfig{
		Nodes:        nodes,
		Edges:        nodes * c.AvgDegree,
		Eta:          c.Eta,
		Clustering:   c.Clustering,
		MotifSupport: nodes / 40,
		Mutual:       true,
	}, src)
	if err != nil {
		return nil, err
	}
	m, err := costmodel.Assign(g, costmodel.Params{Mu: c.Mu, Sigma: c.Sigma}, src)
	if err != nil {
		return nil, err
	}
	return &diffusion.Instance{
		G:        g,
		Benefit:  m.Benefit,
		SeedCost: m.SeedCost,
		SCCost:   m.SCCost,
		Budget:   budget,
	}, nil
}

// ScaleRow is one Fig. 9 sample.
type ScaleRow struct {
	Nodes          int
	Budget         float64
	RuntimeSeconds float64
	ExploredRatio  float64
	Redemption     float64
}

// ScalabilityBySize reproduces Fig. 9(a,b): S3CA running time and explored
// ratio versus network size at a fixed budget.
func ScalabilityBySize(c ScalabilityConfig, sizes []int, budget float64, p RunParams) ([]ScaleRow, error) {
	c = c.withDefaults()
	p = p.withDefaults()
	var rows []ScaleRow
	for _, n := range sizes {
		inst, err := buildSynthetic(c, n, budget, c.Seed+uint64(n))
		if err != nil {
			return nil, fmt.Errorf("eval: scalability size %d: %w", n, err)
		}
		row, err := runScale(inst, p)
		if err != nil {
			return nil, err
		}
		row.Nodes = n
		row.Budget = budget
		rows = append(rows, row)
	}
	return rows, nil
}

// ScalabilityByBudget reproduces Fig. 9(c,d): S3CA running time and
// explored ratio versus investment budget at a fixed network size.
func ScalabilityByBudget(c ScalabilityConfig, nodes int, budgets []float64, p RunParams) ([]ScaleRow, error) {
	c = c.withDefaults()
	p = p.withDefaults()
	var rows []ScaleRow
	for _, b := range budgets {
		inst, err := buildSynthetic(c, nodes, b, c.Seed+uint64(nodes))
		if err != nil {
			return nil, fmt.Errorf("eval: scalability budget %v: %w", b, err)
		}
		row, err := runScale(inst, p)
		if err != nil {
			return nil, err
		}
		row.Nodes = nodes
		row.Budget = b
		rows = append(rows, row)
	}
	return rows, nil
}

func runScale(inst *diffusion.Instance, p RunParams) (ScaleRow, error) {
	start := time.Now()
	sol, err := core.Solve(inst, core.Options{
		Engine: p.Engine, Model: p.Model,
		Samples: p.Samples, Seed: p.Seed, Workers: p.Workers,
	})
	if err != nil {
		return ScaleRow{}, err
	}
	return ScaleRow{
		RuntimeSeconds: time.Since(start).Seconds(),
		ExploredRatio:  float64(sol.Stats.ExploredNodes) / float64(inst.G.NumNodes()),
		Redemption:     sol.RedemptionRate,
	}, nil
}

// ApproxRow is one Fig. 10 sample: S3CA against the exhaustive optimum and
// the analytic worst-case floor on a small instance.
type ApproxRow struct {
	Margin    float64 // gross margin (%) varied as in the paper
	S3CA      float64
	Opt       float64
	WorstCase float64
}

// Approximation reproduces Fig. 10: on small pattern-preserving graphs,
// compare S3CA's redemption rate against the exhaustive optimum and the
// worst-case bound (1 − e^{−1/(b0·c0)})·OPT while sweeping the gross
// margin. The paper uses 150-node graphs with a restricted search; full
// enumeration needs smaller instances (DESIGN.md, Substitutions), so nodes
// defaults to 12.
func Approximation(c ScalabilityConfig, nodes int, margins []float64, p RunParams) ([]ApproxRow, error) {
	c = c.withDefaults()
	p = p.withDefaults()
	if nodes <= 0 {
		nodes = 12
	}
	src := rng.New(c.Seed ^ 0xa99)
	g, err := gen.PatternPreserving(gen.PatternConfig{
		Nodes:      nodes,
		Edges:      nodes * 2,
		Eta:        c.Eta,
		Clustering: c.Clustering,
		Mutual:     false,
	}, src)
	if err != nil {
		return nil, err
	}
	var rows []ApproxRow
	const scCost = 1.0
	for _, margin := range margins {
		benefit := scCost / (1 - margin/100)
		n := g.NumNodes()
		inst := &diffusion.Instance{
			G:        g,
			Benefit:  make([]float64, n),
			SeedCost: make([]float64, n),
			SCCost:   make([]float64, n),
			Budget:   float64(n) / 2,
		}
		for i := 0; i < n; i++ {
			inst.Benefit[i] = benefit
			inst.SCCost[i] = scCost
			deg := g.OutDegree(int32(i))
			if deg < 1 {
				deg = 1
			}
			inst.SeedCost[i] = 2 * float64(deg)
		}
		opt, err := baselines.Exhaustive(context.Background(), inst, baselines.ExhaustiveConfig{
			MaxSeeds: 2, MaxK: 2, Samples: p.Samples, Seed: p.Seed, Model: p.Model, MaxNodes: nodes,
		})
		if err != nil {
			return nil, err
		}
		sol, err := core.Solve(inst, core.Options{
			Engine: p.Engine, Model: p.Model,
			Samples: p.Samples, Seed: p.Seed, Workers: p.Workers,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ApproxRow{
			Margin:    margin,
			S3CA:      sol.RedemptionRate,
			Opt:       opt.RedemptionRate,
			WorstCase: baselines.WorstCaseBound(inst, opt.RedemptionRate),
		})
	}
	return rows, nil
}
