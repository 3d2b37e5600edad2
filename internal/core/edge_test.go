package core

import (
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// crossEdge builds a graph where the GPI traversal meets an already-visited
// node through a cross edge, exercising the max-position coupon covering
// (DESIGN.md fidelity note 3):
//
//	s → a (0.9), s → b (0.8), a → b (0.9), a → c (0.5)
//
// DFS visits a, then b (via a, position 0), then c (via a, position 1);
// the later visit of b directly from s is skipped as a cross edge.
func crossEdge(t testing.TB) *diffusion.Instance {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1, P: 0.9}, {From: 0, To: 2, P: 0.8},
		{From: 1, To: 2, P: 0.9}, {From: 1, To: 3, P: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1, 1}
	seedCost := []float64{0.1, 1e9, 1e9, 1e9}
	return &diffusion.Instance{G: g, Benefit: ones, SeedCost: seedCost, SCCost: ones, Budget: 10}
}

func TestGPIHandlesCrossEdges(t *testing.T) {
	inst := crossEdge(t)
	s := &solver{inst: inst, est: diffusion.NewEstimator(inst, 500, 1), explored: make([]bool, 4)}
	s.opts = Options{Samples: 500}.withDefaults()
	d := diffusion.NewDeployment(4)
	d.AddSeed(0)
	d.SetK(0, 1)
	forest := s.identifyGuaranteedPaths(d)
	// Visits: s, a (via s), b (via a), c (via a); s's direct edge to b is
	// a cross edge.
	if len(forest.paths) != 4 {
		t.Fatalf("GP count = %d, want 4", len(forest.paths))
	}
	gpC := pathTo(forest, 0, 3)
	if gpC == nil {
		t.Fatal("no GP to c")
	}
	// Realizing c requires covering a's positions 0..1 (b at position 0,
	// c at position 1): K̂(a) = 2.
	var kA int32
	for _, al := range forest.allocOf(gpC) {
		if al.node == 1 {
			kA = al.k
		}
	}
	if kA != 2 {
		t.Fatalf("K̂(a) = %d, want 2 (cover positions up to c)", kA)
	}
}

func TestSolveOnCyclicGraph(t *testing.T) {
	// Cycles must not hang any phase.
	g, err := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1, P: 0.8}, {From: 1, To: 2, P: 0.8}, {From: 2, To: 0, P: 0.8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1}
	inst := &diffusion.Instance{
		G: g, Benefit: ones,
		SeedCost: []float64{0.5, 1e9, 1e9},
		SCCost:   ones, Budget: 5,
	}
	sol, err := Solve(inst, Options{Samples: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.TotalCost > inst.Budget {
		t.Fatalf("budget violated: %v", sol.TotalCost)
	}
	if sol.Deployment.NumSeeds() != 1 {
		t.Fatalf("seeds = %d, want 1", sol.Deployment.NumSeeds())
	}
}

func TestSolveSingleNode(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  []float64{5},
		SeedCost: []float64{1},
		SCCost:   []float64{1},
		Budget:   2,
	}
	sol, err := Solve(inst, Options{Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Deployment.NumSeeds() != 1 || !almost(sol.RedemptionRate, 5, 1e-9) {
		t.Fatalf("single-node solution wrong: %v", sol)
	}
}

func TestSolveZeroBudget(t *testing.T) {
	inst := crossEdge(t)
	inst.Budget = 0
	sol, err := Solve(inst, Options{Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.TotalCost != 0 {
		t.Fatalf("zero budget spent %v", sol.TotalCost)
	}
}

func TestSolveRateToleranceSpendsOnPlateau(t *testing.T) {
	// A seed with many identical, equally-efficient branches: every coupon
	// has the same MR, the rate curve is flat, and the tie-break must keep
	// investing instead of stopping at the first coupon.
	edges := make([]graph.Edge, 0, 6)
	for to := int32(1); to <= 6; to++ {
		edges = append(edges, graph.Edge{From: 0, To: to, P: 1})
	}
	g, err := graph.FromEdges(7, edges)
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1, 1, 1, 1, 1}
	inst := &diffusion.Instance{
		G: g, Benefit: ones,
		SeedCost: []float64{1, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9},
		SCCost:   ones, Budget: 5,
	}
	sol, err := Solve(inst, Options{Samples: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Budget 5 − seed 1 = 4 coupons' worth; the plateau tie-break should
	// allocate (close to) all of them rather than stopping at one.
	if sol.Deployment.K(0) < 3 {
		t.Fatalf("plateau tie-break under-invested: K = %d", sol.Deployment.K(0))
	}
}
