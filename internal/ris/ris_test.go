package ris

import (
	"math"
	"slices"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// hubGraph is a star: 0 → 1..9 with probability 0.9.
func hubGraph(t testing.TB) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, 9)
	for to := int32(1); to < 10; to++ {
		edges = append(edges, graph.Edge{From: 0, To: to, P: 0.9})
	}
	g, err := graph.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// draw returns count RR sets over g, set i rooted at the i-th draw of
// rng.New(seed) and walked in world i of rng.NewCoin(seed): by liveness
// coins under IC, by diffusion's LT selection uniform (item range
// diffusion.LTItemBase) under LT.
func draw(g *graph.Graph, count int, seed uint64, lt bool) [][]int32 {
	coin := rng.NewCoin(seed)
	roots := rng.New(seed)
	w := NewWalker(g)
	sets := make([][]int32, count)
	for i := range sets {
		root := int32(roots.Intn(g.NumNodes()))
		if lt {
			sets[i] = w.DrawLT(nil, root, uint64(i), coin, diffusion.LTItemBase)
		} else {
			sets[i] = w.Draw(nil, root, uint64(i), coin)
		}
	}
	return sets
}

// influence estimates the expected spread of seeds from RR sets over an
// n-node graph: n × the fraction of sets holding any seed (n = 1 reads the
// plain hit fraction).
func influence(sets [][]int32, n int, seeds ...int32) float64 {
	hit := 0
	for _, set := range sets {
		for _, v := range set {
			if slices.Contains(seeds, v) {
				hit++
				break
			}
		}
	}
	return float64(n) * float64(hit) / float64(len(sets))
}

func TestInfluenceMatchesForwardMC(t *testing.T) {
	g := hubGraph(t)
	sets := draw(g, 40000, 3, false)
	// Forward truth: hub influence = 1 + 9·0.9 = 9.1.
	got := influence(sets, g.NumNodes(), 0)
	if math.Abs(got-9.1) > 0.3 {
		t.Fatalf("RIS influence = %v, want ≈ 9.1", got)
	}
	// A leaf influences only itself.
	leaf := influence(sets, g.NumNodes(), 5)
	if math.Abs(leaf-1) > 0.15 {
		t.Fatalf("leaf influence = %v, want ≈ 1", leaf)
	}
}

func TestInfluenceAgreesWithDiffusionEstimator(t *testing.T) {
	// Cross-validate RIS against the forward capacity-constrained
	// estimator with unlimited coupons (where the two models coincide).
	src := rng.New(7)
	g, err := gen.ErdosRenyi(120, 500, src)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	sets := draw(g, 60000, 8, false)
	// Seed the three nodes in the most RR sets (ties to the smaller id).
	covers := make([]int, n)
	for _, set := range sets {
		for _, v := range set {
			covers[v]++
		}
	}
	seeds := make([]int32, n)
	for v := range seeds {
		seeds[v] = int32(v)
	}
	slices.SortStableFunc(seeds, func(a, b int32) int { return covers[b] - covers[a] })
	seeds = seeds[:3]
	risEst := influence(sets, n, seeds...)

	inst := &diffusion.Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   1e9,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 1
		inst.SeedCost[i] = 1
		inst.SCCost[i] = 1
	}
	d := diffusion.NewDeployment(n)
	for _, v := range seeds {
		d.AddSeed(v)
	}
	for v := int32(0); v < int32(n); v++ {
		d.SetK(v, g.OutDegree(v)) // unlimited coupons = plain IC
	}
	fwd := diffusion.NewEstimator(inst, 20000, 9).Evaluate(d).Activated
	if math.Abs(risEst-fwd)/fwd > 0.1 {
		t.Fatalf("RIS %v vs forward MC %v disagree beyond 10%%", risEst, fwd)
	}
}

// ltTestGraph is a small LT-valid graph (every node's in-weights sum to at
// most 1) with a two-in-edge node, so the categorical walk has a real
// choice to make: 0→2 (0.5), 1→2 (0.4), 2→3 (0.9).
func ltTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 2, P: 0.5}, {From: 1, To: 2, P: 0.4},
		{From: 2, To: 3, P: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGenerateLTSetsAreChains pins the structural consequence of the LT
// live-edge view: each node selects at most one in-edge, so an RR set is a
// simple chain — every entry after the first must be an in-neighbour of
// its predecessor.
func TestGenerateLTSetsAreChains(t *testing.T) {
	g := ltTestGraph(t)
	for i, set := range draw(g, 2000, 5, true) {
		for j := 1; j < len(set); j++ {
			if _, ok := g.EdgeProb(set[j], set[j-1]); !ok {
				t.Fatalf("set %d: entry %d (%d) is not an in-neighbour of %d",
					i, j, set[j], set[j-1])
			}
		}
	}
}

// TestGenerateLTFrequencies checks the LT RR-set marginals on a two-node
// graph 0→1 (w 0.6): node 0 appears in every set rooted at 0 (half of
// them) plus the sets rooted at 1 whose selection is live (0.6 of the
// other half) — 0.8 of all sets; node 1 only in its own roots — 0.5.
func TestGenerateLTFrequencies(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1, P: 0.6}})
	if err != nil {
		t.Fatal(err)
	}
	sets := draw(g, 20000, 9, true)
	if got, want := influence(sets, 1, 0), 0.8; math.Abs(got-want) > 0.02 {
		t.Fatalf("node 0 cover frequency %v, want ≈ %v", got, want)
	}
	if got, want := influence(sets, 1, 1), 0.5; math.Abs(got-want) > 0.02 {
		t.Fatalf("node 1 cover frequency %v, want ≈ %v", got, want)
	}
}
