package ris

import (
	"math"
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

// generate draws count independent-cascade RR sets whose edge liveness is
// a hashed per-(world, edge) coin, with roots and coins both from seed.
func generate(g *graph.Graph, count int, seed uint64) (*Sketches, error) {
	return GenerateLive(g, count, rng.New(seed), rng.NewCoin(seed).Live)
}

// generateLT draws count linear-threshold RR sets over diffusion's LT
// liveness, in which each node selects at most one live in-edge. The 1-byte
// budget materializes nothing: every probe walks the in-row by hash.
func generateLT(g *graph.Graph, count int, seed uint64) (*Sketches, error) {
	le := diffusion.NewLTLiveEdges(g, count, rng.NewCoin(seed), 1)
	return GenerateLiveLT(g, count, rng.New(seed), func(world, edge uint64, _ float64) bool {
		return le.Live(world, edge)
	})
}

func TestGenerateErrors(t *testing.T) {
	g := hubGraph(t)
	if _, err := generate(g, 0, 1); err == nil {
		t.Fatal("zero count accepted")
	}
	empty, err := graph.FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := generate(empty, 10, 1); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestTopSeedsFindsHub(t *testing.T) {
	g := hubGraph(t)
	s, err := generate(g, 2000, 2)
	if err != nil {
		t.Fatal(err)
	}
	top := s.TopSeeds(1)
	if len(top) != 1 || top[0] != 0 {
		t.Fatalf("top seed = %v, want [0]", top)
	}
}

func TestInfluenceMatchesForwardMC(t *testing.T) {
	g := hubGraph(t)
	s, err := generate(g, 40000, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Forward truth: hub influence = 1 + 9·0.9 = 9.1.
	got := s.Influence([]int32{0})
	if math.Abs(got-9.1) > 0.3 {
		t.Fatalf("RIS influence = %v, want ≈ 9.1", got)
	}
	// A leaf influences only itself.
	leaf := s.Influence([]int32{5})
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
	s, err := generate(g, 60000, 8)
	if err != nil {
		t.Fatal(err)
	}
	seeds := s.TopSeeds(3)
	if len(seeds) == 0 {
		t.Fatal("no seeds returned")
	}
	risEst := s.Influence(seeds)

	n := g.NumNodes()
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

func TestTopSeedsGreedyCoverage(t *testing.T) {
	// Two disjoint stars: greedy must pick both hubs before any leaf.
	var edges []graph.Edge
	for to := int32(1); to <= 4; to++ {
		edges = append(edges, graph.Edge{From: 0, To: to, P: 1})
	}
	for to := int32(6); to <= 9; to++ {
		edges = append(edges, graph.Edge{From: 5, To: to, P: 1})
	}
	g, err := graph.FromEdges(10, edges)
	if err != nil {
		t.Fatal(err)
	}
	s, err := generate(g, 5000, 4)
	if err != nil {
		t.Fatal(err)
	}
	top := s.TopSeeds(2)
	if len(top) != 2 {
		t.Fatalf("want 2 seeds, got %v", top)
	}
	if !(top[0] == 0 && top[1] == 5 || top[0] == 5 && top[1] == 0) {
		t.Fatalf("top seeds = %v, want the two hubs", top)
	}
}

func TestTopSeedsExhaustsCoverage(t *testing.T) {
	g := hubGraph(t)
	s, err := generate(g, 500, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Asking for more seeds than useful nodes stops early.
	top := s.TopSeeds(100)
	if len(top) > 10 {
		t.Fatalf("returned %d seeds for a 10-node graph", len(top))
	}
}

func TestCount(t *testing.T) {
	g := hubGraph(t)
	s, err := generate(g, 123, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.sets) != 123 {
		t.Fatalf("drew %d sets, want 123", len(s.sets))
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
	s, err := generateLT(g, 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range s.sets {
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
	const count = 20000
	s, err := generateLT(g, count, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(s.CoverCount(0))/count, 0.8; math.Abs(got-want) > 0.02 {
		t.Fatalf("node 0 cover frequency %v, want ≈ %v", got, want)
	}
	if got, want := float64(s.CoverCount(1))/count, 0.5; math.Abs(got-want) > 0.02 {
		t.Fatalf("node 1 cover frequency %v, want ≈ %v", got, want)
	}
}

// TestGenerateLiveLTMatchesFullProbe proves the single-parent early exit
// is purely an optimization: against a LiveFunc with at most one live
// in-edge per (world, node) — the LT substrate's contract — GenerateLiveLT
// and the full-row-probing GenerateLive must draw identical sets (roots
// come from identical sequential streams, and the skipped probes could
// only have answered false).
func TestGenerateLiveLTMatchesFullProbe(t *testing.T) {
	g := ltTestGraph(t)
	// Map each forward edge index to its target and in-row position.
	target := make([]int32, g.NumEdges())
	pos := make([]int, g.NumEdges())
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		_, eidx := g.InEdges(v)
		for j, e := range eidx {
			target[e] = v
			pos[e] = j
		}
	}
	// Deterministic single-parent liveness: in world w, node v selects
	// in-row position (w+v) mod (indeg+1), with indeg meaning "none".
	live := func(world, edge uint64, _ float64) bool {
		v := target[edge]
		_, eidx := g.InEdges(v)
		return pos[edge] == int((world+uint64(uint32(v)))%uint64(len(eidx)+1))
	}
	a, err := GenerateLiveLT(g, 500, rng.New(7), live)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateLive(g, 500, rng.New(7), live)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.sets) != len(b.sets) {
		t.Fatalf("set counts differ: %d vs %d", len(a.sets), len(b.sets))
	}
	for i := range a.sets {
		if len(a.sets[i]) != len(b.sets[i]) {
			t.Fatalf("set %d sizes differ: %v vs %v", i, a.sets[i], b.sets[i])
		}
		for j := range a.sets[i] {
			if a.sets[i][j] != b.sets[i][j] {
				t.Fatalf("set %d entry %d differs: %v vs %v", i, j, a.sets[i], b.sets[i])
			}
		}
	}
}
