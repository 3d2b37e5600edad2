package baselines

import (
	"slices"
	"testing"

	"s3crm/internal/costmodel"
	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// sketchInstance pits a high-degree hub with near-dead edges against a
// low-degree node with certain edges: degree pruning keeps the hub, sketch
// pruning must keep the actual spreader.
func sketchInstance(t *testing.T) *diffusion.Instance {
	t.Helper()
	// Node 0: degree 6, probability 0.01. Node 1: degree 3, probability 1.
	var edges []graph.Edge
	for to := int32(2); to < 8; to++ {
		edges = append(edges, graph.Edge{From: 0, To: to, P: 0.01})
	}
	for to := int32(8); to < 11; to++ {
		edges = append(edges, graph.Edge{From: 1, To: to, P: 1})
	}
	return unitInstance(t, 11, edges)
}

// unitInstance wraps an n-user edge list with unit benefits and costs and
// a budget of 100.
func unitInstance(t *testing.T, n int, edges []graph.Edge) *diffusion.Instance {
	t.Helper()
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   100,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 1
		inst.SeedCost[i] = 1
		inst.SCCost[i] = 1
	}
	return inst
}

// setUp returns cfg as the baselines run it on inst: defaults filled and
// the engine name resolved.
func setUp(t *testing.T, inst *diffusion.Instance, cfg Config) Config {
	t.Helper()
	cfg, _, err := cfg.setup(inst)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestSeedCandidatesSketchPruning(t *testing.T) {
	inst := sketchInstance(t)
	cfg := setUp(t, inst, Config{CandidateCap: 1, Samples: 50, Seed: 3})

	byDegree := seedCandidates(inst, cfg)
	if len(byDegree) != 1 || byDegree[0] != 0 {
		t.Fatalf("degree pruning kept %v, want the degree-6 hub [0]", byDegree)
	}

	cfg.Engine = diffusion.EngineSSR
	bySketch := seedCandidates(inst, cfg)
	if len(bySketch) != 1 || bySketch[0] != 1 {
		t.Fatalf("sketch pruning kept %v, want the certain spreader [1]", bySketch)
	}
}

// TestSeedCandidatesSketchDeterministic pins that sketch pruning is a pure
// function of the seed.
func TestSeedCandidatesSketchDeterministic(t *testing.T) {
	inst := sketchInstance(t)
	cfg := setUp(t, inst, Config{CandidateCap: 3, Samples: 50, Seed: 9,
		Engine: diffusion.EngineSSR})
	a := seedCandidates(inst, cfg)
	b := seedCandidates(inst, cfg)
	if len(a) != len(b) {
		t.Fatalf("non-deterministic pruning: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic pruning: %v vs %v", a, b)
		}
	}
}

// TestSeedCandidatesSketchPruningLT drives the linear-threshold RR-set path
// end-to-end through sketchPrune: on the hub-vs-spreader instance (every
// node has a single in-edge, so it is LT-valid as-is) it must keep the
// certain spreader, where degree pruning keeps the hub.
func TestSeedCandidatesSketchPruningLT(t *testing.T) {
	inst := sketchInstance(t)
	cfg := setUp(t, inst, Config{
		CandidateCap: 1, Samples: 50, Seed: 3,
		Engine: diffusion.EngineSSR, Model: diffusion.ModelLT,
	})
	got := seedCandidates(inst, cfg)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("LT sketch pruning kept %v, want the certain spreader [1]", got)
	}
}

// TestSeedCandidatesAutoPrunesLikeSSR: at and above the auto-selection size
// the baselines must resolve "auto" to ssr and sketch-prune exactly as an
// explicit "ssr" does. The instance is cheap to sketch — 200,000 users,
// almost all isolated — but has a weak-edged hub (0) and a strong spreader
// (1), so degree pruning and sketch pruning disagree.
func TestSeedCandidatesAutoPrunesLikeSSR(t *testing.T) {
	n := diffusion.AutoSSRNodeThreshold
	var edges []graph.Edge
	for to := int32(2); to < 102; to++ {
		edges = append(edges, graph.Edge{From: 0, To: to, P: 0.001})
	}
	for to := int32(102); to < 152; to++ {
		edges = append(edges, graph.Edge{From: 1, To: to, P: 1})
	}
	inst := unitInstance(t, n, edges)
	candidates := func(engine string) []int32 {
		return seedCandidates(inst, setUp(t, inst, Config{Engine: engine, CandidateCap: 1, Seed: 5}))
	}
	if got := candidates(diffusion.EngineMC); len(got) != 1 || got[0] != 0 {
		t.Fatalf("degree pruning kept %v, want the degree-100 hub [0]", got)
	}
	ssr, auto := candidates(diffusion.EngineSSR), candidates(diffusion.EngineAuto)
	if len(ssr) != 1 || ssr[0] != 1 {
		t.Fatalf("ssr pruning kept %v, want the strong spreader [1]", ssr)
	}
	if len(auto) != 1 || auto[0] != ssr[0] {
		t.Fatalf("auto pruning kept %v, ssr kept %v", auto, ssr)
	}
}

// TestSketchCoversMatchFullProbe is the walker-parity check: the cover
// counts sketchPrune ranks by — RR sets drawn by ris.Walker straight off
// the coin — must equal those of a reference walk that probes every
// in-edge of every dequeued node through diffusion's live-edge substrate,
// with materialized rows (default budget) and hashing every probe (1-byte
// budget), under both triggering models. Drawing the LT walk with any
// uniform other than the substrate's selection draw breaks it.
func TestSketchCoversMatchFullProbe(t *testing.T) {
	// Every node gets up to four in-edges of weight 0.8/in-degree: valid
	// for LT with a 0.2 "no live in-edge" mass, and a mix of weak and
	// strong edges for IC.
	const n, count, seed = 60, 3000, 11
	src := rng.New(seed)
	var edges []graph.Edge
	for v := int32(0); v < n; v++ {
		var from []int32
		for d := src.Intn(5); len(from) < d; {
			if u := int32(src.Intn(n)); u != v && !slices.Contains(from, u) {
				from = append(from, u)
			}
		}
		for _, u := range from {
			edges = append(edges, graph.Edge{From: u, To: v, P: 0.8 / float64(len(from))})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	if err := diffusion.ValidateLTWeights(g); err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{diffusion.ModelIC, diffusion.ModelLT} {
		got := coverCounts(g, model, count, seed)
		for _, budget := range []int64{0, 1} {
			want := fullProbeCovers(g, model, count, seed, budget)
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("%s, budget %d: node %d covered %d times, full probe %d",
						model, budget, v, got[v], want[v])
				}
			}
		}
	}
}

// fullProbeCovers is coverCounts' reference: the same roots and worlds,
// but every in-edge of every dequeued node is probed through a
// diffusion.LiveEdges substrate over count worlds with the given budget.
func fullProbeCovers(g *graph.Graph, model string, count int, seed uint64, budget int64) []int32 {
	coin := rng.NewCoin(seed)
	le := diffusion.NewLiveEdges(g, count, coin, budget)
	if model == diffusion.ModelLT {
		le = diffusion.NewLTLiveEdges(g, count, coin, budget)
	}
	roots := rng.New(seed)
	n := g.NumNodes()
	covers := make([]int32, n)
	for i := 0; i < count; i++ {
		seen := make([]bool, n)
		root := int32(roots.Intn(n))
		seen[root] = true
		queue := []int32{root}
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			covers[v]++
			srcs, eidx, _ := g.InEdges(v)
			for j, u := range srcs {
				if !seen[u] && le.Live(uint64(i), uint64(eidx[j])) {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return covers
}

// BenchmarkSketchPrune times the ssr candidate pruning on the Epinions
// profile at scale 10 (7,600 users, 50,900 edges): 200,000 RR sets at the
// default count, cover counting and the candidate sort, per triggering
// model. The profile mirrors eval.BuildInstance (which imports this
// package) at seed 77.
func BenchmarkSketchPrune(b *testing.B) {
	p := gen.Epinions.Scaled(10)
	src := rng.New(77 ^ 0x5eed)
	g, err := p.Generate(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := costmodel.Assign(g, costmodel.Params{Mu: p.Mu, Sigma: p.Sigma}, src)
	if err != nil {
		b.Fatal(err)
	}
	inst := &diffusion.Instance{
		G: g, Benefit: m.Benefit, SeedCost: m.SeedCost, SCCost: m.SCCost,
		Budget: p.Binv,
	}
	var affordable []int32
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		if inst.SeedCost[v] <= inst.Budget {
			affordable = append(affordable, v)
		}
	}
	for _, model := range []string{diffusion.ModelIC, diffusion.ModelLT} {
		b.Run("model="+model, func(b *testing.B) {
			cfg := Config{Engine: diffusion.EngineSSR, Model: model, CandidateCap: 100, Seed: 77}
			for b.Loop() {
				sketchPrune(inst, cfg, affordable)
			}
		})
	}
}
