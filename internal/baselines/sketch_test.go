package baselines

import (
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
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
	g, err := graph.FromEdges(11, edges)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
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

func TestSeedCandidatesSketchPruning(t *testing.T) {
	inst := sketchInstance(t)
	cfg := Config{CandidateCap: 1, Samples: 50, Seed: 3, RISSketches: 2000}.withDefaults()

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
	cfg := Config{CandidateCap: 3, Samples: 50, Seed: 9, RISSketches: 500,
		Engine: diffusion.EngineSSR}.withDefaults()
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
// end-to-end — ris.GenerateLiveLT over the LT chosen-in-edge substrate,
// both with materialized rows and past a one-byte memory budget where every
// probe hashes — through sketchPrune: on the hub-vs-spreader instance
// (every node has a single in-edge, so it is LT-valid as-is) both must keep
// the certain spreader. A hard failure in the LT walk would fall back to
// degree pruning and keep the hub, so the assertion catches silent breakage
// too.
func TestSeedCandidatesSketchPruningLT(t *testing.T) {
	inst := sketchInstance(t)
	for _, budget := range []int64{0, 1} {
		cfg := Config{
			CandidateCap: 1, Samples: 50, Seed: 3, RISSketches: 2000,
			Engine: diffusion.EngineSSR, Model: diffusion.ModelLT,
			LiveEdgeMemBudget: budget,
		}.withDefaults()
		got := seedCandidates(inst, cfg)
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("mem budget %d: LT sketch pruning kept %v, want the certain spreader [1]", budget, got)
		}
	}
}
