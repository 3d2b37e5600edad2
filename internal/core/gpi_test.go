package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"s3crm/internal/costmodel"
	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// pathTo returns the forest's guaranteed path from seed to end, or nil.
func pathTo(f *gpForest, seed, end int32) *guaranteedPath {
	for _, gp := range f.paths {
		if gp.seed == seed && gp.end == end {
			return gp
		}
	}
	return nil
}

// gpiSolver returns a solver ready to run GPI on inst; GPI evaluates
// nothing, so it needs no engine.
func gpiSolver(inst *diffusion.Instance, limit int) *solver {
	s := &solver{inst: inst, explored: make([]bool, inst.G.NumNodes())}
	s.opts = Options{GPILimit: limit}.withDefaults()
	return s
}

// relClose reports whether a and b agree within tol relative to the larger
// magnitude (exactly, when both are zero).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// checkAgainstOracle runs GPI and the oracle on d and requires the same
// forest — seed, end, level, parent, chain and K̂ of every path, in order —
// with cost and benefit within 1e-12 relative.
func checkAgainstOracle(t *testing.T, inst *diffusion.Instance, d *diffusion.Deployment, limit int) *gpForest {
	t.Helper()
	forest := gpiSolver(inst, limit).identifyGuaranteedPaths(d)
	want := gpiSolver(inst, limit).oracleGPI(d)
	if len(forest.paths) != len(want) {
		t.Fatalf("GP count = %d, oracle %d", len(forest.paths), len(want))
	}
	for i, gp := range forest.paths {
		w := want[i]
		if gp.seed != w.seed || gp.end != w.end || gp.level != w.level || gp.parent != w.parent {
			t.Fatalf("path %d = (seed %d, end %d, level %d, parent %d), oracle (%d, %d, %d, %d)",
				i, gp.seed, gp.end, gp.level, gp.parent, w.seed, w.end, w.level, w.parent)
		}
		if c := chainOf(gp); !slices.Equal(c, w.chain) {
			t.Fatalf("path %d chain = %v, oracle %v", i, c, w.chain)
		}
		if a := forest.allocOf(gp); !slices.Equal(a, w.alloc) {
			t.Fatalf("path %d alloc = %v, oracle %v", i, a, w.alloc)
		}
		if !relClose(gp.cost, w.cost, 1e-12) || !relClose(gp.benefit, w.benefit, 1e-12) {
			t.Fatalf("path %d (end %d): cost %v benefit %v, oracle %v %v",
				i, gp.end, gp.cost, gp.benefit, w.cost, w.benefit)
		}
	}
	return forest
}

// randomGPIInstance draws a directed graph with cross edges, self-loops,
// rows longer than RedeemProbsInto's on-stack bound and a mix of certain,
// likely and unlikely edges.
func randomGPIInstance(t *testing.T, src *rng.Source) *diffusion.Instance {
	t.Helper()
	n := 5 + src.Intn(60)
	maxDeg := 1 + src.Intn(24)
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		deg := src.Intn(maxDeg + 1)
		seen := map[int]bool{}
		for i := 0; i < deg; i++ {
			u := src.Intn(n)
			if seen[u] {
				continue
			}
			seen[u] = true
			p := src.Float64()
			switch src.Intn(6) {
			case 0:
				p = 1
			case 1:
				p *= 0.05
			}
			edges = append(edges, graph.Edge{From: int32(v), To: int32(u), P: p})
		}
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 0.1 + src.Float64()*5
		inst.SeedCost[i] = 0.5 + src.Float64()*3
		inst.SCCost[i] = 0.05 + src.Float64()
	}
	return inst
}

func TestGPIMatchesOracleOnRandomInstances(t *testing.T) {
	src := rng.New(2024)
	limits := []int{0, 1, 2, 5, 17}
	for trial := 0; trial < 300; trial++ {
		inst := randomGPIInstance(t, src)
		n := inst.G.NumNodes()
		// Budgets from nearly nothing to loose: tight ones prune most
		// visits, loose ones let the DFS cover the reachable set.
		inst.Budget = 1 + src.Float64()*math.Pow(10, 2*src.Float64())
		d := diffusion.NewDeployment(n)
		for _, v := range src.Perm(n)[:1+src.Intn(min(n, 4))] {
			d.AddSeed(int32(v))
		}
		limit := limits[trial%len(limits)]
		t.Run(fmt.Sprintf("trial=%d/n=%d/limit=%d", trial, n, limit), func(t *testing.T) {
			checkAgainstOracle(t, inst, d, limit)
		})
	}
}

func TestGPIMatchesOracleOnTightBudgets(t *testing.T) {
	// Budgets just around the worked examples' path costs: every prune
	// decision is exercised and must come out the same.
	for _, budget := range []float64{0.5, 0.8, 1.2, 1.9, 2.85, 3.5, 10} {
		inst := example1(t, budget)
		d := diffusion.NewDeployment(8)
		d.AddSeed(1)
		d.SetK(1, 1)
		checkAgainstOracle(t, inst, d, 0)
	}
	inst := crossEdge(t)
	for _, budget := range []float64{0.5, 1, 1.5, 2, 3} {
		inst.Budget = budget
		d := diffusion.NewDeployment(4)
		d.AddSeed(0)
		checkAgainstOracle(t, inst, d, 0)
	}
}

// epinionsIDAnswer builds the Epinions profile at scale 10 the way
// eval.BuildInstance does (eval imports core, so it is rebuilt here) and
// returns the instance with its worldcache ID answer at 1,000 samples,
// seed 77: the deployment GPI starts from on the solve-mid workload.
func epinionsIDAnswer(tb testing.TB) (*diffusion.Instance, *diffusion.Deployment) {
	tb.Helper()
	p := gen.Epinions.Scaled(10)
	src := rng.New(77 ^ 0x5eed)
	g, err := p.Generate(src)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := costmodel.Assign(g, costmodel.Params{Mu: p.Mu, Sigma: p.Sigma}, src)
	if err != nil {
		tb.Fatal(err)
	}
	inst := &diffusion.Instance{
		G: g, Benefit: m.Benefit, SeedCost: m.SeedCost, SCCost: m.SCCost,
		Budget: p.Binv,
	}
	sol, err := Solve(inst, Options{
		Engine: diffusion.EngineWorldCache, Samples: 1000, Seed: 77, DisableGPI: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return inst, sol.Deployment
}

func TestGPIMatchesOracleOnEpinions(t *testing.T) {
	if testing.Short() {
		t.Skip("Epinions-profile GPI oracle skipped in -short mode")
	}
	inst, d := epinionsIDAnswer(t)
	forest := checkAgainstOracle(t, inst, d, 0)
	if len(forest.paths) < 1000 {
		t.Fatalf("only %d paths: the profile no longer exercises a deep DFS", len(forest.paths))
	}
	checkAgainstOracle(t, inst, d, 300)
}

func TestLevelSumsGrowAndReset(t *testing.T) {
	var ls levelSums
	ls.at(3).cost += 1.5
	if len(ls) != 4 {
		t.Fatalf("len after at(3) = %d, want 4", len(ls))
	}
	for l := int32(0); l < 3; l++ {
		if *ls.at(l) != (levelRow{}) {
			t.Fatalf("level %d = %+v, want zero", l, *ls.at(l))
		}
	}
	ls.at(1).extra -= 2
	ls.at(6).benefit += 4
	if len(ls) != 7 || ls.at(3).cost != 1.5 || ls.at(1).extra != -2 || ls.at(6).benefit != 4 {
		t.Fatalf("rows after growth = %+v", ls)
	}
	ls.reset()
	if len(ls) != 0 {
		t.Fatalf("len after reset = %d, want 0", len(ls))
	}
	// The capacity survives the reset; no stale row may.
	for l := int32(0); l < 7; l++ {
		if *ls.at(l) != (levelRow{}) {
			t.Fatalf("level %d after reset = %+v, want zero", l, *ls.at(l))
		}
	}
}

func TestGPIStateResetsAcrossSeeds(t *testing.T) {
	// Seeds of different depths in sequence: no traversal may read what
	// an earlier one left behind, so each seed's paths equal, bit for bit,
	// those of a solver that traverses only that seed, and the level
	// accumulator never grows far past the deepest level used.
	src := rng.New(7)
	for trial := 0; trial < 40; trial++ {
		inst := randomGPIInstance(t, src)
		n := inst.G.NumNodes()
		inst.Budget = 1e6
		d := diffusion.NewDeployment(n)
		seeds := src.Perm(n)[:min(n, 3)]
		for _, v := range seeds {
			d.AddSeed(int32(v))
		}
		s := gpiSolver(inst, 0)
		forest := s.identifyGuaranteedPaths(d)
		depth := int32(0)
		for _, gp := range forest.paths {
			depth = max(depth, gp.level)
		}
		if got := int32(cap(s.gpiSt.sums)); got > 2*(depth+1) {
			t.Fatalf("trial %d: level accumulator capacity %d for depth %d", trial, got, depth)
		}
		for _, seed := range d.Seeds() {
			alone := diffusion.NewDeployment(n)
			alone.AddSeed(seed)
			want := gpiSolver(inst, 0).identifyGuaranteedPaths(alone).paths
			var got []*guaranteedPath
			for _, gp := range forest.paths {
				if gp.seed == seed {
					got = append(got, gp)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d seed %d: %d paths after other seeds, %d alone", trial, seed, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.end != w.end || g.parent != w.parent || g.cost != w.cost || g.benefit != w.benefit {
					t.Fatalf("trial %d seed %d path %d: %+v after other seeds, %+v alone", trial, seed, i, *g, *w)
				}
			}
		}
		s.gpiSt.reset()
		for v := 0; v < n; v++ {
			if s.gpiSt.level[v] != -1 || s.gpiSt.pend[v] != -1 || s.gpiSt.khat[v] != 0 {
				t.Fatalf("trial %d: node %d not reset", trial, v)
			}
		}
	}
}

// BenchmarkGPI times phase 3 alone: the uncapped guaranteed-path
// enumeration over the Epinions scale-10 ID answer (the solve-mid
// workload's deployment), on a fresh solver per iteration so the DFS
// state's allocation is counted as a solve pays it. Reports paths per run.
func BenchmarkGPI(b *testing.B) {
	inst, d := epinionsIDAnswer(b)
	b.ReportAllocs()
	b.ResetTimer()
	paths := 0
	for i := 0; i < b.N; i++ {
		paths = len(gpiSolver(inst, 0).identifyGuaranteedPaths(d).paths)
	}
	b.ReportMetric(float64(paths), "paths")
}
