package core

import (
	"math"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// exactTree is the exact forest evaluator as an engine: B(S, K) comes from
// diffusion.ExactTreeBenefit whenever the deployment's reachable subgraph
// is a forest, and from the wrapped Monte-Carlo engine otherwise. Solving
// the paper's tree-shaped worked examples through it removes all estimator
// noise. The solver reads only Benefit and Evals, so Evaluate and
// RedemptionRate stay Monte Carlo.
type exactTree struct {
	diffusion.Evaluator
	inst *diffusion.Instance
}

func (e exactTree) Benefit(d *diffusion.Deployment) float64 {
	if b, err := diffusion.ExactTreeBenefit(e.inst, d); err == nil {
		return b
	}
	return e.Evaluator.Benefit(d)
}

// exactTreeOptions returns 10-sample, seed-1 solve options whose evaluator
// and snapshot scorer are both exactTree, over the Monte-Carlo engines the
// solver would otherwise build for those options.
func exactTreeOptions(t testing.TB, inst *diffusion.Instance) Options {
	t.Helper()
	const samples, seed = 10, 1
	engine := func(seed uint64) diffusion.Evaluator {
		ev, err := diffusion.NewEngineOpts(inst, diffusion.EngineOptions{Samples: samples, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return exactTree{ev, inst}
	}
	return Options{
		Samples: samples, Seed: seed,
		Evaluator: engine(seed), Scorer: engine(seed ^ 0x5c04e),
	}
}

// example1 is the paper's Fig. 3 instance (see diffusion tests).
func example1(t testing.TB, budget float64) *diffusion.Instance {
	t.Helper()
	g, err := graph.FromEdges(8, []graph.Edge{
		{From: 1, To: 2, P: 0.6}, {From: 1, To: 3, P: 0.4},
		{From: 2, To: 4, P: 0.5}, {From: 2, To: 5, P: 0.4},
		{From: 3, To: 6, P: 0.8}, {From: 3, To: 7, P: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   budget,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 1
		inst.SCCost[i] = 1
		inst.SeedCost[i] = 1e9
	}
	inst.SeedCost[1] = 1e-9
	return inst
}

// treasure builds an instance where greedy one-step investment (ID) parks
// coupons on a decoy branch and only the SC maneuver phase can unlock a
// high-benefit user hidden behind two coupon hops:
//
//	v0 → a (1.0) → b (1.0) → t (1.0, benefit 100), a and b low benefit
//	v0 → d (0.9, benefit 1) → {d1,d2,d3} (1.0, benefit 3 each)
//
// ID's marginal redemptions: broadening to the decoy hub (MR 1.0) and its
// children (MR 2.7) strictly dominate the low-benefit treasure chain
// (MR 0.1), so ID spends K(v0)=2 and K(d)=3; by then the remaining budget
// no longer fits both treasure-chain coupons (a and b). The best
// intermediate deployment is {v0:2, d:3}. SCM must retrieve decoy coupons
// and realize the guaranteed path to t — exactly the paper's Example 3
// pattern (high-benefit inactive users reachable only by maneuvering).
func treasure(t testing.TB) *diffusion.Instance {
	t.Helper()
	const (
		v0 = 0
		a  = 1
		b  = 2
		tt = 3
		d  = 4
	)
	edges := []graph.Edge{
		{From: v0, To: a, P: 1.0},
		{From: v0, To: d, P: 0.9},
		{From: a, To: b, P: 1.0},
		{From: b, To: tt, P: 1.0},
		{From: d, To: 5, P: 1.0},
		{From: d, To: 6, P: 1.0},
		{From: d, To: 7, P: 1.0},
	}
	g, err := graph.FromEdges(8, edges)
	if err != nil {
		t.Fatal(err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  []float64{1, 0.1, 0.1, 100, 1, 3, 3, 3},
		SeedCost: []float64{0.01, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9, 1e9},
		SCCost:   []float64{1, 1, 1, 1, 1, 1, 1, 1},
		Budget:   6.01,
	}
	return inst
}

func TestSolveExample1(t *testing.T) {
	// With budget 2.85 ID walks the paper's Fig. 3 trajectory; the
	// best-redemption intermediate deployment is the initial one
	// ({v1, K1=1}: 1.76/0.76 ≈ 2.32) and SCM cannot improve it.
	inst := example1(t, 2.85)
	sol, err := Solve(inst, Options{Samples: 50000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	seeds := sol.Deployment.Seeds()
	if len(seeds) != 1 || seeds[0] != 1 {
		t.Fatalf("seeds = %v, want [1]", seeds)
	}
	if !almost(sol.RedemptionRate, 1.76/0.76, 0.05) {
		t.Fatalf("rate = %v, want ≈ %v", sol.RedemptionRate, 1.76/0.76)
	}
	if sol.TotalCost > inst.Budget {
		t.Fatalf("budget violated: %v > %v", sol.TotalCost, inst.Budget)
	}
}

func TestSolveExample1SCCostMatchesPaper(t *testing.T) {
	// The paper's Example 3 states the ID allocation K1=2, K2=2, K3=1 has
	// total invested SC cost 2.84; confirm our closed form agrees so the
	// ID trajectory walks the same cost curve.
	inst := example1(t, 2.85)
	d := diffusion.NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 2)
	d.SetK(2, 2)
	d.SetK(3, 1)
	if got := inst.SCCostOf(d); !almost(got, 2.84, 1e-9) {
		t.Fatalf("Csc(Fig 3d) = %v, want 2.84", got)
	}
}

func TestSolveTreasureNeedsSCM(t *testing.T) {
	inst := treasure(t)
	full, err := Solve(inst, Options{Samples: 20000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	idOnly, err := Solve(inst, Options{Samples: 20000, Seed: 3, DisableGPI: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.GPsCreated == 0 {
		t.Fatalf("SCM created no guaranteed paths: %+v", full.Stats)
	}
	if full.Stats.ManeuverCount == 0 {
		t.Fatal("SCM applied no maneuver operations")
	}
	if full.Deployment.K(2) < 1 {
		t.Fatalf("treasure chain not realized: K(b) = %d", full.Deployment.K(2))
	}
	if full.RedemptionRate < 3*idOnly.RedemptionRate {
		t.Fatalf("SCM gain too small: full %v vs ID-only %v",
			full.RedemptionRate, idOnly.RedemptionRate)
	}
	if full.TotalCost > inst.Budget {
		t.Fatalf("budget violated: %v > %v", full.TotalCost, inst.Budget)
	}
}

func TestSolveExactTreeNoNoise(t *testing.T) {
	// With the exact forest evaluator there is no Monte-Carlo noise: the
	// final rate on the Fig. 3 instance is exactly 1.76/0.76 (up to the
	// tiny seed cost in the denominator).
	inst := example1(t, 2.85)
	sol, err := Solve(inst, exactTreeOptions(t, inst))
	if err != nil {
		t.Fatal(err)
	}
	want := 1.76 / (0.76 + 1e-9)
	if !almost(sol.RedemptionRate, want, 1e-9) {
		t.Fatalf("exact-tree rate = %v, want %v exactly", sol.RedemptionRate, want)
	}
	if sol.Deployment.K(1) != 1 || sol.Deployment.TotalK() != 1 {
		t.Fatalf("exact-tree deployment wrong: %v", sol.Deployment)
	}
}

func TestSolveDeterministic(t *testing.T) {
	inst := treasure(t)
	a, err := Solve(inst, Options{Samples: 5000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(inst, Options{Samples: 5000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Deployment.Equal(b.Deployment) {
		t.Fatalf("same options, different deployments:\n%v\n%v", a.Deployment, b.Deployment)
	}
	if a.RedemptionRate != b.RedemptionRate {
		t.Fatalf("same options, different rates: %v vs %v", a.RedemptionRate, b.RedemptionRate)
	}
}

func TestSolveNoAffordableSeed(t *testing.T) {
	inst := example1(t, 2.85)
	for i := range inst.SeedCost {
		inst.SeedCost[i] = 1e9
	}
	sol, err := Solve(inst, Options{Samples: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Deployment.NumSeeds() != 0 || sol.TotalCost != 0 {
		t.Fatalf("expected empty solution, got %v", sol)
	}
	if sol.RedemptionRate != 0 {
		t.Fatalf("empty solution rate = %v, want 0", sol.RedemptionRate)
	}
}

func TestSolveInvalidInstance(t *testing.T) {
	inst := example1(t, 2.85)
	inst.Benefit = inst.Benefit[:2]
	if _, err := Solve(inst, Options{Samples: 10}); err == nil {
		t.Fatal("invalid instance accepted")
	}
}

// TestSolveScorerModelError: with an injected engine, the snapshot scorer
// the solver builds itself follows Model. Under "lt" on an instance whose
// in-weights break the linear-threshold bound, that construction fails and
// the solve must report it instead of scoring on another model.
func TestSolveScorerModelError(t *testing.T) {
	inst := lazyRandomInstance(t, 1)
	n := int32(inst.G.NumNodes())
	var edges []graph.Edge
	for u := int32(0); u < n; u++ {
		for d := int32(1); d <= 3; d++ { // every user's in-weights sum to 1.8
			edges = append(edges, graph.Edge{From: u, To: (u + d) % n, P: 0.6})
		}
	}
	g, err := graph.FromEdges(int(n), edges)
	if err != nil {
		t.Fatal(err)
	}
	inst.G = g
	opts := Options{Samples: 100, Seed: 3, Evaluator: diffusion.NewEstimator(inst, 100, 3)}
	sol, err := Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Trajectory) < 2 {
		t.Fatalf("%d ID moves: snapshot selection never builds a scorer", len(sol.Trajectory))
	}
	opts.Model = diffusion.ModelLT
	if _, err := Solve(inst, opts); err == nil {
		t.Fatal("solve under lt scored snapshots on an IC scorer instead of failing")
	}
}

func TestSolveRespectsBudgetOnRandomInstances(t *testing.T) {
	src := rng.New(42)
	for trial := 0; trial < 8; trial++ {
		g, err := gen.ErdosRenyi(60, 300, src.Split())
		if err != nil {
			t.Fatal(err)
		}
		n := g.NumNodes()
		inst := &diffusion.Instance{
			G:        g,
			Benefit:  make([]float64, n),
			SeedCost: make([]float64, n),
			SCCost:   make([]float64, n),
			Budget:   5 + src.Float64()*20,
		}
		for i := 0; i < n; i++ {
			inst.Benefit[i] = 0.5 + src.Float64()*5
			inst.SeedCost[i] = 1 + src.Float64()*10
			inst.SCCost[i] = 0.2 + src.Float64()
		}
		sol, err := Solve(inst, Options{Samples: 300, Seed: uint64(trial)})
		if err != nil {
			t.Fatal(err)
		}
		if sol.TotalCost > inst.Budget+1e-9 {
			t.Fatalf("trial %d: budget violated: cost %v > budget %v",
				trial, sol.TotalCost, inst.Budget)
		}
		// Every allocation respects the SC constraint k_i <= |N(v_i)|.
		for v := int32(0); v < int32(n); v++ {
			if sol.Deployment.K(v) > g.OutDegree(v) {
				t.Fatalf("trial %d: K(%d)=%d exceeds out-degree %d",
					trial, v, sol.Deployment.K(v), g.OutDegree(v))
			}
		}
	}
}

func TestSolveAblationsNeverBeatFull(t *testing.T) {
	// The full algorithm keeps the best deployment it sees, so ablations
	// can never strictly beat it on the same estimator seed.
	inst := treasure(t)
	full, err := Solve(inst, Options{Samples: 10000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{
		{Samples: 10000, Seed: 5, DisableGPI: true},
		{Samples: 10000, Seed: 5, DisableSCM: true},
	} {
		ab, err := Solve(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		if ab.RedemptionRate > full.RedemptionRate+1e-9 {
			t.Fatalf("ablation %+v beat full: %v > %v", opts, ab.RedemptionRate, full.RedemptionRate)
		}
	}
}

func TestPivotQueueOrdering(t *testing.T) {
	// Two affordable seeds with different standalone rates: the better one
	// must be first.
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 2, P: 0.9},
		{From: 1, To: 3, P: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  []float64{5, 1, 1, 1},
		SeedCost: []float64{1, 1, 1e9, 1e9},
		SCCost:   []float64{1, 1, 1, 1},
		Budget:   10,
	}
	s := &solver{inst: inst, est: diffusion.NewEstimator(inst, 100, 1), explored: make([]bool, 4)}
	s.opts = Options{}.withDefaults()
	q := s.buildPivotQueue()
	if len(q) != 2 {
		t.Fatalf("queue size = %d, want 2", len(q))
	}
	if q[0].node != 0 {
		t.Fatalf("best pivot = %d, want 0", q[0].node)
	}
	// Node 0's standalone rate with one coupon: (5+0.9)/(1+0.9) ≈ 3.1
	if !almost(q[0].rate, 5.9/1.9, 1e-9) {
		t.Fatalf("pivot rate = %v, want %v", q[0].rate, 5.9/1.9)
	}
	if q[0].k != 1 {
		t.Fatalf("pivot coupons = %d, want 1", q[0].k)
	}
}

func TestPivotQueueSkipsUnaffordable(t *testing.T) {
	inst := example1(t, 2.85) // only node 1 affordable
	s := &solver{inst: inst, est: diffusion.NewEstimator(inst, 100, 1), explored: make([]bool, 8)}
	s.opts = Options{}.withDefaults()
	q := s.buildPivotQueue()
	if len(q) != 1 || q[0].node != 1 {
		t.Fatalf("queue = %+v, want only node 1", q)
	}
}

func TestGPIPaths(t *testing.T) {
	// On example1 with D* = {v1, K1=1}, GPI must enumerate guaranteed
	// paths for the whole reachable tree with the paper's costs: the GP
	// ending at the last leaf carries allocation K̂1=2, K̂2=2, K̂3=1 and
	// cost 2.84.
	inst := example1(t, 2.85)
	s := &solver{inst: inst, est: diffusion.NewEstimator(inst, 1000, 1), explored: make([]bool, 8)}
	s.opts = Options{Samples: 1000}.withDefaults()
	d := diffusion.NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 1)
	forest := s.identifyGuaranteedPaths(d)
	// Visits: v1, v2, v4, v5, v3, v6. The GP ending at v7 would need
	// K̂3=2 (cost 3.4 > 2.85) and is pruned.
	if len(forest.paths) != 6 {
		t.Fatalf("GP count = %d, want 6 (v7 pruned by budget)", len(forest.paths))
	}
	// The GP ending at v6 carries the paper's Fig. 3(d) allocation
	// K̂1=2, K̂2=2, K̂3=1 with total invested SC cost 2.84 (Example 3).
	var last *guaranteedPath
	for _, gp := range forest.paths {
		if gp.end == 6 {
			last = gp
		}
	}
	if last == nil {
		t.Fatal("no GP ends at node 6")
	}
	if !almost(last.cost, 2.84, 1e-9) {
		t.Fatalf("g(v1,v6) cost = %v, want 2.84", last.cost)
	}
	wantAlloc := map[int32]int32{1: 2, 2: 2, 3: 1}
	for _, a := range forest.allocOf(last) {
		if wantAlloc[a.node] != a.k {
			t.Fatalf("alloc of %d = %d, want %d", a.node, a.k, wantAlloc[a.node])
		}
		delete(wantAlloc, a.node)
	}
	if len(wantAlloc) != 0 {
		t.Fatalf("missing allocations: %v", wantAlloc)
	}
}

func TestGPIBudgetPrunes(t *testing.T) {
	// With a tight budget the traversal stops early: only the seed and the
	// strongest child fit.
	inst := example1(t, 0.8) // budget - seed cost ≈ 0.8; g(v1,v2) costs 0.76
	s := &solver{inst: inst, est: diffusion.NewEstimator(inst, 1000, 1), explored: make([]bool, 8)}
	s.opts = Options{Samples: 1000}.withDefaults()
	d := diffusion.NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 1)
	forest := s.identifyGuaranteedPaths(d)
	if len(forest.paths) != 2 {
		t.Fatalf("GP count = %d, want 2 (seed and v2)", len(forest.paths))
	}
	for _, gp := range forest.paths {
		if gp.end != 1 && gp.end != 2 {
			t.Fatalf("unexpected GP end %d", gp.end)
		}
	}
}

func TestGPChainAndLevels(t *testing.T) {
	inst := treasure(t)
	s := &solver{inst: inst, est: diffusion.NewEstimator(inst, 1000, 1), explored: make([]bool, 8)}
	s.opts = Options{Samples: 1000}.withDefaults()
	d := diffusion.NewDeployment(8)
	d.AddSeed(0)
	d.SetK(0, 1)
	forest := s.identifyGuaranteedPaths(d)
	gp := pathTo(forest, 0, 3) // treasure node t
	if gp == nil {
		t.Fatal("no GP to the treasure")
	}
	want := []int32{0, 1, 2, 3}
	chain := chainOf(gp)
	if len(chain) != len(want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
	if gp.level != 3 {
		t.Fatalf("level = %d, want 3", gp.level)
	}
	if gp.parent != 2 {
		t.Fatalf("parent = %d, want 2", gp.parent)
	}
}

func TestInfluencedSet(t *testing.T) {
	inst := treasure(t)
	d := diffusion.NewDeployment(8)
	d.AddSeed(0)
	d.SetK(0, 2)
	d.SetK(4, 3)
	inf := influencedSet(inst.G, d)
	wantTrue := []int32{0, 1, 4, 5, 6, 7}
	wantFalse := []int32{2, 3}
	for _, v := range wantTrue {
		if !inf[v] {
			t.Fatalf("node %d should be influenced", v)
		}
	}
	for _, v := range wantFalse {
		if inf[v] {
			t.Fatalf("node %d should not be influenced", v)
		}
	}
}

func TestSafeRatio(t *testing.T) {
	if safeRatio(1, 2) != 0.5 {
		t.Fatal("plain ratio wrong")
	}
	if safeRatio(0, 0) != 0 {
		t.Fatal("0/0 should be 0")
	}
	if !math.IsInf(safeRatio(1, 0), 1) {
		t.Fatal("x/0 should be +Inf")
	}
	if safeRatio(-1, 0) != 0 {
		t.Fatal("negative/0 should be 0")
	}
}

func TestStatsPopulated(t *testing.T) {
	inst := treasure(t)
	sol, err := Solve(inst, Options{Samples: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats
	if st.QueueSize == 0 || st.IDIterations == 0 || st.GPCount == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
	if st.ExploredNodes == 0 || st.Evaluations == 0 {
		t.Fatalf("instrumentation empty: %+v", st)
	}
	if st.ExploredNodes > inst.G.NumNodes() {
		t.Fatalf("explored %d > |V|", st.ExploredNodes)
	}
}
