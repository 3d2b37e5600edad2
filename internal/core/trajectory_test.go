package core

import (
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
)

// TestFig3InvestmentSequence verifies the ID phase walks the paper's
// Example 1 iterations exactly (Fig. 3(a)–(d)): starting from seed v1 with
// its pivot coupon, the marginal-redemption ranking buys
//
//	iteration 1: a second SC for v1 (MR 1.0 beats 0.6 and 0.16)
//	iteration 2: the first SC for v2 (MR 0.6)
//	iteration 3: a second SC for v2 (MR 0.6 beats v3's 0.4)
//	iteration 4: the first SC for v3 (MR 0.4)
//
// reaching the K1=2, K2=2, K3=1 allocation with total SC cost 2.84, after
// which the 2.85 budget blocks every further investment. The exact-tree
// evaluator removes Monte-Carlo noise so the sequence is deterministic.
func TestFig3InvestmentSequence(t *testing.T) {
	inst := example1(t, 2.85)
	opts := exactTreeOptions(t, inst)
	sol, err := Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		seed bool
		node int32
	}
	want := []step{
		{true, 1},  // initial deployment: v1 with one coupon
		{false, 1}, // Fig. 3(a): K1 = 2
		{false, 2}, // Fig. 3(b): K2 = 1
		{false, 2}, // Fig. 3(c): K2 = 2
		{false, 3}, // Fig. 3(d): K3 = 1
	}
	if len(sol.Trajectory) != len(want) {
		t.Fatalf("trajectory has %d steps, want %d: %+v",
			len(sol.Trajectory), len(want), sol.Trajectory)
	}
	for i, w := range want {
		got := sol.Trajectory[i]
		if got.Seed != w.seed || got.Node != w.node {
			t.Fatalf("step %d = seed %v node %d, want seed %v node %d",
				i, got.Seed, got.Node, w.seed, w.node)
		}
	}
	// The final trajectory point carries the paper's Fig. 3(d) accounting:
	// cost 2.84 plus the negligible seed cost.
	last := sol.Trajectory[len(sol.Trajectory)-1]
	if !almost(last.Cost, 2.84, 1e-6) {
		t.Fatalf("final cost = %v, want 2.84", last.Cost)
	}
	// B(K1=2,K2=2,K3=1) = 2 + 0.6·0.9 + 0.4·0.94·... — exact value from
	// the tree evaluator: v1 1 + v2 .6 + v3 .4 + v4 .6·.5 + v5 .6·.4 +
	// v6 .4·.8 + v7 .4·.2·.7
	wantB := 1 + 0.6 + 0.4 + 0.6*0.5 + 0.6*0.4 + 0.4*0.8 + 0.4*0.2*0.7
	if !almost(last.Benefit, wantB, 1e-12) {
		t.Fatalf("final benefit = %v, want %v", last.Benefit, wantB)
	}
}

// TestTrajectoryReplaysDeployment checks that Solution.Trajectory is the
// ID phase's move log: with GPI off, replaying it from the empty deployment
// reaches the returned deployment at some prefix (the argmax-rate snapshot),
// and under SpendBudget at the full log. Each logged cost is the total cost
// of its prefix.
func TestTrajectoryReplaysDeployment(t *testing.T) {
	insts := []struct {
		name string
		inst *diffusion.Instance
	}{
		{"example1", example1(t, 2.85)},
		{"epinions", presetInstance(t, gen.Epinions, 200, 5)},
	}
	for _, tc := range insts {
		for _, engine := range []string{diffusion.EngineMC, diffusion.EngineWorldCache} {
			for _, spend := range []bool{false, true} {
				sol, err := Solve(tc.inst, Options{
					Engine: engine, Samples: 200, Seed: 3, DisableGPI: true, SpendBudget: spend,
				})
				if err != nil {
					t.Fatal(err)
				}
				log := sol.Trajectory
				if len(log) == 0 {
					t.Fatalf("%s/%s: empty trajectory", tc.name, engine)
				}
				d := diffusion.NewDeployment(tc.inst.G.NumNodes())
				at := -1
				for i, p := range log {
					d.Apply(p.Move)
					if c := tc.inst.TotalCost(d); !almost(p.Cost, c, 1e-9*(1+c)) {
						t.Fatalf("%s/%s: step %d logs cost %v, its prefix costs %v", tc.name, engine, i, p.Cost, c)
					}
					if d.Equal(sol.Deployment) {
						at = i
					}
				}
				if spend && at != len(log)-1 || at < 0 {
					t.Fatalf("%s/%s spend=%v: deployment %v is the replay of prefix %d of %d moves",
						tc.name, engine, spend, sol.Deployment, at, len(log))
				}
			}
		}
	}
}
