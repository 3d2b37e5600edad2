package core

import (
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// fig1 reconstructs the S3CRM side of the paper's Fig. 1 comparison
// example. The published defaults: cseed = csc = 1, b = 3, Binv = 3.5,
// with the figure overriding b(v5) (the "highest benefit among users") and
// making v4, v5 unaffordable as seeds. The edges recover uniquely from the
// worked numbers:
//
//	v1 → v4 (0.55), v1 → v2 (0.5)       (case 2's dependent-edge note)
//	v4 → v5 (0.9), b(v5) = 6            (case 3: 8.295 = 5.325 + 6·0.495)
//	v2 → v3 (0.56)                      (v2's one-hop mass from Fig. 1(b))
//
// Those values reproduce the paper exactly:
//
//	case 1 (K1=2):       B = 6.15,  cost = 2.05,  rate 3.0
//	case 3 (K1=1, K4=1): B = 8.295, cost = 2.675, rate 3.1
//
// and S3CRM's answer is case 3 — seed v1 with {k1=1, k4=1}.
func fig1(t testing.TB) *diffusion.Instance {
	t.Helper()
	g, err := graph.FromEdges(6, []graph.Edge{
		{From: 1, To: 4, P: 0.55},
		{From: 1, To: 2, P: 0.5},
		{From: 4, To: 5, P: 0.9},
		{From: 2, To: 3, P: 0.56},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  []float64{3, 3, 3, 3, 3, 6},
		SeedCost: []float64{10, 1, 10, 10, 10, 10}, // v4, v5 > Binv: never seeds
		SCCost:   []float64{1, 1, 1, 1, 1, 1},
		Budget:   3.5,
	}
	return inst
}

func TestFig1Case1(t *testing.T) {
	inst := fig1(t)
	d := diffusion.NewDeployment(6)
	d.AddSeed(1)
	d.SetK(1, 2)
	b, err := diffusion.ExactTreeBenefit(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b, 6.15, 1e-12) {
		t.Fatalf("case 1 benefit = %v, want 6.15", b)
	}
	if cost := inst.TotalCost(d); !almost(cost, 2.05, 1e-12) {
		t.Fatalf("case 1 cost = %v, want 2.05", cost)
	}
	if rate := b / inst.TotalCost(d); !almost(rate, 3.0, 1e-12) {
		t.Fatalf("case 1 rate = %v, want 3.0", rate)
	}
}

func TestFig1Case3(t *testing.T) {
	inst := fig1(t)
	d := diffusion.NewDeployment(6)
	d.AddSeed(1)
	d.SetK(1, 1)
	d.SetK(4, 1)
	b, err := diffusion.ExactTreeBenefit(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b, 8.295, 1e-12) {
		t.Fatalf("case 3 benefit = %v, want 8.295", b)
	}
	if cost := inst.TotalCost(d); !almost(cost, 2.675, 1e-12) {
		t.Fatalf("case 3 cost = %v, want 2.675", cost)
	}
	rate := b / inst.TotalCost(d)
	if !almost(rate, 8.295/2.675, 1e-12) {
		t.Fatalf("case 3 rate = %v, want %v", rate, 8.295/2.675)
	}
}

func TestFig1S3CRMPicksCase3(t *testing.T) {
	// Running S3CA end-to-end must land on the paper's announced result:
	// seed v1 with one coupon at v1 and one at v4, redemption rate ≈ 3.1,
	// beating the IM-style (3.0) and PM-style (3.0) alternatives.
	inst := fig1(t)
	sol, err := Solve(inst, exactTreeOptions(t, inst))
	if err != nil {
		t.Fatal(err)
	}
	seeds := sol.Deployment.Seeds()
	if len(seeds) != 1 || seeds[0] != 1 {
		t.Fatalf("seeds = %v, want [1]", seeds)
	}
	if sol.Deployment.K(1) != 1 || sol.Deployment.K(4) != 1 {
		t.Fatalf("allocation = {v1:%d, v4:%d}, want {1, 1}",
			sol.Deployment.K(1), sol.Deployment.K(4))
	}
	if !almost(sol.RedemptionRate, 8.295/2.675, 1e-9) {
		t.Fatalf("rate = %v, want %v", sol.RedemptionRate, 8.295/2.675)
	}
	if sol.TotalCost > inst.Budget {
		t.Fatalf("budget violated: %v", sol.TotalCost)
	}
}
