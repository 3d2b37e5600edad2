package diffusion

import (
	"fmt"
	"math"
	"testing"

	"s3crm/internal/graph"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// example1 builds the Fig. 3 instance of the paper (Example 1):
//
//	v1 → v2 (0.6), v1 → v3 (0.4)
//	v2 → v4 (0.5), v2 → v5 (0.4)
//	v3 → v6 (0.8), v3 → v7 (0.7)
//
// b(vi) = csc(vi) = 1 for all; only v1 is affordable as a seed.
func example1(t testing.TB) *Instance {
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
	inst := &Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   4,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 1
		inst.SCCost[i] = 1
		inst.SeedCost[i] = 1e9 // effectively unaffordable
	}
	inst.SeedCost[1] = 1e-9 // ~0 per the example
	return inst
}

func TestRedeemProbsUnlimited(t *testing.T) {
	probs := []float64{0.9, 0.5, 0.3}
	rp := RedeemProbs(probs, 3)
	for j := range probs {
		if !almost(rp[j], probs[j], 1e-12) {
			t.Fatalf("k=deg: rp[%d] = %v, want %v", j, rp[j], probs[j])
		}
	}
	// k beyond degree behaves the same
	rp = RedeemProbs(probs, 10)
	for j := range probs {
		if !almost(rp[j], probs[j], 1e-12) {
			t.Fatalf("k>deg: rp[%d] = %v, want %v", j, rp[j], probs[j])
		}
	}
}

func TestRedeemProbsZeroCoupons(t *testing.T) {
	rp := RedeemProbs([]float64{0.9, 0.5}, 0)
	for j, p := range rp {
		if p != 0 {
			t.Fatalf("k=0: rp[%d] = %v, want 0", j, p)
		}
	}
}

func TestRedeemProbsOneCouponTwoFriends(t *testing.T) {
	// The paper's running pattern: second neighbour redeems only when the
	// first failed — (1-p1)·p2.
	rp := RedeemProbs([]float64{0.6, 0.4}, 1)
	if !almost(rp[0], 0.6, 1e-12) {
		t.Fatalf("rp[0] = %v, want 0.6", rp[0])
	}
	if !almost(rp[1], 0.4*0.4, 1e-12) {
		t.Fatalf("rp[1] = %v, want 0.16", rp[1])
	}
}

func TestRedeemProbsCapacityTwoOfThree(t *testing.T) {
	// k=2, probs p1,p2,p3. Position 3 redeems iff fewer than 2 of the
	// first two redeemed: 1 - p1·p2.
	p1, p2, p3 := 0.5, 0.5, 0.8
	rp := RedeemProbs([]float64{p1, p2, p3}, 2)
	if !almost(rp[0], p1, 1e-12) || !almost(rp[1], p2, 1e-12) {
		t.Fatalf("independent positions wrong: %v", rp)
	}
	want := p3 * (1 - p1*p2)
	if !almost(rp[2], want, 1e-12) {
		t.Fatalf("rp[2] = %v, want %v", rp[2], want)
	}
}

func TestRedeemProbsMonotoneInK(t *testing.T) {
	probs := []float64{0.9, 0.7, 0.5, 0.3, 0.2}
	prev := RedeemProbs(probs, 0)
	for k := 1; k <= len(probs); k++ {
		cur := RedeemProbs(probs, k)
		for j := range probs {
			if cur[j]+1e-12 < prev[j] {
				t.Fatalf("rp not monotone in k at k=%d j=%d: %v < %v", k, j, cur[j], prev[j])
			}
			if cur[j] > probs[j]+1e-12 {
				t.Fatalf("rp[%d]=%v exceeds edge probability %v", j, cur[j], probs[j])
			}
		}
		prev = cur
	}
}

func TestRedeemProbsExpectedCountAtMostK(t *testing.T) {
	probs := []float64{0.9, 0.9, 0.9, 0.9, 0.9, 0.9}
	for k := 0; k <= 4; k++ {
		rp := RedeemProbs(probs, k)
		sum := 0.0
		for _, p := range rp {
			sum += p
		}
		if sum > float64(k)+1e-9 {
			t.Fatalf("expected redemptions %v exceed k=%d", sum, k)
		}
	}
}

func TestDependentFactorConsistency(t *testing.T) {
	probs := []float64{0.8, 0.6, 0.4, 0.2}
	for k := 1; k <= 3; k++ {
		rp := RedeemProbs(probs, k)
		for j := range probs {
			want := probs[j] * dependentFactor(probs, k, j)
			if !almost(rp[j], want, 1e-12) {
				t.Fatalf("k=%d j=%d: rp=%v, probs*factor=%v", k, j, rp[j], want)
			}
		}
	}
}

func TestRedeemProbsIntoPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	RedeemProbsInto(make([]float64, 1), []float64{0.5, 0.5}, 1)
}

// --- Example 1 ground truth (paper Section IV-A, Fig. 3) ---

func TestExample1StandaloneBenefit(t *testing.T) {
	inst := example1(t)
	// B(v1 seed, K1=1) = 1 + 0.6 + (1-0.6)·0.4 = 1.76
	if got := inst.StandaloneBenefit(1, 1); !almost(got, 1.76, 1e-12) {
		t.Fatalf("standalone benefit = %v, want 1.76", got)
	}
	// K1=2: 1 + 0.6 + 0.4 = 2
	if got := inst.StandaloneBenefit(1, 2); !almost(got, 2.0, 1e-12) {
		t.Fatalf("standalone benefit k=2 = %v, want 2", got)
	}
	// No coupons: own benefit only.
	if got := inst.StandaloneBenefit(1, 0); !almost(got, 1.0, 1e-12) {
		t.Fatalf("standalone benefit k=0 = %v, want 1", got)
	}
}

func TestExample1SCCost(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 1)
	// Csc = 0.6 + (1-0.6)·0.4 = 0.76
	if got := inst.SCCostOf(d); !almost(got, 0.76, 1e-12) {
		t.Fatalf("Csc = %v, want 0.76", got)
	}
	// Allocating v2 an SC adds 0.5 + (1-0.5)·0.4 = 0.7 (unconditional on
	// v2's activation — the paper's accounting).
	d.SetK(2, 1)
	if got := inst.SCCostOf(d); !almost(got, 0.76+0.7, 1e-12) {
		t.Fatalf("Csc = %v, want 1.46", got)
	}
	// v3's coupon adds 0.8 + (1-0.8)·0.7 = 0.94.
	d.SetK(2, 0)
	d.SetK(3, 1)
	if got := inst.SCCostOf(d); !almost(got, 0.76+0.94, 1e-12) {
		t.Fatalf("Csc = %v, want 1.70", got)
	}
}

func TestExample1ExactBenefits(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 1)
	b1, err := ExactTreeBenefit(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b1, 1.76, 1e-12) {
		t.Fatalf("B(K1=1) = %v, want 1.76", b1)
	}

	// Benefit gains of the three candidate coupons (paper iteration 1):
	// +SC at v1: 2 - 1.76 = 0.24
	d2 := d.Clone()
	d2.SetK(1, 2)
	b, err := ExactTreeBenefit(inst, d2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b-b1, 0.24, 1e-12) {
		t.Fatalf("gain v1 = %v, want 0.24", b-b1)
	}
	// +SC at v2: 0.6·0.5 + 0.6·0.5·0.4 = 0.42
	d3 := d.Clone()
	d3.SetK(2, 1)
	b, err = ExactTreeBenefit(inst, d3)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b-b1, 0.42, 1e-12) {
		t.Fatalf("gain v2 = %v, want 0.42", b-b1)
	}
	// +SC at v3: 0.16·0.8 + 0.16·0.2·0.7 = 0.1504 (paper rounds to 0.15)
	d4 := d.Clone()
	d4.SetK(3, 1)
	b, err = ExactTreeBenefit(inst, d4)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(b-b1, 0.1504, 1e-12) {
		t.Fatalf("gain v3 = %v, want 0.1504", b-b1)
	}
}

func TestExample1MarginalRedemptions(t *testing.T) {
	// The full MR ranking of iteration 1: v1 → 1, v2 → 0.6, v3 → 0.16.
	inst := example1(t)
	base := NewDeployment(8)
	base.AddSeed(1)
	base.SetK(1, 1)
	bBase, err := ExactTreeBenefit(inst, base)
	if err != nil {
		t.Fatal(err)
	}
	cBase := inst.SCCostOf(base)
	mr := func(v int32) float64 {
		d := base.Clone()
		d.AddK(v, 1)
		b, err := ExactTreeBenefit(inst, d)
		if err != nil {
			t.Fatal(err)
		}
		return (b - bBase) / (inst.SCCostOf(d) - cBase)
	}
	if got := mr(1); !almost(got, 1.0, 1e-9) {
		t.Fatalf("MR(v1) = %v, want 1", got)
	}
	if got := mr(2); !almost(got, 0.6, 1e-9) {
		t.Fatalf("MR(v2) = %v, want 0.6", got)
	}
	if got := mr(3); !almost(got, 0.16, 1e-9) {
		t.Fatalf("MR(v3) = %v, want 0.16", got)
	}
}

// --- Monte-Carlo estimator ---

func TestMCMatchesExactOnTree(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 2)
	d.SetK(2, 1)
	d.SetK(3, 2)
	exact, err := ExactTreeBenefit(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator(inst, 200000, 42)
	got := est.Benefit(d)
	if math.Abs(got-exact)/exact > 0.02 {
		t.Fatalf("MC benefit %v vs exact %v (>2%% off)", got, exact)
	}
}

func TestMCDeterministicAcrossCalls(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 1)
	est := NewEstimator(inst, 1000, 7)
	if est.Benefit(d) != est.Benefit(d) {
		t.Fatal("same estimator returned different values for same deployment")
	}
}

func TestMCParallelMatchesSequential(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 2)
	d.SetK(2, 2)
	forWorkerCells(t, func(t *testing.T, o EngineOptions) {
		_, seq := newTestEngine(t, inst, o)
		want := seq.Evaluate(d)
		for _, workers := range []int{2, 3, 7} {
			o.Workers = workers
			_, par := newTestEngine(t, inst, o)
			if got := par.Evaluate(d); got != want {
				t.Fatalf("workers=%d: parallel %v != sequential %v", workers, got, want)
			}
		}
	})
}

// forWorkerCells runs check once per (model, substrate, sample count) cell
// of the worker-parity tests, with sequential MC engine options; the 170-
// sample cell ends in a ragged tail block.
func forWorkerCells(t *testing.T, check func(t *testing.T, o EngineOptions)) {
	for _, model := range Models() {
		for _, sub := range substrateBudgets {
			for _, samples := range []int{100, 170, 1000} {
				t.Run(fmt.Sprintf("%s/%s/%d", model, sub.name, samples), func(t *testing.T) {
					check(t, EngineOptions{
						Engine: EngineMC, Model: model, Samples: samples, Seed: 9,
						LiveEdgeMemBudget: sub.budget,
					})
				})
			}
		}
	}
}

func TestMCMonotoneInCoupons(t *testing.T) {
	inst := example1(t)
	est := NewEstimator(inst, 20000, 11)
	prev := -1.0
	for k := 0; k <= 2; k++ {
		d := NewDeployment(8)
		d.AddSeed(1)
		d.SetK(1, k)
		b := est.Benefit(d)
		if b < prev-1e-9 {
			t.Fatalf("benefit decreased when adding a coupon: %v -> %v", prev, b)
		}
		prev = b
	}
}

func TestMCSeedAlwaysActive(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	est := NewEstimator(inst, 100, 1)
	r := est.Evaluate(d)
	if !almost(r.Benefit, 1.0, 1e-12) {
		t.Fatalf("lone seed benefit = %v, want exactly 1", r.Benefit)
	}
	if !almost(r.Activated, 1.0, 1e-12) {
		t.Fatalf("lone seed activations = %v, want 1", r.Activated)
	}
}

func TestMCEmptyDeployment(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	est := NewEstimator(inst, 100, 1)
	r := est.Evaluate(d)
	if r.Benefit != 0 || r.Activated != 0 {
		t.Fatalf("empty deployment produced %v", r)
	}
	if est.RedemptionRate(d) != 0 {
		t.Fatal("empty deployment redemption rate should be 0")
	}
}

func TestMCFarthestHopChain(t *testing.T) {
	// 0 → 1 → 2 → 3 with probability 1 everywhere and one coupon each:
	// the farthest hop is exactly 3.
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1, P: 1}, {From: 1, To: 2, P: 1}, {From: 2, To: 3, P: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{
		G:        g,
		Benefit:  []float64{1, 1, 1, 1},
		SeedCost: []float64{1, 1, 1, 1},
		SCCost:   []float64{1, 1, 1, 1},
		Budget:   10,
	}
	d := NewDeployment(4)
	d.AddSeed(0)
	for v := int32(0); v < 3; v++ {
		d.SetK(v, 1)
	}
	est := NewEstimator(inst, 50, 3)
	r := est.Evaluate(d)
	if !almost(r.FarthestHop, 3, 1e-12) {
		t.Fatalf("farthest hop = %v, want 3", r.FarthestHop)
	}
	if !almost(r.Benefit, 4, 1e-12) {
		t.Fatalf("benefit = %v, want 4", r.Benefit)
	}
	if !almost(r.RealizedCost, 3, 1e-12) {
		t.Fatalf("realized cost = %v, want 3", r.RealizedCost)
	}
}

func TestMCRespectsCapacity(t *testing.T) {
	// A star 0 → {1,2,3,4} with p=1: with k coupons exactly k leaves
	// activate (the strongest k by tie-break order).
	edges := make([]graph.Edge, 0, 4)
	for to := int32(1); to <= 4; to++ {
		edges = append(edges, graph.Edge{From: 0, To: to, P: 1})
	}
	g, err := graph.FromEdges(5, edges)
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1, 1, 1}
	inst := &Instance{G: g, Benefit: ones, SeedCost: ones, SCCost: ones, Budget: 10}
	for k := 0; k <= 4; k++ {
		d := NewDeployment(5)
		d.AddSeed(0)
		d.SetK(0, k)
		est := NewEstimator(inst, 50, 5)
		r := est.Evaluate(d)
		if !almost(r.Activated, float64(1+k), 1e-12) {
			t.Fatalf("k=%d: activated %v, want %d", k, r.Activated, 1+k)
		}
	}
}

func TestExactTreeRejectsNonForest(t *testing.T) {
	// diamond: 0→1, 0→2, 1→3, 2→3 — node 3 reachable twice.
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1, P: 0.9}, {From: 0, To: 2, P: 0.8},
		{From: 1, To: 3, P: 0.7}, {From: 2, To: 3, P: 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1, 1}
	inst := &Instance{G: g, Benefit: ones, SeedCost: ones, SCCost: ones, Budget: 10}
	d := NewDeployment(4)
	d.AddSeed(0)
	d.SetK(0, 2)
	d.SetK(1, 1)
	d.SetK(2, 1)
	if _, err := ExactTreeBenefit(inst, d); err == nil {
		t.Fatal("non-forest accepted by exact evaluator")
	}
}

// TestActivationProbsTree reads per-user activation probabilities off the
// exact forest evaluator: with an indicator benefit on user v alone, B(S, K)
// is exactly the probability that v activates.
func TestActivationProbsTree(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 1)
	for v, want := range map[int]float64{1: 1, 2: 0.6, 3: 0.16, 4: 0} {
		ind := *inst
		ind.Benefit = make([]float64, len(inst.Benefit))
		ind.Benefit[v] = 1
		got, err := ExactTreeBenefit(&ind, d)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, want, 1e-12) {
			t.Fatalf("P(v%d) = %v, want %v", v, got, want)
		}
	}
}

// --- Deployment ---

func TestDeploymentSeeds(t *testing.T) {
	d := NewDeployment(10)
	d.AddSeed(5)
	d.AddSeed(2)
	d.AddSeed(8)
	d.AddSeed(5) // duplicate: no-op
	got := d.Seeds()
	want := []int32{2, 5, 8}
	if len(got) != len(want) {
		t.Fatalf("seeds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeds = %v, want %v", got, want)
		}
	}
	if !d.IsSeed(5) || d.IsSeed(3) {
		t.Fatal("IsSeed wrong")
	}
	d.RemoveSeed(5)
	d.RemoveSeed(5) // no-op
	if d.NumSeeds() != 2 || d.IsSeed(5) {
		t.Fatal("RemoveSeed failed")
	}
}

func TestDeploymentK(t *testing.T) {
	d := NewDeployment(4)
	d.SetK(1, 3)
	d.AddK(1, -1)
	if d.K(1) != 2 {
		t.Fatalf("K = %d, want 2", d.K(1))
	}
	d.AddK(1, -10) // clamps at 0
	if d.K(1) != 0 {
		t.Fatalf("K = %d, want 0 after clamp", d.K(1))
	}
	d.SetK(2, 1)
	d.SetK(3, 2)
	if d.TotalK() != 3 {
		t.Fatalf("TotalK = %d, want 3", d.TotalK())
	}
	alloc := d.Allocated()
	if len(alloc) != 2 || alloc[0] != 2 || alloc[1] != 3 {
		t.Fatalf("Allocated = %v, want [2 3]", alloc)
	}
}

func TestDeploymentSetKPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewDeployment(2).SetK(0, -1)
}

func TestDeploymentCloneIndependent(t *testing.T) {
	d := NewDeployment(4)
	d.AddSeed(1)
	d.SetK(2, 5)
	c := d.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	c.AddSeed(3)
	c.SetK(2, 0)
	if d.IsSeed(3) || d.K(2) != 5 {
		t.Fatal("clone shares state with original")
	}
	if c.Equal(d) {
		t.Fatal("diverged deployments still equal")
	}
}

func TestInstanceValidate(t *testing.T) {
	inst := example1(t)
	if err := inst.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	bad := *inst
	bad.Benefit = bad.Benefit[:3]
	if err := bad.Validate(); err == nil {
		t.Fatal("short benefit slice accepted")
	}
	bad2 := *inst
	bad2.Budget = -1
	if err := bad2.Validate(); err == nil {
		t.Fatal("negative budget accepted")
	}
	bad2.Budget = math.NaN()
	if err := bad2.Validate(); err == nil {
		t.Fatal("NaN budget accepted")
	}
	bad3 := &Instance{}
	if err := bad3.Validate(); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad4 := *inst
	bad4.Benefit = append([]float64(nil), inst.Benefit...)
	bad4.Benefit[0] = -2
	if err := bad4.Validate(); err == nil {
		t.Fatal("negative benefit accepted")
	}
}

func TestInstanceRatios(t *testing.T) {
	g, err := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{
		G:        g,
		Benefit:  []float64{1, 4},
		SeedCost: []float64{2, 10},
		SCCost:   []float64{1, 5},
	}
	if got := inst.BenefitRatio(); !almost(got, 4, 1e-12) {
		t.Fatalf("b0 = %v, want 4", got)
	}
	if got := inst.CostRatio(); !almost(got, 10, 1e-12) {
		t.Fatalf("c0 = %v, want 10", got)
	}
	zero := &Instance{G: g, Benefit: []float64{0, 1}, SeedCost: []float64{1, 1}, SCCost: []float64{1, 1}}
	if zero.BenefitRatio() != 0 {
		t.Fatal("zero min should degenerate to 0")
	}
}

func TestTotalCost(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 1)
	want := 1e-9 + 0.76
	if got := inst.TotalCost(d); !almost(got, want, 1e-12) {
		t.Fatalf("total cost = %v, want %v", got, want)
	}
}

func TestNodeSCCostMarginal(t *testing.T) {
	inst := example1(t)
	// NodeSCCost(v1, 1) = 0.76; NodeSCCost(v1, 2) = 1.0
	if got := inst.NodeSCCost(1, 1); !almost(got, 0.76, 1e-12) {
		t.Fatalf("NodeSCCost(1,1) = %v, want 0.76", got)
	}
	if got := inst.NodeSCCost(1, 2); !almost(got, 1.0, 1e-12) {
		t.Fatalf("NodeSCCost(1,2) = %v, want 1.0", got)
	}
	if got := inst.NodeSCCost(1, 0); got != 0 {
		t.Fatalf("NodeSCCost(1,0) = %v, want 0", got)
	}
	// Leaf node: no out-edges, no cost.
	if got := inst.NodeSCCost(4, 3); got != 0 {
		t.Fatalf("leaf NodeSCCost = %v, want 0", got)
	}
}

// starInstance builds a hub (node 0) with fanout out-neighbours of mixed
// influence probabilities, benefits and SC costs.
func starInstance(t testing.TB, fanout int) *Instance {
	t.Helper()
	n := fanout + 1
	edges := make([]graph.Edge, fanout)
	inst := &Instance{
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   10,
	}
	for j := range edges {
		edges[j] = graph.Edge{From: 0, To: int32(j + 1), P: 0.95 / (1 + 0.13*float64(j%17))}
		inst.Benefit[j+1] = 1 + float64(j%7)/3
		inst.SCCost[j+1] = 0.5 + float64(j%5)*0.3
	}
	inst.Benefit[0] = 2
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	inst.G = g
	return inst
}

// TestNodePricingAllocatesNothing pins that NodeSCCost and
// StandaloneBenefit compute rows of at most 64 entries on the stack.
func TestNodePricingAllocatesNothing(t *testing.T) {
	for _, inst := range []*Instance{example1(t), starInstance(t, 64)} {
		allocs := testing.AllocsPerRun(100, func() {
			inst.NodeSCCost(1, 2)
			inst.NodeSCCost(0, 3)
			inst.StandaloneBenefit(0, 3)
		})
		if allocs != 0 {
			t.Fatalf("%d-user instance: %v allocations per call, want 0", inst.G.NumNodes(), allocs)
		}
	}
}

// TestNodePricingMatchesRedeemProbs pins NodeSCCost and StandaloneBenefit
// bit for bit to pricing a freshly allocated RedeemProbs row, on both sides
// of the 64-entry stack row.
func TestNodePricingMatchesRedeemProbs(t *testing.T) {
	for _, fanout := range []int{1, 64, 65, 200} {
		inst := starInstance(t, fanout)
		targets, probs := inst.G.OutEdges(0)
		for _, k := range []int{1, 2, 5, fanout} {
			rp := RedeemProbs(probs, k)
			if got, want := inst.NodeSCCost(0, k), inst.RowSCCost(0, rp); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fanout %d, k %d: NodeSCCost %v, want %v", fanout, k, got, want)
			}
			want := inst.Benefit[0]
			for j, u := range targets {
				want += inst.Benefit[u] * rp[j]
			}
			if got := inst.StandaloneBenefit(0, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("fanout %d, k %d: StandaloneBenefit %v, want %v", fanout, k, got, want)
			}
		}
	}
}
