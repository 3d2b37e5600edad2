package diffusion

import (
	"math"
	"strings"
	"testing"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// diamondLTInstance is the diamond graph with in-weights satisfying the LT
// bound: node 3's two in-edges sum to 0.9. Closed-form LT values on it are
// hand-computable because each node's in-edge selection is independent.
func diamondLTInstance(t testing.TB) *Instance {
	t.Helper()
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1, P: 0.9}, {From: 0, To: 2, P: 0.6},
		{From: 1, To: 3, P: 0.5}, {From: 2, To: 3, P: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1, 1}
	return &Instance{G: g, Benefit: ones, SeedCost: ones, SCCost: ones, Budget: 10}
}

// ltEstimator builds an LT estimator whose substrate materializes chosen
// rows, or — with materialize false — a 1-byte budget that hashes every
// probe through the categorical walk.
func ltEstimator(inst *Instance, samples int, seed uint64, materialize bool) *Estimator {
	budget := int64(1)
	if materialize {
		budget = 0
	}
	return &Estimator{Inst: inst, Samples: samples, Live: NewLTLiveEdges(inst.G, samples, rng.NewCoin(seed), budget)}
}

func TestExactLTOnDiamond(t *testing.T) {
	inst := diamondLTInstance(t)
	d := NewDeployment(4)
	d.AddSeed(0)
	d.SetK(0, 2)
	d.SetK(1, 1)
	d.SetK(2, 1)
	got, err := ExactBenefitLT(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	// Hand computation under the LT live-edge view: node 1 selects its only
	// in-edge w.p. 0.9, node 2 w.p. 0.6, node 3 selects e(1,3) w.p. 0.5,
	// e(2,3) w.p. 0.4 and nothing w.p. 0.1 — mutually exclusive choices, so
	// P(3) = 0.5·0.9 + 0.4·0.6 = 0.69 (vs IC's inclusion–exclusion).
	want := 1 + 0.9 + 0.6 + 0.69
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("exact LT benefit = %v, want %v", got, want)
	}
	// The same deployment under IC differs: LT's single-selection coupling
	// is a real semantic change, not a re-parameterization.
	ic, err := ExactBenefit(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	icWant := 1 + 0.9 + 0.6 + (1 - (1-0.9*0.5)*(1-0.6*0.4))
	if math.Abs(ic-icWant) > 1e-9 {
		t.Fatalf("exact IC benefit = %v, want %v", ic, icWant)
	}
	if math.Abs(ic-got) < 1e-6 {
		t.Fatalf("IC and LT coincide on the diamond (%v): the models are not being distinguished", got)
	}
}

func TestExactLTWithCapacityOnDiamond(t *testing.T) {
	// K(0)=1 makes e(0,2) a dependent edge: probed only when the scan's
	// first redemption fails. Selections of nodes 1 and 2 are independent,
	// so P(1)=0.9, P(2)=0.1·0.6, P(3)=0.5·P(1)+0.4·P(2).
	inst := diamondLTInstance(t)
	d := NewDeployment(4)
	d.AddSeed(0)
	d.SetK(0, 1)
	d.SetK(1, 1)
	d.SetK(2, 1)
	exact, err := ExactBenefitLT(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 0.9 + 0.06 + (0.5*0.9 + 0.4*0.06)
	if math.Abs(exact-want) > 1e-9 {
		t.Fatalf("exact LT = %v, want %v", exact, want)
	}
}

// TestMCMatchesExactLTOnDiamond cross-checks the Monte-Carlo kernel under
// the LT substrate against the closed-form enumeration, for both the
// uncapped and the capacity-constrained deployment and both substrate
// materializations.
func TestMCMatchesExactLTOnDiamond(t *testing.T) {
	inst := diamondLTInstance(t)
	for _, k0 := range []int{1, 2} {
		d := NewDeployment(4)
		d.AddSeed(0)
		d.SetK(0, k0)
		d.SetK(1, 1)
		d.SetK(2, 1)
		exact, err := ExactBenefitLT(inst, d)
		if err != nil {
			t.Fatal(err)
		}
		for _, materialize := range []bool{false, true} {
			est := ltEstimator(inst, 300000, 21, materialize)
			got := est.Benefit(d)
			if math.Abs(got-exact)/exact > 0.01 {
				t.Fatalf("K(0)=%d materialize=%v: MC %v vs exact LT %v (> 1%% off)",
					k0, materialize, got, exact)
			}
		}
	}
}

// TestMCMatchesExactLTOnRandomGraphs sweeps small random weighted-cascade
// graphs: the enumeration and the kernel must agree under LT exactly as
// the IC pair does.
func TestMCMatchesExactLTOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive Monte-Carlo comparison")
	}
	src := rng.New(44)
	for trial := 0; trial < 3; trial++ {
		n := 5 + src.Intn(3)
		var edges []graph.Edge
		seen := map[[2]int32]bool{}
		for len(edges) < n+2 {
			u, v := int32(src.Intn(n)), int32(src.Intn(n))
			if u == v || seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			edges = append(edges, graph.Edge{From: u, To: v, P: 1})
		}
		g, err := graph.FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		g = g.WeightByInDegree() // Σ in-weights = 1 per node: LT-valid
		inst := &Instance{
			G:        g,
			Benefit:  make([]float64, n),
			SeedCost: make([]float64, n),
			SCCost:   make([]float64, n),
			Budget:   100,
		}
		for i := 0; i < n; i++ {
			inst.Benefit[i] = 0.5 + src.Float64()
			inst.SeedCost[i] = 1
			inst.SCCost[i] = 1
		}
		d := NewDeployment(n)
		d.AddSeed(int32(src.Intn(n)))
		for v := int32(0); v < int32(n); v++ {
			if deg := g.OutDegree(v); deg > 0 {
				d.SetK(v, 1+src.Intn(deg))
			}
		}
		exact, err := ExactBenefitLT(inst, d)
		if err != nil {
			t.Fatal(err)
		}
		est := ltEstimator(inst, 200000, uint64(trial), true)
		got := est.Benefit(d)
		if math.Abs(got-exact) > 0.02*exact+0.01 {
			t.Fatalf("trial %d: MC %v vs exact LT %v", trial, got, exact)
		}
	}
}

// TestLTMatchesICOnForest pins the tree-equivalence claim ExactTreeBenefit
// relies on: with at most one in-edge per node, the LT selection makes each
// edge live independently with its weight, so LT and IC coincide and the
// forest evaluator serves both models.
func TestLTMatchesICOnForest(t *testing.T) {
	inst := example1(t)
	d := NewDeployment(8)
	d.AddSeed(1)
	d.SetK(1, 2)
	d.SetK(2, 1)
	d.SetK(3, 2)
	tree, err := ExactTreeBenefit(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	lt, err := ExactBenefitLT(inst, d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tree-lt) > 1e-9 {
		t.Fatalf("forest evaluator %v vs exact LT %v", tree, lt)
	}
	est := ltEstimator(inst, 200000, 9, true)
	if got := est.Benefit(d); math.Abs(got-tree)/tree > 0.01 {
		t.Fatalf("LT MC %v vs forest evaluator %v", got, tree)
	}
}

// TestLTWeightValidation: engines reject LT on instances violating the
// in-weight bound, eagerly and with the "want one of"-style guidance, and
// CapInWeights repairs exactly that.
func TestLTWeightValidation(t *testing.T) {
	g, err := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1, P: 0.9}, {From: 0, To: 2, P: 0.6},
		{From: 1, To: 3, P: 0.7}, {From: 2, To: 3, P: 0.5}, // Σ_in(3) = 1.2
	})
	if err != nil {
		t.Fatal(err)
	}
	ones := []float64{1, 1, 1, 1}
	inst := &Instance{G: g, Benefit: ones, SeedCost: ones, SCCost: ones, Budget: 10}
	if _, err := NewEngineOpts(inst, EngineOptions{Samples: 10, Model: ModelLT}); err == nil {
		t.Fatal("NewEngineOpts accepted LT on in-weights summing past 1")
	} else if !strings.Contains(err.Error(), "in-weights") {
		t.Fatalf("unhelpful LT validation error: %v", err)
	}
	d := NewDeployment(4)
	d.AddSeed(0)
	d.SetK(0, 2)
	d.SetK(1, 1)
	d.SetK(2, 1)
	if _, err := ExactBenefitLT(inst, d); err == nil {
		t.Fatal("ExactBenefitLT accepted in-weights summing past 1")
	}
	capped := &Instance{G: g.CapInWeights(), Benefit: ones, SeedCost: ones, SCCost: ones, Budget: 10}
	if _, err := NewEngineOpts(capped, EngineOptions{Samples: 10, Model: ModelLT}); err != nil {
		t.Fatalf("CapInWeights did not establish the LT precondition: %v", err)
	}
}

// TestEngineOptsUnknownModelRejected covers the option-validation path.
func TestEngineOptsUnknownModelRejected(t *testing.T) {
	inst := liveEdgeInstance(t)
	_, err := NewEngineOpts(inst, EngineOptions{Samples: 10, Model: "voter"})
	if err == nil || !strings.Contains(err.Error(), "want one of") {
		t.Fatalf("NewEngineOpts on an unknown model: %v", err)
	}
}

// TestLTSingleLiveInEdgePerWorld pins the live-edge equivalence invariant
// the LT substrate exists to provide: within one world, at most one in-edge
// of any node answers live, the same edge however the probe is served
// (materialized row or per-probe walk), and the marginal frequency of each
// in-edge approaches its weight.
func TestLTSingleLiveInEdgePerWorld(t *testing.T) {
	inst := liveEdgeInstance(t)
	g := inst.G
	const samples = 2000
	mat := NewLTLiveEdges(g, samples, rng.NewCoin(13), 0)
	hash := NewLTLiveEdges(g, samples, rng.NewCoin(13), 1)
	probs := g.Probs()
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		_, eidx, _ := g.InEdges(v)
		if len(eidx) == 0 {
			continue
		}
		counts := make([]int, len(eidx))
		for w := uint64(0); w < samples; w++ {
			live := -1
			for j, e := range eidx {
				a := mat.Live(w, uint64(e))
				if b := hash.Live(w, uint64(e)); a != b {
					t.Fatalf("node %d world %d edge %d: materialized %v vs hash %v", v, w, e, a, b)
				}
				if a {
					if live >= 0 {
						t.Fatalf("node %d world %d: two live in-edges", v, w)
					}
					live = j
					counts[j]++
				}
			}
		}
		for j, e := range eidx {
			got := float64(counts[j]) / samples
			if math.Abs(got-probs[e]) > 0.05 {
				t.Fatalf("node %d in-edge %d: live frequency %v vs weight %v", v, e, got, probs[e])
			}
		}
	}
}
