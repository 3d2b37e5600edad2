package sketch

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// uniformInstance builds an instance over the given edges with unit
// benefits and coupon costs and the given per-node seed costs.
func uniformInstance(t testing.TB, n int, edges []graph.Edge, seedCost, budget float64) *diffusion.Instance {
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
		Budget:   budget,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i], inst.SeedCost[i], inst.SCCost[i] = 1, seedCost, 1
	}
	return inst
}

// standalonePivots mirrors core's phase-1 construction closely enough for
// direct package tests: every affordable node as a (node, k=0) pivot with
// its standalone seed rate, descending.
func standalonePivots(inst *diffusion.Instance) []Pivot {
	var ps []Pivot
	for v := int32(0); v < int32(inst.G.NumNodes()); v++ {
		if inst.SeedCost[v] > inst.Budget || inst.SeedCost[v] <= 0 {
			continue
		}
		ps = append(ps, Pivot{Node: v, K: 0, Rate: inst.Benefit[v] / inst.SeedCost[v]})
	}
	for i := 1; i < len(ps); i++ { // stable insertion sort, descending rate
		for j := i; j > 0 && ps[j].Rate > ps[j-1].Rate; j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps
}

// TestBoundsBracketAndMonotone drives the concentration bounds through a
// doubling schedule at a fixed true coverage fraction: both bounds must
// bracket the observation, tighten monotonically round over round, and
// converge toward the true fraction.
func TestBoundsBracketAndMonotone(t *testing.T) {
	const a = 8.2 // ln(1/δ_r) at the default schedule
	const f = 0.3
	prevLB, prevUB := -1.0, 2.0
	for theta := 256.0; theta <= 1<<15; theta *= 2 {
		o := f * theta
		lb, ub := lowerCount(o, a), upperCount(o, a)
		if !(lb <= o && o <= ub) {
			t.Fatalf("θ=%v: bounds [%v, %v] do not bracket o=%v", theta, lb, ub, o)
		}
		nlb, nub := lb/theta, ub/theta
		if nlb < prevLB {
			t.Fatalf("θ=%v: normalized lower bound regressed: %v < %v", theta, nlb, prevLB)
		}
		if nub > prevUB {
			t.Fatalf("θ=%v: normalized upper bound regressed: %v > %v", theta, nub, prevUB)
		}
		prevLB, prevUB = nlb, nub
	}
	if prevLB < 0.9*f || prevUB > 1.1*f {
		t.Fatalf("bounds did not converge toward f=%v: [%v, %v]", f, prevLB, prevUB)
	}
}

func TestBoundsMonotoneInObservation(t *testing.T) {
	const a = 8.2
	for o := 0.0; o < 1000; o += 37 {
		if lowerCount(o+1, a) < lowerCount(o, a) {
			t.Fatalf("lowerCount not monotone at o=%v", o)
		}
		if upperCount(o+1, a) < upperCount(o, a) {
			t.Fatalf("upperCount not monotone at o=%v", o)
		}
	}
	if lb := lowerCount(0, a); lb != 0 {
		t.Fatalf("lowerCount(0) = %v, want 0", lb)
	}
}

func TestAccuracyValidation(t *testing.T) {
	inst := uniformInstance(t, 1, nil, 1, 10)
	cases := []struct{ eps, delta float64 }{
		{0, 0.01}, {1, 0.01}, {-0.1, 0.01}, {1.5, 0.01},
		{0.1, 0}, {0.1, 1}, {0.1, -0.5}, {0.1, 2},
	}
	for _, c := range cases {
		_, err := Solve(Config{Inst: inst, Epsilon: c.eps, Delta: c.delta})
		if err == nil {
			t.Fatalf("Solve accepted epsilon=%v delta=%v", c.eps, c.delta)
		}
	}
	if _, err := Solve(Config{Inst: inst, Epsilon: 0.1, Delta: 0.01, Model: "bogus"}); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("Solve accepted a bogus model: %v", err)
	}
	if _, err := Solve(Config{Epsilon: 0.1, Delta: 0.01}); err == nil {
		t.Fatal("Solve accepted a nil instance")
	}
}

// TestSingleNodeCertifiesFirstRound is the degenerate end of the stopping
// rule: one node, no edges — every sample is rooted at it and covered by
// the one affordable pivot, so the very first round's bounds already meet
// the (1−1/e−ε) target.
func TestSingleNodeCertifiesFirstRound(t *testing.T) {
	inst := uniformInstance(t, 1, nil, 1, 10)
	res, err := Solve(Config{
		Inst: inst, Pivots: standalonePivots(inst),
		Seed: 7, Epsilon: 0.1, Delta: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified {
		t.Fatalf("single-node solve not certified: LB=%v UB=%v", res.LB, res.UB)
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Rounds)
	}
	if !res.Deployment.IsSeed(0) || res.Deployment.NumSeeds() != 1 {
		t.Fatalf("deployment = %v, want the lone node seeded", res.Deployment.Seeds())
	}
	if res.Samples != 2*minSamples {
		t.Fatalf("samples = %d, want the two minimum collections (%d)", res.Samples, 2*minSamples)
	}
}

// TestNoAffordablePivotCertifiesEmpty: with nothing affordable the empty
// deployment is optimal and needs no samples.
func TestNoAffordablePivotCertifiesEmpty(t *testing.T) {
	inst := uniformInstance(t, 3, nil, 100, 1)
	res, err := Solve(Config{Inst: inst, Seed: 1, Epsilon: 0.2, Delta: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Certified || res.Samples != 0 || res.Deployment.NumSeeds() != 0 {
		t.Fatalf("want certified empty zero-sample result, got %+v", res)
	}
}

// starInstance: hub 0 over leaves with moderate probabilities, so coverage
// is a small fraction of the universe and certification takes more than
// one doubling round at a tight epsilon.
func starInstance(t testing.TB, leaves int, p float64) *diffusion.Instance {
	edges := make([]graph.Edge, 0, leaves)
	for i := 1; i <= leaves; i++ {
		edges = append(edges, graph.Edge{From: 0, To: int32(i), P: p})
	}
	return uniformInstance(t, leaves+1, edges, 1, 4)
}

// TestGapShrinksAcrossRounds pins the adaptive run's observable contract:
// rounds advance with doubling sample counts, and the certification gap
// reported to OnRound ends below where it started.
func TestGapShrinksAcrossRounds(t *testing.T) {
	inst := starInstance(t, 60, 0.1)
	var gaps []float64
	var samples []int
	res, err := Solve(Config{
		Inst: inst, Pivots: standalonePivots(inst),
		Seed: 11, Epsilon: 0.05, Delta: 0.01,
		OnRound: func(round, s int, gap float64, buildNs int64) {
			gaps = append(gaps, gap)
			samples = append(samples, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gaps) < 2 {
		t.Fatalf("want multiple doubling rounds, got %d (gaps %v)", len(gaps), gaps)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i] != 2*samples[i-1] {
			t.Fatalf("samples did not double: %v", samples)
		}
	}
	last := len(gaps) - 1
	if gaps[last] >= gaps[0] {
		t.Fatalf("bound gap did not shrink: first %v, last %v", gaps[0], gaps[last])
	}
	if res.Rounds != len(gaps) {
		t.Fatalf("Rounds = %d, want %d", res.Rounds, len(gaps))
	}
	if !res.Certified {
		t.Fatalf("star instance failed to certify: LB=%v UB=%v", res.LB, res.UB)
	}
	if res.LB > res.UB || res.LB < 0 {
		t.Fatalf("inverted bounds: LB=%v UB=%v", res.LB, res.UB)
	}
}

// TestSolveDeterministic: equal seeds reproduce the deployment, the move
// sequence and the sample counts exactly, for both triggering models.
func TestSolveDeterministic(t *testing.T) {
	inst := starInstance(t, 40, 0.15)
	for _, model := range []string{diffusion.ModelIC, diffusion.ModelLT} {
		cfg := Config{
			Inst: inst, Pivots: standalonePivots(inst), Model: model,
			Seed: 42, Epsilon: 0.1, Delta: 0.01,
		}
		if model == diffusion.ModelLT {
			// LT needs in-weights summing to at most 1: each leaf has a
			// single in-edge with p=0.15, so the star already qualifies.
			if err := diffusion.ValidateLTWeights(inst.G); err != nil {
				t.Fatal(err)
			}
		}
		r1, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Solve(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r1.Deployment.Equal(r2.Deployment) {
			t.Fatalf("model %s: deployments differ under equal seeds", model)
		}
		if r1.Samples != r2.Samples || r1.Rounds != r2.Rounds {
			t.Fatalf("model %s: schedule differs: %d/%d vs %d/%d",
				model, r1.Rounds, r1.Samples, r2.Rounds, r2.Samples)
		}
		if len(r1.Steps) != len(r2.Steps) {
			t.Fatalf("model %s: step counts differ", model)
		}
		for i := range r1.Steps {
			if r1.Steps[i] != r2.Steps[i] {
				t.Fatalf("model %s: step %d differs: %+v vs %+v", model, i, r1.Steps[i], r2.Steps[i])
			}
		}
	}
}

// TestStepsReplayDeployment: Result.Steps is the selected prefix of the
// move log — replaying it from the empty deployment rebuilds
// Result.Deployment, each step's cost is the closed-form cost of its
// prefix — whether the snapshot is picked on validation estimates, on
// forward measurements, or is the full-budget prefix.
func TestStepsReplayDeployment(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	inst := randomSketchInstance(t, r, 60, 600)
	est := diffusion.NewEstimator(inst, 100, 1)
	forward := func(ds []*diffusion.Deployment) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = est.RedemptionRate(d)
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		score func([]*diffusion.Deployment) []float64
		spend bool
	}{{"validation", nil, false}, {"forward", forward, false}, {"spend", nil, true}} {
		res, err := Solve(Config{
			Inst: inst, Pivots: standalonePivots(inst), Seed: 42,
			Epsilon: 0.1, Delta: 0.01, ScoreBatch: tc.score, SpendBudget: tc.spend,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Steps) == 0 {
			t.Fatalf("%s: no steps", tc.name)
		}
		d := diffusion.NewDeployment(inst.G.NumNodes())
		for i, p := range res.Steps {
			d.Apply(p.Move)
			if c := inst.TotalCost(d); math.Abs(p.Cost-c) > 1e-9*(1+c) {
				t.Fatalf("%s: step %d logs cost %v, its prefix costs %v", tc.name, i, p.Cost, c)
			}
		}
		if !d.Equal(res.Deployment) {
			t.Fatalf("%s: replaying %d steps gives %v, want %v", tc.name, len(res.Steps), d, res.Deployment)
		}
	}
}

// TestBestRate pins the snapshot tie-break: the last rate within
// RateTolerance of the running maximum wins, a later rate that falls
// further behind does not, and no rates select nothing.
func TestBestRate(t *testing.T) {
	for _, tc := range []struct {
		rates []float64
		want  int
	}{
		{nil, -1},
		{[]float64{0}, 0},
		{[]float64{1, 2, 1.999, 1.5}, 2},
		{[]float64{2, 1, 0.5}, 0},
		{[]float64{1, 1, 1}, 2},
		{[]float64{0, 0, 3, 2.99}, 2},
		{[]float64{0, 0, 3, 2.995}, 3},
	} {
		if got := BestRate(tc.rates); got != tc.want {
			t.Errorf("BestRate(%v) = %d, want %d", tc.rates, got, tc.want)
		}
	}
}
