package s3crm

import (
	"bytes"
	"context"
	"math"
	"testing"
)

// paperExample builds the Fig. 3 instance through the public API.
func paperExample(t testing.TB) *Problem {
	t.Helper()
	b := NewProblem(8).
		AddEdge(1, 2, 0.6).AddEdge(1, 3, 0.4).
		AddEdge(2, 4, 0.5).AddEdge(2, 5, 0.4).
		AddEdge(3, 6, 0.8).AddEdge(3, 7, 0.7).
		Budget(2.85)
	for i := 0; i < 8; i++ {
		b.SetUser(i, 1, 1e9, 1)
	}
	b.SetUser(1, 1, 1e-9, 1)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuilderBasics(t *testing.T) {
	p := paperExample(t)
	if p.Users() != 8 || p.Edges() != 6 {
		t.Fatalf("shape: %d users %d edges", p.Users(), p.Edges())
	}
	if p.Budget() != 2.85 {
		t.Fatalf("budget = %v", p.Budget())
	}
}

func TestBuilderErrors(t *testing.T) {
	if _, err := NewProblem(2).AddEdge(0, 5, 0.5).Build(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
	if _, err := NewProblem(2).SetUser(9, 1, 1, 1).Build(); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if _, err := NewProblem(2).AddEdge(0, 1, 7).Build(); err == nil {
		t.Fatal("bad probability accepted")
	}
	// First error wins and is sticky.
	b := NewProblem(2).AddEdge(0, 5, 0.5).SetUser(9, 1, 1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("sticky error lost")
	}
}

func TestSolvePublicAPI(t *testing.T) {
	p := paperExample(t)
	r, err := runPinned(p, "S3CA", 1, WithSamples(30000))
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "S3CA" {
		t.Fatalf("algorithm = %q", r.Algorithm)
	}
	if len(r.Seeds) != 1 || r.Seeds[0] != 1 {
		t.Fatalf("seeds = %v, want [1]", r.Seeds)
	}
	if math.Abs(r.RedemptionRate-1.76/0.76) > 0.06 {
		t.Fatalf("rate = %v, want ≈ 2.32", r.RedemptionRate)
	}
	if r.TotalCost > p.Budget() {
		t.Fatalf("budget violated: %v", r.TotalCost)
	}
	if r.ExploredRatio <= 0 || r.ExploredRatio > 1 {
		t.Fatalf("explored ratio = %v", r.ExploredRatio)
	}
}

func TestEvaluateCustomDeployment(t *testing.T) {
	p := paperExample(t)
	r, err := oneShot(t, p, WithSamples(100000)).Evaluate(context.Background(), Deployment{
		Seeds:   []int{1},
		Coupons: map[int]int{1: 1},
	}, WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	// B = 1.76, Csc = 0.76 — the paper's worked numbers.
	if math.Abs(r.Benefit-1.76) > 0.02 {
		t.Fatalf("benefit = %v, want ≈ 1.76", r.Benefit)
	}
	if math.Abs(r.CouponCost-0.76) > 1e-9 {
		t.Fatalf("coupon cost = %v, want 0.76 exactly (closed form)", r.CouponCost)
	}
}

func TestEvaluateValidation(t *testing.T) {
	c := oneShot(t, paperExample(t), WithSamples(10))
	ctx := context.Background()
	if _, err := c.Evaluate(ctx, Deployment{Seeds: []int{99}}); err == nil {
		t.Fatal("bad seed accepted")
	}
	if _, err := c.Evaluate(ctx, Deployment{Coupons: map[int]int{0: -1}}); err == nil {
		t.Fatal("negative coupons accepted")
	}
	if _, err := c.Evaluate(ctx, Deployment{Coupons: map[int]int{4: 5}}); err == nil {
		t.Fatal("coupons beyond friend count accepted")
	}
}

func TestRunBaselinePublicAPI(t *testing.T) {
	p, err := GenerateDataset("Facebook", 40, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Baselines() {
		r, err := runPinned(p, name, 3, WithSamples(100), WithCandidateCap(30))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Algorithm != name {
			t.Fatalf("label = %q, want %q", r.Algorithm, name)
		}
		if r.TotalCost > p.Budget()+1e-9 {
			t.Fatalf("%s violated budget", name)
		}
	}
	if _, err := runPinned(p, "nope", 0); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestGenerateDataset(t *testing.T) {
	p, err := GenerateDataset("Facebook", 40, 9)
	if err != nil {
		t.Fatal(err)
	}
	if p.Users() != 100 {
		t.Fatalf("users = %d, want 100 (4000/40)", p.Users())
	}
	if _, err := GenerateDataset("Friendster", 1, 9); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	names := DatasetNames()
	if len(names) != 4 || names[0] != "Facebook" {
		t.Fatalf("dataset names = %v", names)
	}
}

func TestAdoptionCaseStudy(t *testing.T) {
	p, err := GenerateDataset("Facebook", 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := p.AdoptionCaseStudy("Airbnb", 60, 5)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Users() != p.Users() {
		t.Fatal("case study changed the network size")
	}
	if _, err := p.AdoptionCaseStudy("GroupOn", 60, 5); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := p.AdoptionCaseStudy("Airbnb", 100, 5); err == nil {
		t.Fatal("100%% margin accepted")
	}
	if got := Policies(); len(got) != 2 {
		t.Fatalf("policies = %v", got)
	}
}

func TestScenarioSaveLoadRoundTrip(t *testing.T) {
	p := paperExample(t)
	var buf bytes.Buffer
	if err := p.SaveScenario(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Users() != p.Users() || q.Edges() != p.Edges() || q.Budget() != p.Budget() {
		t.Fatalf("round trip changed shape: %d/%d/%v", q.Users(), q.Edges(), q.Budget())
	}
	// Solving the reloaded problem gives the same result.
	a, err := runPinned(p, "S3CA", 3, WithSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPinned(q, "S3CA", 3, WithSamples(2000))
	if err != nil {
		t.Fatal(err)
	}
	if a.RedemptionRate != b.RedemptionRate {
		t.Fatalf("reloaded problem solved differently: %v vs %v", a.RedemptionRate, b.RedemptionRate)
	}
}

func TestLoadScenarioRejectsGarbage(t *testing.T) {
	if _, err := LoadScenario(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestSolveOnDatasetEndToEnd(t *testing.T) {
	p, err := GenerateDataset("Facebook", 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := runPinned(p, "S3CA", 11, WithSamples(150))
	if err != nil {
		t.Fatal(err)
	}
	if sol.TotalCost > p.Budget()+1e-9 {
		t.Fatalf("budget violated: %v > %v", sol.TotalCost, p.Budget())
	}
	if len(sol.Seeds) == 0 {
		t.Fatal("no seeds selected on a generated dataset")
	}
	base, err := runPinned(p, "IM-U", 11, WithSamples(150), WithCandidateCap(30))
	if err != nil {
		t.Fatal(err)
	}
	if sol.RedemptionRate < base.RedemptionRate {
		t.Fatalf("S3CA (%v) lost to IM-U (%v) on redemption rate",
			sol.RedemptionRate, base.RedemptionRate)
	}
}
