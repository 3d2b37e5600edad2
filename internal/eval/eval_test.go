package eval

import (
	"strings"
	"testing"

	"s3crm/internal/costmodel"
	"s3crm/internal/gen"
)

// tinySetup keeps experiment tests fast: Facebook scaled to ~130 nodes.
func tinySetup() Setup {
	return Setup{Preset: gen.Facebook, Scale: 30, Seed: 7}
}

func tinyParams() RunParams {
	return RunParams{Samples: 120, Seed: 7, CandidateCap: 40}
}

func TestBuildInstance(t *testing.T) {
	inst, err := BuildInstance(tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.Budget <= 0 {
		t.Fatalf("budget = %v", inst.Budget)
	}
	want := gen.Facebook.Scaled(30)
	if inst.G.NumNodes() != want.Nodes {
		t.Fatalf("nodes = %d, want %d", inst.G.NumNodes(), want.Nodes)
	}
}

func TestBuildInstanceDeterministic(t *testing.T) {
	a, err := BuildInstance(tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildInstance(tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("same setup generated different graphs")
	}
	for i := range a.Benefit {
		if a.Benefit[i] != b.Benefit[i] {
			t.Fatal("same setup generated different benefits")
		}
	}
}

func TestRunOneAllAlgorithms(t *testing.T) {
	inst, err := BuildInstance(tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms {
		m, err := RunOne(algo, inst, tinyParams())
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if m.Algo != algo {
			t.Fatalf("algo label = %q, want %q", m.Algo, algo)
		}
		if m.TotalCost > inst.Budget+1e-9 {
			t.Fatalf("%s violated budget: %v > %v", algo, m.TotalCost, inst.Budget)
		}
		if m.Redemption < 0 || m.Benefit < 0 {
			t.Fatalf("%s produced negative metrics: %+v", algo, m)
		}
	}
}

func TestRunOneUnknownAlgorithm(t *testing.T) {
	inst, err := BuildInstance(tinySetup())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunOne("HYPE-9000", inst, tinyParams()); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

func TestBudgetSweepShape(t *testing.T) {
	budgets := []float64{100, 200}
	pts, err := BudgetSweep(tinySetup(), budgets, []string{"S3CA", "IM-U"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	for i, pt := range pts {
		if pt.X != budgets[i] {
			t.Fatalf("x = %v, want %v", pt.X, budgets[i])
		}
		if len(pt.Measures) != 2 {
			t.Fatalf("measures = %d, want 2", len(pt.Measures))
		}
	}
}

func TestLambdaSweepChangesInstance(t *testing.T) {
	pts, err := LambdaSweep(tinySetup(), []float64{0.5, 4}, []string{"S3CA"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	// Higher λ means cheaper coupons relative to benefit: redemption rate
	// at λ=4 should exceed λ=0.5 markedly.
	lo, hi := pts[0].Measures[0].Redemption, pts[1].Measures[0].Redemption
	if hi <= lo {
		t.Fatalf("redemption not increasing in λ: %v (λ=0.5) vs %v (λ=4)", lo, hi)
	}
}

func TestKappaSweep(t *testing.T) {
	pts, err := KappaSweep(tinySetup(), []float64{5, 20}, []string{"S3CA"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatal("kappa sweep shape wrong")
	}
}

func TestCaseStudy(t *testing.T) {
	pts, err := CaseStudy(tinySetup(), costmodel.Airbnb, []float64{40, 60}, []string{"S3CA", "PM-L"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2", len(pts))
	}
	// Fig. 8(a): redemption rate increases with gross margin.
	if pts[1].Measures[0].Redemption <= pts[0].Measures[0].Redemption {
		t.Fatalf("redemption not increasing in margin: %v vs %v",
			pts[0].Measures[0].Redemption, pts[1].Measures[0].Redemption)
	}
}

func TestScalabilityBySize(t *testing.T) {
	rows, err := ScalabilityBySize(ScalabilityConfig{Seed: 5}, []int{80, 160}, 40, RunParams{Samples: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ExploredRatio <= 0 || r.ExploredRatio > 1 {
			t.Fatalf("explored ratio out of range: %v", r.ExploredRatio)
		}
	}
	// Fig. 9(b): under a fixed budget, the explored *ratio* shrinks as the
	// network grows.
	if rows[1].ExploredRatio >= rows[0].ExploredRatio {
		t.Fatalf("explored ratio did not shrink with size: %v -> %v",
			rows[0].ExploredRatio, rows[1].ExploredRatio)
	}
}

func TestScalabilityByBudget(t *testing.T) {
	rows, err := ScalabilityByBudget(ScalabilityConfig{Seed: 5}, 120, []float64{20, 120}, RunParams{Samples: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 9(d): a larger budget explores more of the network.
	if rows[1].ExploredRatio < rows[0].ExploredRatio {
		t.Fatalf("explored ratio did not grow with budget: %v -> %v",
			rows[0].ExploredRatio, rows[1].ExploredRatio)
	}
}

func TestApproximation(t *testing.T) {
	rows, err := Approximation(ScalabilityConfig{Seed: 11}, 10, []float64{30, 60}, RunParams{Samples: 400, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Opt <= 0 {
			t.Fatalf("OPT rate = %v", r.Opt)
		}
		if r.S3CA < r.WorstCase {
			t.Fatalf("S3CA %v below worst-case bound %v (margin %v)", r.S3CA, r.WorstCase, r.Margin)
		}
		if r.S3CA > r.Opt*1.10 {
			t.Fatalf("S3CA %v above OPT %v beyond noise (margin %v)", r.S3CA, r.Opt, r.Margin)
		}
	}
}

func TestAblations(t *testing.T) {
	out, err := Ablations(tinySetup(), RunParams{Samples: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"full S3CA", "ID only", "no pivot"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation table missing %q:\n%s", want, out)
		}
	}
}

func TestRenderTable(t *testing.T) {
	out := RenderTable("T", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Fatalf("table rendering broken:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("line count = %d, want 5:\n%s", len(lines), out)
	}
}

func TestPresetStatistics(t *testing.T) {
	out := PresetStatistics()
	for _, name := range []string{"Facebook", "Epinions", "Google+", "Douban"} {
		if !strings.Contains(out, name) {
			t.Fatalf("Table II missing %s:\n%s", name, out)
		}
	}
}

func TestFarthestHopsTable(t *testing.T) {
	out, err := FarthestHops([]Setup{tinySetup()}, []string{"IM-U", "S3CA"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Facebook") || !strings.Contains(out, "S3CA") {
		t.Fatalf("Table III malformed:\n%s", out)
	}
}

func TestRunningTimeTable(t *testing.T) {
	out, err := RunningTime(tinySetup(), []float64{80, 160}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Binv") {
		t.Fatalf("Table IV malformed:\n%s", out)
	}
}

func TestRenderSweepAndScaleAndApprox(t *testing.T) {
	pts, err := BudgetSweep(tinySetup(), []float64{100}, []string{"S3CA"}, tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if out := RenderSweep("Fig", "Binv", pts, Redemption); !strings.Contains(out, "S3CA") {
		t.Fatalf("sweep rendering broken:\n%s", out)
	}
	if out := RenderSweep("Fig", "x", nil, Redemption); !strings.Contains(out, "no data") {
		t.Fatal("empty sweep not handled")
	}
	srows := []ScaleRow{{Nodes: 10, Budget: 5, RuntimeSeconds: 0.1, ExploredRatio: 0.5, Redemption: 2}}
	if out := RenderScale("Fig9", srows); !strings.Contains(out, "explored") {
		t.Fatal("scale rendering broken")
	}
	arows := []ApproxRow{{Margin: 50, S3CA: 1, Opt: 1.2, WorstCase: 0.3}}
	if out := RenderApprox("Fig10", arows); !strings.Contains(out, "OPT") {
		t.Fatal("approx rendering broken")
	}
}
