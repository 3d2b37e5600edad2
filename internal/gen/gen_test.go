package gen

import (
	"math"
	"testing"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

func TestErdosRenyiShape(t *testing.T) {
	g, err := ErdosRenyi(100, 500, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d, want 100", g.NumNodes())
	}
	if g.NumEdges() != 500 {
		t.Fatalf("edges = %d, want 500", g.NumEdges())
	}
	assertNoSelfLoops(t, g)
	assertInDegreeWeights(t, g)
}

func TestErdosRenyiErrors(t *testing.T) {
	if _, err := ErdosRenyi(1, 0, rng.New(1)); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := ErdosRenyi(3, 100, rng.New(1)); err == nil {
		t.Fatal("m > n(n-1) accepted")
	}
}

func TestErdosRenyiDeterministic(t *testing.T) {
	a, err := ErdosRenyi(50, 200, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ErdosRenyi(50, 200, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("same seed produced different edge %d", i)
		}
	}
}

func TestPatternPreservingShape(t *testing.T) {
	cfg := PatternConfig{Nodes: 1000, Edges: 8000, Eta: 2.5, Clustering: 0.3, MotifSupport: 30, Mutual: true}
	g, err := PatternPreserving(cfg, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Within 40% of the edge target (config model + closure + motifs).
	if g.NumEdges() < 8000*6/10 || g.NumEdges() > 8000*16/10 {
		t.Fatalf("edges = %d, want within [4800, 12800]", g.NumEdges())
	}
	assertNoSelfLoops(t, g)
	assertInDegreeWeights(t, g)
}

func TestPatternPreservingLowEta(t *testing.T) {
	// η = 1.7 (< 2) must work thanks to truncation — this is the PPGG
	// setting the paper uses for Fig. 9/10.
	cfg := PatternConfig{Nodes: 800, Edges: 4000, Eta: 1.7, Clustering: 0.3, Mutual: false}
	g, err := PatternPreserving(cfg, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stats()
	if s.MaxOut < 4*s.MeanOut {
		t.Fatalf("η=1.7 graph lacks degree skew: max %v mean %v", s.MaxOut, s.MeanOut)
	}
}

func TestPatternPreservingClusteringKnob(t *testing.T) {
	lo, err := PatternPreserving(PatternConfig{Nodes: 800, Edges: 4000, Eta: 2.5, Clustering: 0}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	hi, err := PatternPreserving(PatternConfig{Nodes: 800, Edges: 4000, Eta: 2.5, Clustering: 0.6}, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	cLo := lo.ApproxClustering(rng.New(12), 300)
	cHi := hi.ApproxClustering(rng.New(12), 300)
	if cHi <= cLo {
		t.Fatalf("clustering knob inert: %v <= %v", cHi, cLo)
	}
}

func TestPatternPreservingErrors(t *testing.T) {
	bad := []PatternConfig{
		{Nodes: 2, Edges: 10, Eta: 2.5},
		{Nodes: 100, Edges: 10, Eta: 2.5},
		{Nodes: 100, Edges: 400, Eta: 0.9},
		{Nodes: 100, Edges: 400, Eta: 2.5, Clustering: 1.5},
	}
	for i, cfg := range bad {
		if _, err := PatternPreserving(cfg, rng.New(1)); err == nil {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestPatternPreservingDeterministic(t *testing.T) {
	cfg := PatternConfig{Nodes: 300, Edges: 1500, Eta: 2.2, Clustering: 0.3, MotifSupport: 10}
	a, err := PatternPreserving(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PatternPreserving(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed gave %d vs %d edges", a.NumEdges(), b.NumEdges())
	}
}

func TestPresetsTableII(t *testing.T) {
	ps := Presets()
	if len(ps) != 4 {
		t.Fatalf("want 4 presets, got %d", len(ps))
	}
	wantNodes := map[string]int{
		"Facebook": 4_000, "Epinions": 76_000,
		"Google+": 108_000, "Douban": 5_500_000,
	}
	for _, p := range ps {
		if wantNodes[p.Name] != p.Nodes {
			t.Fatalf("%s nodes = %d, want %d", p.Name, p.Nodes, wantNodes[p.Name])
		}
		if p.Binv <= 0 || p.Mu <= 0 || p.Sigma <= 0 {
			t.Fatalf("%s has unset parameters: %+v", p.Name, p)
		}
	}
}

func TestPresetByName(t *testing.T) {
	p, err := PresetByName("Facebook")
	if err != nil || p.Nodes != 4000 {
		t.Fatalf("lookup failed: %v %+v", err, p)
	}
	if _, err := PresetByName("MySpace"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestPresetScaled(t *testing.T) {
	p := Facebook.Scaled(10)
	if p.Nodes != 400 {
		t.Fatalf("scaled nodes = %d, want 400", p.Nodes)
	}
	if p.Binv != 1000 {
		t.Fatalf("scaled budget = %v, want 1000", p.Binv)
	}
	if got := Facebook.Scaled(0); got.Nodes != Facebook.Nodes {
		t.Fatal("factor<=1 should be identity")
	}
	// Minimums enforced at extreme scales.
	tiny := Douban.Scaled(1_000_000)
	if tiny.Nodes < 64 || tiny.Edges < 4*tiny.Nodes {
		t.Fatalf("extreme scale broke minimums: %+v", tiny)
	}
}

func TestPresetGenerateSmall(t *testing.T) {
	p := Facebook.Scaled(10) // 400 nodes
	g, err := p.Generate(rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != p.Nodes {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), p.Nodes)
	}
	assertInDegreeWeights(t, g)
}

func TestPowerLawDegreesRespectBounds(t *testing.T) {
	src := rng.New(20)
	ds := powerLawDegrees(1000, 5000, 2.5, 50, src)
	sum := 0
	for _, d := range ds {
		if d < 1 || d > 50 {
			t.Fatalf("degree %d outside [1,50]", d)
		}
		sum += d
	}
	if math.Abs(float64(sum)-5000) > 1500 {
		t.Fatalf("degree sum %d far from target 5000", sum)
	}
}

func assertNoSelfLoops(t *testing.T, g *graph.Graph) {
	t.Helper()
	for _, e := range g.Edges() {
		if e.From == e.To {
			t.Fatalf("self loop at %d", e.From)
		}
	}
}

func assertInDegreeWeights(t *testing.T, g *graph.Graph) {
	t.Helper()
	for _, e := range g.Edges() {
		want := 1 / float64(g.InDegree(e.To))
		if math.Abs(e.P-want) > 1e-12 {
			t.Fatalf("edge (%d,%d) P=%v, want 1/indeg=%v", e.From, e.To, e.P, want)
		}
	}
}
