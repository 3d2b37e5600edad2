package gen

import (
	"fmt"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// Preset mirrors one row of the paper's Table II: the dataset shape, the
// default investment budget and the benefit distribution N(Mu, Sigma).
type Preset struct {
	Name  string
	Nodes int
	Edges int
	Binv  float64
	Mu    float64
	Sigma float64
	// Eta and Clustering shape the synthetic substitute; chosen to mimic
	// the respective real network's degree skew and clustering.
	Eta        float64
	Clustering float64
	Mutual     bool
}

// The four Table II datasets. The SNAP/KDD originals are unavailable
// offline; these presets generate synthetic graphs of the same published
// shape (see DESIGN.md, Substitutions).
var (
	Facebook = Preset{
		Name: "Facebook", Nodes: 4_000, Edges: 88_000, Binv: 10_000,
		Mu: 10, Sigma: 2, Eta: 2.5, Clustering: 0.6, Mutual: true,
	}
	Epinions = Preset{
		Name: "Epinions", Nodes: 76_000, Edges: 509_000, Binv: 50_000,
		Mu: 20, Sigma: 4, Eta: 2.0, Clustering: 0.14, Mutual: false,
	}
	GooglePlus = Preset{
		Name: "Google+", Nodes: 108_000, Edges: 13_700_000, Binv: 200_000,
		Mu: 50, Sigma: 10, Eta: 2.2, Clustering: 0.5, Mutual: false,
	}
	Douban = Preset{
		Name: "Douban", Nodes: 5_500_000, Edges: 86_000_000, Binv: 1_000_000,
		Mu: 100, Sigma: 20, Eta: 2.1, Clustering: 0.2, Mutual: true,
	}
)

// Presets lists the Table II datasets in paper order.
func Presets() []Preset {
	return []Preset{Facebook, Epinions, GooglePlus, Douban}
}

// PresetByName resolves a dataset name case-sensitively.
func PresetByName(name string) (Preset, error) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, nil
		}
	}
	return Preset{}, fmt.Errorf("gen: unknown preset %q", name)
}

// Scaled returns a copy with node count, edge count and budget divided by
// factor (minimums enforced so tiny test scales stay generatable). factor
// <= 1 returns the preset unchanged.
//
// The budget floor keeps scaled instances solvable: with the paper's κ=10
// seed costs the mean seed costs ≈ 10·Mu, so the scaled budget never drops
// below five mean seeds — otherwise extreme scales (Douban at 1/22000)
// produce instances where no user is affordable and every algorithm
// degenerates to the empty deployment.
func (p Preset) Scaled(factor int) Preset {
	if factor <= 1 {
		return p
	}
	q := p
	q.Nodes = max(p.Nodes/factor, 64)
	q.Edges = max(p.Edges/factor, 4*q.Nodes)
	q.Binv = p.Binv / float64(factor)
	if min := 50 * p.Mu; q.Binv < min {
		q.Binv = min
	}
	return q
}

// Generate builds the synthetic graph for the preset with the paper's
// 1/in-degree influence probabilities.
func (p Preset) Generate(src *rng.Source) (*graph.Graph, error) {
	return PatternPreserving(PatternConfig{
		Nodes:        p.Nodes,
		Edges:        p.Edges,
		Eta:          p.Eta,
		Clustering:   p.Clustering,
		MotifSupport: p.Nodes / 40,
		Mutual:       p.Mutual,
	}, src)
}
