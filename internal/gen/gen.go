// Package gen generates the synthetic online social networks used by the
// experiments.
//
// The paper evaluates on four SNAP/KDD datasets (Table II) and on synthetic
// "Facebook-like" graphs produced by PPGG, a pattern-preserving generator
// (ICDM'13) parameterized by a power-law exponent η, a clustering
// coefficient and a pattern support. Both the datasets and PPGG are
// unavailable offline, so this package builds the closest synthetic
// equivalents:
//
//   - ErdosRenyi for a baseline topology;
//   - WattsStrogatz — a rewired ring lattice for large small worlds;
//   - PatternPreserving — the PPGG substitute: a truncated power-law degree
//     sequence with exact exponent control (η < 2 included, which growth
//     models cannot reach), wired by a configuration model, clustered by
//     triad closure, and stamped with frequent motifs (triangles, stars,
//     chains) at a given support;
//   - Preset — Table II dataset profiles (node/edge counts, budget, benefit
//     distribution) at a configurable down-scale.
//
// All generators take an explicit *rng.Source so experiments are exactly
// reproducible, and all return graphs whose influence probabilities are the
// paper's standard P(e(i,j)) = 1/indegree(j).
package gen

import (
	"fmt"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// ErdosRenyi returns a directed G(n, m) graph: m distinct directed edges
// (no self loops) chosen uniformly, weighted by in-degree.
func ErdosRenyi(n, m int, src *rng.Source) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("gen: ErdosRenyi needs n >= 2, got %d", n)
	}
	maxEdges := n * (n - 1)
	if m > maxEdges {
		return nil, fmt.Errorf("gen: ErdosRenyi m=%d exceeds n(n-1)=%d", m, maxEdges)
	}
	seen := make(map[int64]struct{}, m)
	edges := make([]graph.Edge, 0, m)
	for len(edges) < m {
		u := int32(src.Intn(n))
		v := int32(src.Intn(n))
		if u == v {
			continue
		}
		key := int64(u)*int64(n) + int64(v)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{From: u, To: v})
	}
	g, err := graph.FromEdges(n, edges)
	if err != nil {
		return nil, err
	}
	return g.WeightByInDegree(), nil
}
