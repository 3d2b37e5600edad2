package gen

import (
	"fmt"
	"math"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// PatternConfig parameterizes PatternPreserving, the PPGG substitute.
// The zero value is not valid; fill Nodes and Edges at minimum.
type PatternConfig struct {
	// Nodes and Edges set the target size. The generator hits Nodes
	// exactly; Edges is approached within a few percent (configuration
	// models cannot always realize an arbitrary sequence exactly).
	Nodes int
	Edges int
	// Eta is the power-law exponent of the out-degree sequence; the paper's
	// PPGG runs use 1.7 and 2.5. Exponents below 2 are fine because the
	// sequence is truncated at √Nodes + 2.
	Eta float64
	// Clustering is the target mean local clustering coefficient; triad
	// closure edges are added until a sampled estimate reaches it (or the
	// closure budget runs out). The paper's PPGG setting is 0.6394.
	Clustering float64
	// MotifSupport stamps this many frequent patterns (triangles, 3-stars,
	// 4-chains round-robin) onto the backbone, mirroring PPGG's
	// pattern-preservation with support 1000 over 11 patterns. 0 stamps
	// none.
	MotifSupport int
	// Mutual adds the reverse of every generated edge, producing the
	// symmetric friendship graphs of Facebook-like OSNs.
	Mutual bool
}

// PatternPreserving generates a graph per cfg. See PatternConfig for the
// correspondence to PPGG's parameters.
func PatternPreserving(cfg PatternConfig, src *rng.Source) (*graph.Graph, error) {
	if cfg.Nodes < 4 {
		return nil, fmt.Errorf("gen: PatternPreserving needs >= 4 nodes, got %d", cfg.Nodes)
	}
	if cfg.Edges < cfg.Nodes {
		return nil, fmt.Errorf("gen: PatternPreserving needs edges >= nodes, got %d < %d", cfg.Edges, cfg.Nodes)
	}
	if cfg.Eta <= 1 {
		return nil, fmt.Errorf("gen: PatternPreserving exponent must exceed 1, got %v", cfg.Eta)
	}
	if cfg.Clustering < 0 || cfg.Clustering > 1 {
		return nil, fmt.Errorf("gen: PatternPreserving clustering %v outside [0,1]", cfg.Clustering)
	}
	maxDeg := int(math.Sqrt(float64(cfg.Nodes))) + 2
	if maxDeg >= cfg.Nodes {
		maxDeg = cfg.Nodes - 1
	}

	targetEdges := cfg.Edges
	if cfg.Mutual {
		// Each undirected stub pair becomes two directed edges.
		targetEdges = cfg.Edges / 2
	}

	degrees := powerLawDegrees(cfg.Nodes, targetEdges, cfg.Eta, maxDeg, src)

	seen := make(map[int64]struct{}, targetEdges*2)
	var edges []graph.Edge
	addEdge := func(u, v int32) bool {
		if u == v {
			return false
		}
		key := int64(u)<<32 | int64(uint32(v))
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		edges = append(edges, graph.Edge{From: u, To: v})
		if cfg.Mutual {
			rkey := int64(v)<<32 | int64(uint32(u))
			if _, dup := seen[rkey]; !dup {
				seen[rkey] = struct{}{}
				edges = append(edges, graph.Edge{From: v, To: u})
			}
		}
		return true
	}

	// Configuration-model wiring: a stub list with node i repeated
	// degrees[i] times, matched against uniform targets with retry.
	stubs := make([]int32, 0, targetEdges)
	for v, d := range degrees {
		for i := 0; i < d; i++ {
			stubs = append(stubs, int32(v))
		}
	}
	src.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	for _, u := range stubs {
		// Preferential target choice (another stub) keeps in-degree
		// correlated with out-degree, as in real OSNs.
		placed := false
		for attempt := 0; attempt < 20 && !placed; attempt++ {
			v := stubs[src.Intn(len(stubs))]
			placed = addEdge(u, v)
		}
		// Failed stubs are dropped; the realized edge count tracks the
		// target within a few percent.
	}

	// Triad closure to reach the clustering target.
	if cfg.Clustering > 0 {
		closeTriads(cfg, &edges, seen, src)
	}

	// Motif stamping.
	stampMotifs(cfg, addEdge, src)

	g, err := graph.FromEdges(cfg.Nodes, edges)
	if err != nil {
		return nil, err
	}
	return g.WeightByInDegree(), nil
}

// powerLawDegrees samples a degree sequence with exponent eta, truncated to
// [1, maxDeg], scaled so the sum approximates targetEdges.
func powerLawDegrees(n, targetEdges int, eta float64, maxDeg int, src *rng.Source) []int {
	raw := make([]float64, n)
	sum := 0.0
	for i := range raw {
		u := src.Float64()
		x := math.Pow(1-u, -1/(eta-1)) // continuous power law, xmin=1
		if x > float64(maxDeg) {
			x = float64(maxDeg)
		}
		raw[i] = x
		sum += x
	}
	scale := float64(targetEdges) / sum
	degrees := make([]int, n)
	for i, x := range raw {
		d := int(x*scale + 0.5)
		if d < 1 {
			d = 1
		}
		if d > maxDeg {
			d = maxDeg
		}
		degrees[i] = d
	}
	return degrees
}

// closeTriads adds a→b edges between random co-neighbours until the sampled
// clustering estimate reaches cfg.Clustering or the closure budget is spent.
func closeTriads(cfg PatternConfig, edges *[]graph.Edge, seen map[int64]struct{}, src *rng.Source) {
	// Build undirected adjacency once; closure edges update it.
	adj := make([][]int32, cfg.Nodes)
	for _, e := range *edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	add := func(u, v int32) bool {
		if u == v {
			return false
		}
		key := int64(u)<<32 | int64(uint32(v))
		if _, dup := seen[key]; dup {
			return false
		}
		seen[key] = struct{}{}
		*edges = append(*edges, graph.Edge{From: u, To: v})
		if cfg.Mutual {
			rkey := int64(v)<<32 | int64(uint32(u))
			if _, dup := seen[rkey]; !dup {
				seen[rkey] = struct{}{}
				*edges = append(*edges, graph.Edge{From: v, To: u})
			}
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
		return true
	}
	// Budget: at most 50% extra edges for closure.
	budget := len(*edges) / 2
	check := len(*edges) / 10
	if check < 100 {
		check = 100
	}
	added := 0
	for added < budget {
		v := int32(src.Intn(cfg.Nodes))
		nb := adj[v]
		if len(nb) < 2 {
			continue
		}
		a := nb[src.Intn(len(nb))]
		b := nb[src.Intn(len(nb))]
		if a == b {
			continue
		}
		if add(a, b) {
			added++
		}
		if added%check == 0 && added > 0 {
			if estimateClustering(adj, cfg.Nodes, src, 200) >= cfg.Clustering {
				return
			}
		}
	}
}

// estimateClustering samples local clustering coefficients from the
// adjacency-list representation used during generation.
func estimateClustering(adj [][]int32, n int, src *rng.Source, samples int) float64 {
	got, sum := 0, 0.0
	for tries := 0; tries < samples*10 && got < samples; tries++ {
		v := src.Intn(n)
		nb := uniqueNeighbours(adj[v])
		k := len(nb)
		if k < 2 {
			continue
		}
		set := make(map[int32]struct{}, k)
		for _, x := range nb {
			set[x] = struct{}{}
		}
		links := 0
		for i := 0; i < k; i++ {
			for _, w := range adj[nb[i]] {
				if w == int32(v) || w == nb[i] {
					continue
				}
				if _, ok := set[w]; ok {
					links++
				}
			}
		}
		// each undirected link double counted via both endpoints' lists
		// (adj holds both directions), so divide by 2.
		c := float64(links) / 2 / float64(k*(k-1)) * 2
		if c > 1 {
			c = 1
		}
		sum += c
		got++
	}
	if got == 0 {
		return 0
	}
	return sum / float64(got)
}

func uniqueNeighbours(nb []int32) []int32 {
	seen := make(map[int32]struct{}, len(nb))
	out := make([]int32, 0, len(nb))
	for _, x := range nb {
		if _, dup := seen[x]; dup {
			continue
		}
		seen[x] = struct{}{}
		out = append(out, x)
	}
	return out
}

// stampMotifs stamps cfg.MotifSupport frequent patterns onto random nodes,
// cycling triangle → 3-star → 4-chain.
func stampMotifs(cfg PatternConfig, addEdge func(u, v int32) bool, src *rng.Source) {
	n := int32(cfg.Nodes)
	pick := func() int32 { return int32(src.Intn(int(n))) }
	for i := 0; i < cfg.MotifSupport; i++ {
		switch i % 3 {
		case 0: // triangle
			a, b, c := pick(), pick(), pick()
			addEdge(a, b)
			addEdge(b, c)
			addEdge(c, a)
		case 1: // out-star with 3 leaves
			c := pick()
			for j := 0; j < 3; j++ {
				addEdge(c, pick())
			}
		case 2: // 4-chain
			a, b, c, d := pick(), pick(), pick(), pick()
			addEdge(a, b)
			addEdge(b, c)
			addEdge(c, d)
		}
	}
}
