package graph

import (
	"math"
	"sort"

	"s3crm/internal/pq"
	"s3crm/internal/rng"
	"s3crm/internal/stats"
)

// DegreeStats summarizes a graph's degree distribution.
type DegreeStats struct {
	Nodes, Edges     int
	MeanOut, MaxOut  float64
	MeanIn, MaxIn    float64
	PowerLawExponent float64 // MLE over out-degrees >= 2; 0 when inestimable
}

// Stats computes DegreeStats in one pass.
func (g *Graph) Stats() DegreeStats {
	s := DegreeStats{Nodes: g.n, Edges: g.NumEdges()}
	outs := g.OutDegrees()
	for _, d := range outs {
		s.MeanOut += float64(d)
		if float64(d) > s.MaxOut {
			s.MaxOut = float64(d)
		}
	}
	for _, d := range g.inDeg {
		s.MeanIn += float64(d)
		if float64(d) > s.MaxIn {
			s.MaxIn = float64(d)
		}
	}
	if g.n > 0 {
		s.MeanOut /= float64(g.n)
		s.MeanIn /= float64(g.n)
	}
	s.PowerLawExponent = stats.PowerLawExponent(outs, 2)
	return s
}

// ApproxClustering estimates the mean local clustering coefficient treating
// the graph as undirected, by sampling `samples` nodes of degree >= 2. Exact
// triangle counting is quadratic in degree and infeasible on the larger
// synthetic datasets; sampling matches how the generator targets are
// validated.
func (g *Graph) ApproxClustering(src *rng.Source, samples int) float64 {
	if g.n == 0 || samples <= 0 {
		return 0
	}
	// Undirected neighbour sets (sorted) built lazily per sampled node.
	und := g.undirectedAdjacency()
	var acc stats.Running
	for tries := 0; tries < samples*10 && acc.N() < samples; tries++ {
		v := int32(src.Intn(g.n))
		nb := und[v]
		k := len(nb)
		if k < 2 {
			continue
		}
		links := 0
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				if containsSorted(und[nb[i]], nb[j]) {
					links++
				}
			}
		}
		acc.Add(2 * float64(links) / float64(k*(k-1)))
	}
	return acc.Mean()
}

func (g *Graph) undirectedAdjacency() [][]int32 {
	und := make([][]int32, g.n)
	for v := int32(0); v < int32(g.n); v++ {
		ts, _ := g.OutEdges(v)
		for _, t := range ts {
			if t == v {
				continue
			}
			und[v] = append(und[v], t)
			und[t] = append(und[t], v)
		}
	}
	for v := range und {
		sort.Slice(und[v], func(i, j int) bool { return und[v][i] < und[v][j] })
		und[v] = dedupSorted(und[v])
	}
	return und
}

func dedupSorted(xs []int32) []int32 {
	if len(xs) < 2 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func containsSorted(xs []int32, x int32) bool {
	i := sort.Search(len(xs), func(i int) bool { return xs[i] >= x })
	return i < len(xs) && xs[i] == x
}

// ShortestPaths runs Dijkstra from source with edge weight w = 1 - P, the
// weighting the paper's IM-S baseline uses ("an edge with a higher influence
// probability having a smaller weight"). It returns the distance and parent
// arrays; parent is -1 for the source and unreachable nodes.
func (g *Graph) ShortestPaths(source int32) (dist []float64, parent []int32) {
	dist = make([]float64, g.n)
	parent = make([]int32, g.n)
	for i := range dist {
		dist[i] = math.Inf(1)
		parent[i] = -1
	}
	dist[source] = 0
	h := pq.NewIndexed(g.n)
	h.DecreaseKey(source, 0)
	for h.Len() > 0 {
		v, dv, _ := h.Pop()
		ts, ps := g.OutEdges(v)
		for i, t := range ts {
			w := 1 - ps[i]
			if w < 0 {
				w = 0
			}
			nd := dv + w
			if nd < dist[t] {
				dist[t] = nd
				parent[t] = v
				h.DecreaseKey(t, nd)
			}
		}
	}
	return dist, parent
}

// PathTo reconstructs the node sequence from the Dijkstra source to target
// using the parent array; nil when target is unreachable.
func PathTo(parent []int32, target int32) []int32 {
	if parent[target] == -1 {
		// Either the source itself or unreachable; the caller knows which.
		return []int32{target}
	}
	var rev []int32
	for v := target; v != -1; v = parent[v] {
		rev = append(rev, v)
		if len(rev) > len(parent) {
			return nil // cycle guard; cannot happen with a valid parent array
		}
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
