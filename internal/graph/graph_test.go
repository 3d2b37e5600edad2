package graph

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"s3crm/internal/rng"
)

// mustGraph builds an n-node graph from edges, failing the test on error.
func mustGraph(t *testing.T, n int, edges ...Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// diamond builds the graph 0→1 (0.9), 0→2 (0.4), 1→3 (0.5), 2→3 (0.8).
func diamond(t *testing.T) *Graph {
	return mustGraph(t, 4, Edge{0, 1, 0.9}, Edge{0, 2, 0.4}, Edge{1, 3, 0.5}, Edge{2, 3, 0.8})
}

func TestBuildBasics(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.OutDegree(0) != 2 || g.OutDegree(3) != 0 {
		t.Fatalf("out degrees wrong: %d, %d", g.OutDegree(0), g.OutDegree(3))
	}
	if g.InDegree(3) != 2 || g.InDegree(0) != 0 {
		t.Fatalf("in degrees wrong: %d, %d", g.InDegree(3), g.InDegree(0))
	}
}

func TestAdjacencySortedByDescendingProb(t *testing.T) {
	g := diamond(t)
	ts, ps := g.OutEdges(0)
	if ts[0] != 1 || ps[0] != 0.9 || ts[1] != 2 || ps[1] != 0.4 {
		t.Fatalf("adjacency of 0 not sorted by prob: %v %v", ts, ps)
	}
}

func TestAdjacencyTieBreakById(t *testing.T) {
	// Insert in reverse id order with equal probabilities.
	g := mustGraph(t, 4, Edge{0, 3, 0.5}, Edge{0, 1, 0.5}, Edge{0, 2, 0.5})
	ts, _ := g.OutEdges(0)
	if ts[0] != 1 || ts[1] != 2 || ts[2] != 3 {
		t.Fatalf("equal-prob ties not broken by id: %v", ts)
	}
}

// TestFromEdgesRejectsDuplicates checks that FromEdges and a DupError
// stream build name the smallest duplicated target of the first row
// holding one, whatever the stream order.
func TestFromEdgesRejectsDuplicates(t *testing.T) {
	_, err := FromEdges(3, []Edge{{0, 1, 0.2}, {0, 2, 0.3}, {0, 1, 0.4}})
	if err == nil {
		t.Fatal("duplicate edge accepted")
	}
	edges := []Edge{{4, 2, 0.1}, {4, 2, 0.1}, {3, 7, 0.5}, {3, 9, 0.5}, {3, 5, 0.2}, {2, 1, 0.3}, {3, 7, 0.1}, {3, 5, 0.9}, {3, 1, 0.3}}
	const want = "graph: duplicate edge (3,5)"
	if _, err := FromEdges(10, edges); err == nil || err.Error() != want {
		t.Fatalf("FromEdges error %v, want %q", err, want)
	}
	sb := NewStreamBuilder(10)
	for _, e := range edges {
		if err := sb.AddProb(e.From, e.To, e.P); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := sb.Build(DupError, nil); err == nil || err.Error() != want {
		t.Fatalf("DupError build error %v, want %q", err, want)
	}
}

func TestFromEdgesValidation(t *testing.T) {
	if _, err := FromEdges(-1, nil); err == nil {
		t.Fatal("negative node count accepted")
	}
	for _, tc := range []struct {
		name string
		e    Edge
	}{
		{"out-of-range target", Edge{0, 5, 0.5}},
		{"negative source", Edge{-1, 0, 0.5}},
		{"negative probability", Edge{0, 1, -0.1}},
		{"probability > 1", Edge{0, 1, 2}},
		{"NaN probability", Edge{0, 1, math.NaN()}},
	} {
		if _, err := FromEdges(2, []Edge{tc.e}); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

// TestBuilderRejectsBadEdges: the streaming builder validates each arc as
// it arrives, with the same rules FromEdges applies to a whole edge list.
func TestBuilderRejectsBadEdges(t *testing.T) {
	for _, tc := range []struct {
		name     string
		from, to int32
		p        float64
	}{
		{"out-of-range target", 0, 2, 0.5},
		{"negative source", -1, 0, 0.5},
		{"negative probability", 0, 1, -0.1},
		{"probability > 1", 0, 1, 1.1},
		{"NaN probability", 0, 1, math.NaN()},
	} {
		if err := NewStreamBuilder(2).AddProb(tc.from, tc.to, tc.p); err == nil {
			t.Fatalf("accepted %s", tc.name)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g, err := FromEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph not empty")
	}
}

func TestEdgeProbAndRank(t *testing.T) {
	g := diamond(t)
	p, ok := g.EdgeProb(0, 2)
	if !ok || p != 0.4 {
		t.Fatalf("EdgeProb(0,2) = %v,%v", p, ok)
	}
	if _, ok := g.EdgeProb(3, 0); ok {
		t.Fatal("EdgeProb found non-existent edge")
	}
	if r := g.NeighborRank(0, 1); r != 0 {
		t.Fatalf("rank of strongest neighbour = %d, want 0", r)
	}
	if r := g.NeighborRank(0, 2); r != 1 {
		t.Fatalf("rank of weaker neighbour = %d, want 1", r)
	}
	if r := g.NeighborRank(0, 3); r != -1 {
		t.Fatalf("rank of non-neighbour = %d, want -1", r)
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := diamond(t)
	edges := g.Edges()
	g2, err := FromEdges(g.NumNodes(), edges)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round-trip changed edge count")
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		t1, p1 := g.OutEdges(v)
		t2, p2 := g2.OutEdges(v)
		if len(t1) != len(t2) {
			t.Fatalf("node %d degree changed", v)
		}
		for i := range t1 {
			if t1[i] != t2[i] || p1[i] != p2[i] {
				t.Fatalf("node %d adjacency changed", v)
			}
		}
	}
}

func TestWeightByInDegree(t *testing.T) {
	g := diamond(t)
	w := g.WeightByInDegree()
	// node 3 has in-degree 2 so both incoming edges get probability 0.5.
	p, ok := w.EdgeProb(1, 3)
	if !ok || p != 0.5 {
		t.Fatalf("EdgeProb(1,3) = %v, want 0.5", p)
	}
	p, ok = w.EdgeProb(0, 1)
	if !ok || p != 1.0 {
		t.Fatalf("EdgeProb(0,1) = %v, want 1.0 (indeg 1)", p)
	}
	// Original graph unchanged.
	p, _ = g.EdgeProb(0, 1)
	if p != 0.9 {
		t.Fatal("WeightByInDegree mutated the receiver")
	}
}

func TestCapInWeights(t *testing.T) {
	// Node 3 takes in-weights 0.8 + 0.7 = 1.5 (over the LT bound); node 1
	// and 2 take a single in-edge each (within it).
	g, err := FromEdges(4, []Edge{
		{From: 0, To: 1, P: 0.9}, {From: 0, To: 2, P: 0.3},
		{From: 1, To: 3, P: 0.8}, {From: 2, To: 3, P: 0.7},
	})
	if err != nil {
		t.Fatal(err)
	}
	capped := g.CapInWeights()
	if p, _ := capped.EdgeProb(0, 1); p != 0.9 {
		t.Fatalf("in-bound weight rescaled: %g", p)
	}
	sum := 0.8 + 0.7 // the accumulation CapInWeights performs
	if p, _ := capped.EdgeProb(1, 3); p != 0.8/sum {
		t.Fatalf("edge (1,3) = %g, want %g", p, 0.8/sum)
	}
	if p, _ := capped.EdgeProb(2, 3); p != 0.7/sum {
		t.Fatalf("edge (2,3) = %g, want %g", p, 0.7/sum)
	}
	// Every node's in-weights now sum to at most 1 (+ ulp slack).
	sums := make([]float64, capped.NumNodes())
	for _, e := range capped.Edges() {
		sums[e.To] += e.P
	}
	for v, s := range sums {
		if s > 1+1e-12 {
			t.Fatalf("node %d in-weights still sum to %g", v, s)
		}
	}
	// A weighted-cascade graph (sums exactly 1) passes through bit-identical.
	wc := g.WeightByInDegree()
	same := wc.CapInWeights()
	e1, e2 := wc.Edges(), same.Edges()
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("CapInWeights disturbed a weighted-cascade edge: %v vs %v", e1[i], e2[i])
		}
	}
}

func TestStats(t *testing.T) {
	g := diamond(t)
	s := g.Stats()
	if s.Nodes != 4 || s.Edges != 4 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.MeanOut != 1.0 || s.MaxOut != 2 {
		t.Fatalf("out stats wrong: %+v", s)
	}
	if s.MaxIn != 2 {
		t.Fatalf("in stats wrong: %+v", s)
	}
}

func TestShortestPaths(t *testing.T) {
	// 0→1 p=0.9 (w=0.1), 1→2 p=0.9 (w=0.1): path cost 0.2
	// 0→2 p=0.5 (w=0.5): direct cost 0.5 — two-hop high-probability path wins.
	g := mustGraph(t, 3, Edge{0, 1, 0.9}, Edge{1, 2, 0.9}, Edge{0, 2, 0.5})
	dist, parent := g.ShortestPaths(0)
	if math.Abs(dist[2]-0.2) > 1e-12 {
		t.Fatalf("dist[2] = %v, want 0.2", dist[2])
	}
	path := PathTo(parent, 2)
	if len(path) != 3 || path[0] != 0 || path[1] != 1 || path[2] != 2 {
		t.Fatalf("path = %v, want [0 1 2]", path)
	}
}

func TestShortestPathsUnreachable(t *testing.T) {
	g := mustGraph(t, 3, Edge{0, 1, 0.5})
	dist, parent := g.ShortestPaths(0)
	if !math.IsInf(dist[2], 1) {
		t.Fatalf("unreachable dist = %v, want +inf", dist[2])
	}
	if parent[2] != -1 {
		t.Fatal("unreachable parent should be -1")
	}
}

func TestApproxClusteringTriangle(t *testing.T) {
	// A directed 3-cycle is an undirected triangle: clustering 1.
	g := mustGraph(t, 3, Edge{0, 1, 0.5}, Edge{1, 2, 0.5}, Edge{2, 0, 0.5})
	c := g.ApproxClustering(rng.New(1), 50)
	if math.Abs(c-1) > 1e-9 {
		t.Fatalf("triangle clustering = %v, want 1", c)
	}
}

func TestApproxClusteringStar(t *testing.T) {
	// A star has no triangles: clustering 0 for the centre; leaves have
	// degree 1 and are skipped.
	g := mustGraph(t, 5, Edge{0, 1, 0.5}, Edge{0, 2, 0.5}, Edge{0, 3, 0.5}, Edge{0, 4, 0.5})
	c := g.ApproxClustering(rng.New(1), 50)
	if c != 0 {
		t.Fatalf("star clustering = %v, want 0", c)
	}
}

// Property: for random graphs, CSR round-trips and every adjacency is sorted
// by descending probability.
func TestPropertyRandomGraphsWellFormed(t *testing.T) {
	src := rng.New(99)
	f := func(seed uint64) bool {
		local := rng.New(seed)
		n := 2 + local.Intn(30)
		var edges []Edge
		seen := map[[2]int32]bool{}
		for i := 0; i < n*3; i++ {
			u := int32(local.Intn(n))
			v := int32(local.Intn(n))
			if u == v || seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
			edges = append(edges, Edge{u, v, local.Float64()})
		}
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		if g.NumEdges() != len(edges) {
			return false
		}
		total := 0
		for v := int32(0); v < int32(n); v++ {
			_, ps := g.OutEdges(v)
			total += len(ps)
			for i := 1; i < len(ps); i++ {
				if ps[i] > ps[i-1] {
					return false // not descending
				}
			}
		}
		return total == len(edges)
	}
	for i := 0; i < 50; i++ {
		if !f(src.Uint64()) {
			t.Fatalf("random graph property violated at iteration %d", i)
		}
	}
}

// checkReverseLayout asserts the reverse CSR's layout on g: every in-edge
// appears exactly once, in its target's row, with the probability aligned
// to its slot equal to the key-indexed view's (KeyProbs, or KeyViewParts on
// overlay graphs) and to the forward row's; each row runs by descending
// probability, ties by ascending source.
func checkReverseLayout(t *testing.T, name string, g *Graph) {
	t.Helper()
	kp, kt := flatKeyViews(g)
	seen := make([]bool, g.NumEdges())
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		srcs, keys, probs := g.InEdges(v)
		if len(srcs) != g.InDegree(v) || len(keys) != len(srcs) || len(probs) != len(srcs) {
			t.Fatalf("%s: node %d: %d sources, %d keys, %d probs, in-degree %d",
				name, v, len(srcs), len(keys), len(probs), g.InDegree(v))
		}
		for j, k := range keys {
			if seen[k] {
				t.Fatalf("%s: key %d listed twice", name, k)
			}
			seen[k] = true
			if kt[k] != v {
				t.Fatalf("%s: node %d slot %d: key %d targets %d", name, v, j, k, kt[k])
			}
			if probs[j] != kp[k] {
				t.Fatalf("%s: node %d slot %d: aligned prob %v, KeyProbs[%d] %v", name, v, j, probs[j], k, kp[k])
			}
			if p, ok := g.EdgeProb(srcs[j], v); !ok || p != probs[j] {
				t.Fatalf("%s: node %d slot %d: forward edge (%d,%d) prob %v,%v, aligned %v",
					name, v, j, srcs[j], v, p, ok, probs[j])
			}
			if j > 0 && (probs[j-1] < probs[j] || probs[j-1] == probs[j] && srcs[j-1] >= srcs[j]) {
				t.Fatalf("%s: node %d slots %d,%d out of order: (%d,%v) before (%d,%v)",
					name, v, j-1, j, srcs[j-1], probs[j-1], srcs[j], probs[j])
			}
		}
	}
	for k, ok := range seen {
		if !ok {
			t.Fatalf("%s: key %d missing from the reverse CSR", name, k)
		}
	}
}

// TestReverseLayout checks the aligned reverse layout on every way a graph
// is built: plain and key-remapped construction, a two-batch overlay
// lineage, its compaction, and the re-weighting, padding and in-weight
// capping rebuilds. Probabilities are quantized to quarters so rows are
// full of ties (zeros included) for the source tie-break to order.
func TestReverseLayout(t *testing.T) {
	const n = 200
	edges := dedupKeepFirst(genEdges(n, 2400, true))
	for i := range edges {
		edges[i].P = math.Floor(edges[i].P*4) / 4
	}
	base, extra := edges[:2000], edges[2000:]
	plain, err := FromEdges(n, base)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed input order makes FromEdgesStable keep a non-identity key map.
	reversed := slices.Clone(base)
	slices.Reverse(reversed)
	stable, err := FromEdgesStable(n, reversed)
	if err != nil {
		t.Fatal(err)
	}
	if stable.eid == nil {
		t.Fatal("reversed input kept the identity key map")
	}
	batch1 := append([]Edge{{From: 3, To: n + 2, P: 0.5}, {From: n + 1, To: 4, P: 0.75}}, extra[:len(extra)/2]...)
	og1, err := stable.WithEdges(batch1)
	if err != nil {
		t.Fatal(err)
	}
	og2, err := og1.WithEdges(extra[len(extra)/2:])
	if err != nil {
		t.Fatal(err)
	}
	compact := og2.Compact()
	reweighted, err := stable.Reweight(func(from, to int32, p float64) float64 {
		return float64((from+to)%3) / 4
	})
	if err != nil {
		t.Fatal(err)
	}
	padded, err := stable.PadNodes(n + 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *Graph
	}{
		{"FromEdges", plain},
		{"FromEdgesStable", stable},
		{"WithEdges", og1},
		{"WithEdges twice", og2},
		{"Compact", compact},
		{"Reweight", reweighted},
		{"PadNodes", padded},
		{"CapInWeights", og2.CapInWeights()},
	} {
		checkReverseLayout(t, c.name, c.g)
	}
}

// TestShardNodesParallelMatchesSequential builds one edge list large enough
// for shardNodes to fan out (at least two shards' worth of edges) under
// GOMAXPROCS 4 and 1: the row sorts and the reverse CSR must come out
// identical. Probabilities are quantized to quarters so rows
// are full of ties for the id tie-breaks to order.
func TestShardNodesParallelMatchesSequential(t *testing.T) {
	edges := dedupKeepFirst(genEdges(20000, 150000, true))
	for i := range edges {
		edges[i].P = math.Floor(edges[i].P*4) / 4
	}
	if len(edges) < 2<<16 {
		t.Fatalf("only %d distinct edges; shardNodes would not fan out", len(edges))
	}
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	build := func(procs int) *Graph {
		runtime.GOMAXPROCS(procs)
		g, err := FromEdges(20000, slices.Clone(edges))
		if err != nil {
			t.Fatal(err)
		}
		g.InEdges(0) // builds the reverse CSR under the same GOMAXPROCS
		return g
	}
	seq, sharded := build(1), build(4)
	for _, c := range []struct {
		name string
		eq   bool
	}{
		{"offsets", slices.Equal(seq.offsets, sharded.offsets)},
		{"targets", slices.Equal(seq.targets, sharded.targets)},
		{"probs", slices.Equal(seq.probs, sharded.probs)},
		{"revOffsets", slices.Equal(seq.revOffsets, sharded.revOffsets)},
		{"revSources", slices.Equal(seq.revSources, sharded.revSources)},
		{"revEdge", slices.Equal(seq.revEdge, sharded.revEdge)},
		{"revProbs", slices.Equal(seq.revProbs, sharded.revProbs)},
	} {
		if !c.eq {
			t.Errorf("%s differ between GOMAXPROCS 1 and 4", c.name)
		}
	}
}
