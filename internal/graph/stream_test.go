package graph

import (
	"math"
	"testing"
)

// genEdges produces a deterministic pseudo-random edge list with repeats and
// self-loops mixed in.
func genEdges(n, m int, withProbs bool) []Edge {
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	edges := make([]Edge, 0, m)
	for len(edges) < m {
		u := int32(next() % uint64(n))
		v := int32(next() % uint64(n))
		p := 0.0
		if withProbs {
			p = float64(next()%1000) / 1000
		}
		edges = append(edges, Edge{From: u, To: v, P: p})
	}
	return edges
}

// dedupKeepFirst mirrors DupKeepFirst on an []Edge: first occurrence wins.
func dedupKeepFirst(edges []Edge) []Edge {
	type key struct{ u, v int32 }
	seen := map[key]bool{}
	out := make([]Edge, 0, len(edges))
	for _, e := range edges {
		k := key{e.From, e.To}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}

func graphsEqual(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)", a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	ao, at, ap := a.CSR()
	bo, bt, bp := b.CSR()
	for v := 0; v <= a.NumNodes(); v++ {
		if ao[v] != bo[v] {
			t.Fatalf("offset mismatch at node %d: %d vs %d", v, ao[v], bo[v])
		}
	}
	for i := range at {
		if at[i] != bt[i] || ap[i] != bp[i] {
			t.Fatalf("edge %d mismatch: (%d,%g) vs (%d,%g)", i, at[i], ap[i], bt[i], bp[i])
		}
	}
	for v := int32(0); int(v) < a.NumNodes(); v++ {
		if a.InDegree(v) != b.InDegree(v) {
			t.Fatalf("in-degree mismatch at %d", v)
		}
	}
}

// TestStreamBuilderMatchesFromEdges is the CSR-vs-FromEdges equivalence
// check: the streaming construction must produce a bit-identical graph to
// the []Edge path on the same (duplicate-free) input.
func TestStreamBuilderMatchesFromEdges(t *testing.T) {
	edges := dedupKeepFirst(genEdges(500, 4000, true))
	ref, err := FromEdges(500, edges)
	if err != nil {
		t.Fatal(err)
	}
	b := NewStreamBuilder(500)
	for _, e := range edges {
		if err := b.AddProb(e.From, e.To, e.P); err != nil {
			t.Fatal(err)
		}
	}
	g, stats, err := b.Build(DupError, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Arcs != len(edges) || stats.Duplicates != 0 {
		t.Fatalf("stats = %+v, want %d arcs, 0 duplicates", stats, len(edges))
	}
	graphsEqual(t, ref, g)
}

// TestStreamBuilderKeepFirst: duplicates drop to the first stream
// occurrence, matching the reference []Edge dedup.
func TestStreamBuilderKeepFirst(t *testing.T) {
	raw := genEdges(120, 3000, true) // dense enough to guarantee repeats
	deduped := dedupKeepFirst(raw)
	if len(deduped) == len(raw) {
		t.Fatal("test input has no duplicates; raise density")
	}
	ref, err := FromEdges(120, deduped)
	if err != nil {
		t.Fatal(err)
	}
	b := NewStreamBuilder(120)
	for _, e := range raw {
		if err := b.AddProb(e.From, e.To, e.P); err != nil {
			t.Fatal(err)
		}
	}
	g, stats, err := b.Build(DupKeepFirst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := stats.Duplicates, len(raw)-len(deduped); got != want {
		t.Fatalf("Duplicates = %d, want %d", got, want)
	}
	graphsEqual(t, ref, g)
}

func TestStreamBuilderDupError(t *testing.T) {
	b := NewStreamBuilder(3)
	for _, e := range []Edge{{0, 1, 0.5}, {0, 2, 0.25}, {0, 1, 0.5}} {
		if err := b.AddProb(e.From, e.To, e.P); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.Build(DupError, nil); err == nil {
		t.Fatal("duplicate arc accepted under DupError")
	}
}

// TestStreamBuilderProbAssign: the weighted-cascade hook sees deduplicated
// in-degrees and matches WeightByInDegree on the same topology.
func TestStreamBuilderProbAssign(t *testing.T) {
	raw := genEdges(200, 2500, false)
	b := NewStreamBuilderAuto()
	for _, e := range raw {
		if err := b.Add(e.From, e.To); err != nil {
			t.Fatal(err)
		}
	}
	g, _, err := b.Build(DupKeepFirst, func(_, _ int32, inDeg int32) float64 {
		return 1 / float64(inDeg)
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := FromEdges(200, dedupKeepFirst(raw))
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, ref.WeightByInDegree(), g)
}

// TestInEdgesMatchesReverse: the lazy reverse CSR must list exactly the
// rows a materialized transpose graph would store, in the same order. The
// reference transpose is built through FromEdges with swapped endpoints —
// the construction the deleted full-copy Reverse() performed.
func TestInEdgesMatchesReverse(t *testing.T) {
	edges := dedupKeepFirst(genEdges(300, 2000, true))
	g, err := FromEdges(300, edges)
	if err != nil {
		t.Fatal(err)
	}
	transposed := make([]Edge, 0, len(edges))
	for _, e := range g.Edges() {
		transposed = append(transposed, Edge{From: e.To, To: e.From, P: e.P})
	}
	rev, err := FromEdges(300, transposed)
	if err != nil {
		t.Fatal(err)
	}
	probs := g.Probs()
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		srcs, eidx, _ := g.InEdges(v)
		ts, ps := rev.OutEdges(v)
		if len(srcs) != len(ts) {
			t.Fatalf("node %d: %d in-edges vs %d transpose out-edges", v, len(srcs), len(ts))
		}
		for j := range srcs {
			if srcs[j] != ts[j] {
				t.Fatalf("node %d slot %d: source %d vs %d", v, j, srcs[j], ts[j])
			}
			if probs[eidx[j]] != ps[j] {
				t.Fatalf("node %d slot %d: prob %g vs %g", v, j, probs[eidx[j]], ps[j])
			}
			if p, ok := g.EdgeProb(srcs[j], v); !ok || p != probs[eidx[j]] {
				t.Fatalf("node %d slot %d: forward lookup disagrees", v, j)
			}
		}
	}
}

func TestReweightMatchesRebuild(t *testing.T) {
	edges := dedupKeepFirst(genEdges(150, 1200, true))
	g, err := FromEdges(150, edges)
	if err != nil {
		t.Fatal(err)
	}
	f := func(from, to int32, p float64) float64 {
		return math.Mod(p*0.5+float64(from+to)*0.001, 1)
	}
	got, err := g.Reweight(f)
	if err != nil {
		t.Fatal(err)
	}
	re := g.Edges()
	for i := range re {
		re[i].P = f(re[i].From, re[i].To, re[i].P)
	}
	want, err := FromEdges(150, re)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, want, got)
	// The source graph must be untouched (topology arrays are shared).
	check, err := FromEdges(150, edges)
	if err != nil {
		t.Fatal(err)
	}
	graphsEqual(t, check, g)
}

func TestStreamBuilderAutoSizesNodes(t *testing.T) {
	b := NewStreamBuilderAuto()
	if err := b.Add(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(2, 9); err != nil {
		t.Fatal(err)
	}
	g, _, err := b.Build(DupError, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10 (maxID+1)", g.NumNodes())
	}
	if err := b.Add(-1, 0); err == nil {
		t.Fatal("negative endpoint accepted")
	}
}
