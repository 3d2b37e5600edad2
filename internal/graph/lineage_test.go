package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// member is one graph of a WithEdges lineage with the edge list whose
// FromEdgesStable build is its cold twin: edge i of the list holds coin key
// i, so the list is the base's edges in CSR order followed by every batch
// appended on the way to the member.
type member struct {
	name  string
	g     *Graph
	edges []Edge
}

// checkCold compares every read path of m.g against a cold FromEdgesStable
// build of its edge list: the out-rows with their coin keys, edge lookups
// (present and absent), the key-indexed views, the in-rows and in-degrees,
// and the sizes and degree statistics. The hub row (node 0) is looked up
// at every id.
func checkCold(t *testing.T, m member) {
	t.Helper()
	g := m.g
	cold, err := FromEdgesStable(g.NumNodes(), m.edges)
	if err != nil {
		t.Fatalf("%s: cold build: %v", m.name, err)
	}
	if g.NumNodes() != cold.NumNodes() || g.NumEdges() != cold.NumEdges() {
		t.Fatalf("%s: %d nodes / %d edges, cold %d / %d", m.name, g.NumNodes(), g.NumEdges(), cold.NumNodes(), cold.NumEdges())
	}
	n := int32(g.NumNodes())
	for v := int32(0); v < n; v++ {
		gt, gp, _, _ := g.OutRow(v)
		ct, cp, _, _ := cold.OutRow(v)
		if !slices.Equal(gt, ct) || !slices.Equal(gp, cp) || !slices.Equal(rowKeys(g, v), rowKeys(cold, v)) {
			t.Fatalf("%s: row %d = (%v, %v, keys %v), cold (%v, %v, keys %v)", m.name, v, gt, gp, rowKeys(g, v), ct, cp, rowKeys(cold, v))
		}
		if g.OutDegree(v) != len(ct) {
			t.Fatalf("%s: OutDegree(%d) = %d, cold %d", m.name, v, g.OutDegree(v), len(ct))
		}
		for j, to := range ct {
			if r := g.NeighborRank(v, to); r != j {
				t.Fatalf("%s: NeighborRank(%d,%d) = %d, want %d", m.name, v, to, r, j)
			}
			if p, ok := g.EdgeProb(v, to); !ok || p != cp[j] {
				t.Fatalf("%s: EdgeProb(%d,%d) = %v,%v, want %v", m.name, v, to, p, ok, cp[j])
			}
		}
		// Absent arcs: both neighbours of v in id order and a far id.
		for _, to := range []int32{(v + 1) % n, (v + n - 1) % n, n - 1} {
			if cold.NeighborRank(v, to) >= 0 {
				continue
			}
			if _, ok := g.EdgeProb(v, to); ok || g.NeighborRank(v, to) >= 0 {
				t.Fatalf("%s: phantom edge (%d,%d)", m.name, v, to)
			}
		}
		gs, gk, gip := g.InEdges(v)
		cs, ck, cip := cold.InEdges(v)
		if !slices.Equal(gs, cs) || !slices.Equal(gk, ck) || !slices.Equal(gip, cip) {
			t.Fatalf("%s: in-row %d = (%v, %v, %v), cold (%v, %v, %v)", m.name, v, gs, gk, gip, cs, ck, cip)
		}
		if g.InDegree(v) != cold.InDegree(v) {
			t.Fatalf("%s: InDegree(%d) = %d, cold %d", m.name, v, g.InDegree(v), cold.InDegree(v))
		}
	}
	// The hub row (node 0, degree > 8 on every lineage the tests build):
	// every id is looked up, present or absent.
	ct, cp := cold.OutEdges(0)
	for to := int32(0); to < n; to++ {
		j := slices.Index(ct, to)
		p, ok := g.EdgeProb(0, to)
		if r := g.NeighborRank(0, to); r != j || ok != (j >= 0) || (ok && p != cp[j]) {
			t.Fatalf("%s: hub lookup of %d: rank %d, prob %v,%v; cold rank %d", m.name, to, r, p, ok, j)
		}
	}
	kp, kt := flatKeyViews(g)
	if !slices.Equal(kp, cold.KeyProbs()) || !slices.Equal(kt, cold.KeyTargets()) {
		t.Fatalf("%s: key-indexed views differ from the cold build's", m.name)
	}
	if gs, cs := g.Stats(), cold.Stats(); gs != cs {
		t.Fatalf("%s: Stats %+v, cold %+v", m.name, gs, cs)
	}
}

// checkCompact compacts m.g and compares the result against a cold
// FromEdgesStable build of m's edge list field for field: the CSR rows,
// the in-degrees, the coin-key map (nil exactly when
// it is the identity) and the key-indexed views. A graph without an overlay
// compacts to itself, which must equal its cold build too.
func checkCompact(t *testing.T, m member) {
	t.Helper()
	cg := m.g.Compact()
	cold, err := FromEdgesStable(m.g.NumNodes(), m.edges)
	if err != nil {
		t.Fatalf("%s: cold build: %v", m.name, err)
	}
	switch {
	case cg.ov != nil:
		t.Fatalf("%s: compaction kept an overlay", m.name)
	case cg.n != cold.n:
		t.Fatalf("%s: compaction has %d nodes, cold %d", m.name, cg.n, cold.n)
	case !slices.Equal(cg.offsets, cold.offsets):
		t.Fatalf("%s: compacted offsets differ from the cold build's", m.name)
	case !slices.Equal(cg.targets, cold.targets) || !slices.Equal(cg.probs, cold.probs):
		t.Fatalf("%s: compacted rows differ from the cold build's", m.name)
	case !slices.Equal(cg.inDeg, cold.inDeg):
		t.Fatalf("%s: compacted in-degrees differ from the cold build's", m.name)
	case (cg.eid == nil) != (cold.eid == nil) || !slices.Equal(cg.eid, cold.eid):
		t.Fatalf("%s: compacted coin keys %v, cold %v", m.name, cg.eid, cold.eid)
	case !slices.Equal(cg.keyProbs, cold.keyProbs) || !slices.Equal(cg.keyTargets, cold.keyTargets):
		t.Fatalf("%s: compacted key-indexed views differ from the cold build's", m.name)
	}
}

// lineageBatch draws a batch of fresh arcs for m: sources lean on the hub
// (node 0) and on a few rows that keep gaining edges; targets are uniform,
// or the in-hub (node 1); one batch in eight grows the node set. Tied
// probabilities exercise the target tie-break of the merge.
func lineageBatch(r *rand.Rand, m member) []Edge {
	taken := map[[2]int32]bool{}
	for _, e := range m.edges {
		taken[[2]int32{e.From, e.To}] = true
	}
	n := int32(m.g.NumNodes())
	var batch []Edge
	if r.Intn(8) == 0 {
		n += 1 + int32(r.Intn(pageSize+3))
		batch = append(batch, Edge{From: int32(r.Intn(int(n - 1))), To: n - 1, P: 0.5})
	}
	for len(batch) < 1+r.Intn(12) {
		var from, to int32
		switch x := r.Intn(10); {
		case x < 3:
			from = 0
		case x < 6:
			from = 2 + int32(r.Intn(4))
		default:
			from = int32(r.Intn(int(n)))
		}
		if r.Intn(5) == 0 {
			to = 1
		} else {
			to = int32(r.Intn(int(n)))
		}
		if from == to || taken[[2]int32{from, to}] {
			continue
		}
		taken[[2]int32{from, to}] = true
		batch = append(batch, Edge{From: from, To: to, P: float64(1+r.Intn(8)) / 8})
	}
	return batch
}

// TestWithEdgesLineageProperty runs random WithEdges chains and checks every
// graph of them against a cold FromEdgesStable build of its own lineage
// (checkCold). The chains cover hub rows and rows that gain edges over many
// batches, node growth past page boundaries, a Compact in the middle, and
// batches carrying a duplicate — within the batch or against an existing
// edge — which must be rejected, leaving the receiver as it was. Every
// member's compaction must equal its cold build field for field
// (checkCompact). Every few
// steps a second child is appended from the same parent, a sibling: once
// the chain is done every member is checked again, so an append that wrote
// into a page it shares with its parent or a sibling fails here.
func TestWithEdgesLineageProperty(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			const n0 = 3*pageSize + 17
			var base []Edge
			taken := map[[2]int32]bool{}
			for len(base) < 900 {
				from, to := int32(r.Intn(n0)), int32(r.Intn(n0))
				if r.Intn(6) == 0 {
					from = 0 // the hub
				}
				if from == to || taken[[2]int32{from, to}] {
					continue
				}
				taken[[2]int32{from, to}] = true
				base = append(base, Edge{From: from, To: to, P: float64(1+r.Intn(8)) / 8})
			}
			g, err := FromEdges(n0, base)
			if err != nil {
				t.Fatal(err)
			}
			cur := member{name: "base", g: g, edges: g.Edges()}
			all := []member{cur}
			var rejected, siblings, compacted int
			for step := 1; step <= 40; step++ {
				batch := lineageBatch(r, cur)
				if r.Intn(6) == 0 {
					// A duplicate: of an existing edge, or of the batch's own.
					dup := cur.edges[r.Intn(len(cur.edges))]
					if r.Intn(2) == 0 {
						dup = batch[r.Intn(len(batch))]
						dup.P = 1 - dup.P/2
					}
					bad := slices.Insert(slices.Clone(batch), r.Intn(len(batch)+1), dup)
					if _, err := cur.g.WithEdges(bad); err == nil || !strings.Contains(err.Error(), "duplicate edge") {
						t.Fatalf("step %d: batch %v with duplicate %v: error %v", step, bad, dup, err)
					}
					rejected++
					checkCold(t, cur)
				}
				next := func(name string, batch []Edge) member {
					ng, err := cur.g.WithEdges(batch)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					return member{name: name, g: ng, edges: slices.Concat(cur.edges, batch)}
				}
				child := next(fmt.Sprintf("step %d", step), batch)
				checkCold(t, child)
				all = append(all, child)
				if step%4 == 0 {
					// A sibling over the same free keys, drawn for the same
					// parent and appended after the first child exists; the
					// chain goes on from either.
					sib := next(fmt.Sprintf("step %d sibling", step), lineageBatch(r, cur))
					checkCold(t, sib)
					all = append(all, sib)
					siblings++
					if r.Intn(2) == 0 {
						child = sib
					}
				}
				cur = child
				if step == 20 {
					cur = member{name: "compacted", g: cur.g.Compact(), edges: cur.edges}
					checkCold(t, cur)
					all = append(all, cur)
					compacted++
				}
			}
			for _, m := range all {
				checkCold(t, m)
				checkCompact(t, m)
				if m.g.OutDegree(0) <= 8 {
					t.Fatalf("%s: hub degree %d: the hub lookups miss long rows", m.name, m.g.OutDegree(0))
				}
			}
			if rejected == 0 || siblings == 0 || compacted == 0 || cur.g.NumNodes() == n0 {
				t.Fatalf("chain rejected %d batches, made %d siblings and %d compactions, grew to %d nodes: lengthen it",
					rejected, siblings, compacted, cur.g.NumNodes())
			}
		})
	}
}

// TestWithEdgesDuplicateCases appends batches holding duplicates to a base
// graph and to an overlay graph over it, both with a hub row of degree
// above 8, long enough that the duplicate check must search many old
// targets: a duplicate of a hub edge, two copies of one edge in a batch,
// a duplicate of a base edge and of an earlier overlay edge, and rows
// holding several duplicates, where the smallest duplicated target of the
// first bad row is named. Each append must fail with the error of a cold
// FromEdgesStable build of the same lineage and leave its receiver as it
// was.
func TestWithEdgesDuplicateCases(t *testing.T) {
	const n = 40
	var base []Edge
	for to := int32(1); to <= 20; to++ {
		base = append(base, Edge{From: 0, To: to, P: float64(to%5+1) / 8}) // the hub
	}
	for v := int32(1); v < n-1; v++ {
		base = append(base, Edge{From: v, To: v + 1, P: 0.5})
	}
	g, err := FromEdges(n, base)
	if err != nil {
		t.Fatal(err)
	}
	root := member{name: "base", g: g, edges: g.Edges()}
	first := []Edge{{From: 0, To: 30, P: 0.3}, {From: 0, To: 25, P: 0.9}, {From: 7, To: 33, P: 0.2}, {From: 5, To: 21, P: 0.4}}
	og, err := g.WithEdges(first)
	if err != nil {
		t.Fatal(err)
	}
	over := member{name: "overlay", g: og, edges: slices.Concat(root.edges, first)}
	if g.OutDegree(0) <= 8 || og.OutDegree(0) <= 8 {
		t.Fatalf("hub degrees %d and %d: not hubs", g.OutDegree(0), og.OutDegree(0))
	}
	for _, c := range []struct {
		name  string
		on    member
		batch []Edge
		want  string
	}{
		{"hub edge", root, []Edge{{0, 35, 0.1}, {0, 13, 0.7}}, "graph: duplicate edge (0,13)"},
		{"hub edge on overlay", over, []Edge{{0, 17, 0.2}, {0, 36, 0.1}}, "graph: duplicate edge (0,17)"},
		{"copies in one batch", root, []Edge{{9, 30, 0.4}, {3, 12, 0.1}, {9, 30, 0.6}}, "graph: duplicate edge (9,30)"},
		{"copies in one batch on a hub", over, []Edge{{0, 38, 0.4}, {0, 38, 0.4}}, "graph: duplicate edge (0,38)"},
		{"base edge", over, []Edge{{12, 13, 0.9}}, "graph: duplicate edge (12,13)"},
		{"earlier overlay edge", over, []Edge{{7, 33, 0.8}, {8, 2, 0.1}}, "graph: duplicate edge (7,33)"},
		{"earlier overlay edge on a hub", over, []Edge{{0, 30, 0.3}}, "graph: duplicate edge (0,30)"},
		{"several in one row", over, []Edge{{0, 39, 0.5}, {0, 25, 0.1}, {0, 39, 0.2}, {0, 11, 0.5}, {0, 4, 0.9}, {0, 30, 0.6}},
			"graph: duplicate edge (0,4)"},
		{"several rows", over, []Edge{{6, 7, 0.1}, {5, 21, 0.7}, {5, 6, 0.3}, {2, 37, 0.3}, {5, 1, 0.4}, {5, 1, 0.2}},
			"graph: duplicate edge (5,1)"},
		{"growing the node set", over, []Edge{{45, 2, 0.5}, {0, 44, 0.5}, {45, 2, 0.5}, {0, 9, 0.5}},
			"graph: duplicate edge (0,9)"},
	} {
		ng := c.on.g.NumNodes()
		for _, e := range c.batch {
			ng = max(ng, int(e.From)+1, int(e.To)+1)
		}
		_, coldErr := FromEdgesStable(ng, slices.Concat(c.on.edges, c.batch))
		if coldErr == nil || coldErr.Error() != c.want {
			t.Fatalf("%s: cold build error %v, want %q", c.name, coldErr, c.want)
		}
		if got, err := c.on.g.WithEdges(c.batch); err == nil || err.Error() != c.want {
			t.Fatalf("%s: WithEdges = %v, %v; want error %q", c.name, got != nil, err, c.want)
		}
		checkCold(t, c.on)
	}
}
