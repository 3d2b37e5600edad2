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
// and the sizes and degree statistics.
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
// their by-target index, the in-degrees, the coin-key map (nil exactly when
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
	case !slices.Equal(cg.byTarget, cold.byTarget):
		t.Fatalf("%s: compacted by-target index differs from the cold build's", m.name)
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
			}
			if rejected == 0 || siblings == 0 || compacted == 0 || cur.g.NumNodes() == n0 {
				t.Fatalf("chain rejected %d batches, made %d siblings and %d compactions, grew to %d nodes: lengthen it",
					rejected, siblings, compacted, cur.g.NumNodes())
			}
		})
	}
}
