package graph

import (
	"reflect"
	"slices"
	"testing"
)

// rowKeys materializes v's coin keys from OutRow regardless of encoding.
func rowKeys(g *Graph, v int32) []int32 {
	ts, _, ks, kb := g.OutRow(v)
	out := make([]int32, len(ts))
	for j := range ts {
		if ks != nil {
			out[j] = ks[j]
		} else {
			out[j] = int32(kb) + int32(j)
		}
	}
	return out
}

// flatKeyViews concatenates g's split key-indexed views into flat
// key → probability and key → target arrays.
func flatKeyViews(g *Graph) ([]float64, []int32) {
	bp, bt, tail := g.KeyViewParts()
	kp, kt := slices.Clone(bp), slices.Clone(bt)
	for i := 0; i < tail.Len(); i++ {
		kp, kt = append(kp, tail.Prob(i)), append(kt, tail.Target(i))
	}
	return kp, kt
}

func baseTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(5, []Edge{
		{0, 1, 0.9}, {0, 2, 0.5}, {0, 3, 0.5}, // row 0: ties broken by target
		{1, 2, 0.3},
		{2, 0, 0.7}, {2, 3, 0.2},
		{3, 4, 0.6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWithEdgesMatchesColdMergeTopology(t *testing.T) {
	g := baseTestGraph(t)
	batch := []Edge{{0, 4, 0.8}, {4, 1, 0.4}, {2, 1, 0.2}}
	og, err := g.WithEdges(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !og.HasOverlay() || og.OverlayEdges() != len(batch) {
		t.Fatalf("overlay edges = %d, want %d", og.OverlayEdges(), len(batch))
	}
	cold, err := FromEdges(5, append(g.Edges(), batch...))
	if err != nil {
		t.Fatal(err)
	}
	if og.NumNodes() != cold.NumNodes() || og.NumEdges() != cold.NumEdges() {
		t.Fatalf("size mismatch: overlay %d/%d cold %d/%d",
			og.NumNodes(), og.NumEdges(), cold.NumNodes(), cold.NumEdges())
	}
	for v := int32(0); v < int32(cold.NumNodes()); v++ {
		wt, wp := cold.OutEdges(v)
		gt, gp := og.OutEdges(v)
		if !reflect.DeepEqual(append([]int32{}, wt...), append([]int32{}, gt...)) ||
			!reflect.DeepEqual(append([]float64{}, wp...), append([]float64{}, gp...)) {
			t.Fatalf("row %d: overlay (%v,%v) cold (%v,%v)", v, gt, gp, wt, wp)
		}
		if og.OutDegree(v) != cold.OutDegree(v) || og.InDegree(v) != cold.InDegree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
		ws, _, _ := cold.InEdges(v)
		gs, _, _ := og.InEdges(v)
		if !reflect.DeepEqual(append([]int32{}, ws...), append([]int32{}, gs...)) {
			t.Fatalf("in-row %d: overlay %v cold %v", v, gs, ws)
		}
	}
	for _, e := range append(g.Edges(), batch...) {
		p, ok := og.EdgeProb(e.From, e.To)
		if !ok || p != e.P {
			t.Fatalf("EdgeProb(%d,%d) = %v,%v want %v", e.From, e.To, p, ok, e.P)
		}
		if og.NeighborRank(e.From, e.To) != cold.NeighborRank(e.From, e.To) {
			t.Fatalf("NeighborRank(%d,%d) mismatch", e.From, e.To)
		}
	}
	if _, ok := og.EdgeProb(4, 0); ok {
		t.Fatal("phantom edge (4,0)")
	}
}

func TestWithEdgesKeysStableAndAppended(t *testing.T) {
	g := baseTestGraph(t)
	m := int32(g.NumEdges())
	baseKeys := map[[2]int32]int32{}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		ts, _ := g.OutEdges(v)
		ks := rowKeys(g, v)
		for j, to := range ts {
			baseKeys[[2]int32{v, to}] = ks[j]
		}
	}
	batch := []Edge{{0, 4, 0.8}, {4, 1, 0.4}, {2, 1, 0.2}}
	og, err := g.WithEdges(batch)
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]int32]int32{}
	for v := int32(0); v < int32(og.NumNodes()); v++ {
		ts, _ := og.OutEdges(v)
		ks := rowKeys(og, v)
		for j, to := range ts {
			got[[2]int32{v, to}] = ks[j]
		}
	}
	for e, k := range baseKeys {
		if got[e] != k {
			t.Fatalf("base edge %v key changed: %d -> %d", e, k, got[e])
		}
	}
	for i, e := range batch {
		if got[[2]int32{e.From, e.To}] != m+int32(i) {
			t.Fatalf("appended edge %v key = %d, want %d", e, got[[2]int32{e.From, e.To}], m+int32(i))
		}
	}
	// The key views are consistent with the per-row view, including via
	// InEdges.
	kp, kt := flatKeyViews(og)
	for v := int32(0); v < int32(og.NumNodes()); v++ {
		_, ps := og.OutEdges(v)
		ks := rowKeys(og, v)
		for j := range ks {
			if kp[ks[j]] != ps[j] {
				t.Fatalf("KeyProbs[%d] = %v, want %v", ks[j], kp[ks[j]], ps[j])
			}
		}
		srcs, eks, _ := og.InEdges(v)
		for i := range srcs {
			p, ok := og.EdgeProb(srcs[i], v)
			if !ok || kp[eks[i]] != p {
				t.Fatalf("in-edge key %d of node %d: KeyProbs %v want %v", eks[i], v, kp[eks[i]], p)
			}
		}
	}
	for e, k := range got {
		if kt[k] != e[1] {
			t.Fatalf("KeyTargets[%d] = %d, want %d", k, kt[k], e[1])
		}
	}
}

func TestCompactCarriesKeysAndMatchesStableRebuild(t *testing.T) {
	g := baseTestGraph(t)
	b1 := []Edge{{0, 4, 0.8}, {4, 1, 0.4}}
	b2 := []Edge{{2, 1, 0.2}, {1, 0, 0.95}}
	og, err := g.WithEdges(b1)
	if err != nil {
		t.Fatal(err)
	}
	og, err = og.WithEdges(b2)
	if err != nil {
		t.Fatal(err)
	}
	cg := og.Compact()
	if cg.HasOverlay() {
		t.Fatal("compacted graph still has an overlay")
	}
	// The cold-rebuild counterpart: base edges in CSR order, then batches.
	lineage := append(append(g.Edges(), b1...), b2...)
	stable, err := FromEdgesStable(g.NumNodes(), lineage)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*Graph{cg, stable} {
		if h.NumNodes() != og.NumNodes() || h.NumEdges() != og.NumEdges() {
			t.Fatal("size drift after compaction")
		}
		for v := int32(0); v < int32(og.NumNodes()); v++ {
			wt, wp := og.OutEdges(v)
			ht, hp := h.OutEdges(v)
			if !reflect.DeepEqual(append([]int32{}, wt...), append([]int32{}, ht...)) ||
				!reflect.DeepEqual(append([]float64{}, wp...), append([]float64{}, hp...)) {
				t.Fatalf("row %d drift after compaction", v)
			}
			if !reflect.DeepEqual(rowKeys(og, v), rowKeys(h, v)) {
				t.Fatalf("row %d keys drift: overlay %v compacted %v", v, rowKeys(og, v), rowKeys(h, v))
			}
		}
		okp, okt := flatKeyViews(og)
		if !reflect.DeepEqual(okp, h.KeyProbs()) {
			t.Fatal("KeyProbs drift after compaction")
		}
		if !reflect.DeepEqual(okt, h.KeyTargets()) {
			t.Fatal("KeyTargets drift after compaction")
		}
	}
}

// TestKeyViewPartsMatchFlatViews pins the split key-view contract the
// live-edge substrate extends through: base prefix + tail concatenate to
// exactly the flat arrays of the lineage's compaction, and the prefix is
// shared (not copied) across the whole WithEdges lineage.
func TestKeyViewPartsMatchFlatViews(t *testing.T) {
	g := baseTestGraph(t)
	o1, err := g.WithEdges([]Edge{{0, 4, 0.8}, {4, 1, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := o1.WithEdges([]Edge{{2, 1, 0.2}, {1, 0, 0.95}})
	if err != nil {
		t.Fatal(err)
	}
	p1, t1, _ := o1.KeyViewParts()
	p2, t2, tail2 := o2.KeyViewParts()
	if &p1[0] != &p2[0] || &t1[0] != &t2[0] {
		t.Fatal("lineage members do not share the base key-view prefix")
	}
	if tail2.Len() != o2.OverlayEdges() {
		t.Fatalf("tail covers %d keys, want %d", tail2.Len(), o2.OverlayEdges())
	}
	cg := o2.Compact()
	kp, kt := cg.KeyProbs(), cg.KeyTargets()
	if len(kp) != o2.NumEdges() || len(kt) != o2.NumEdges() {
		t.Fatalf("flat views cover %d/%d keys, want %d", len(kp), len(kt), o2.NumEdges())
	}
	for k := range kp {
		var wantP float64
		var wantT int32
		if k < len(p2) {
			wantP, wantT = p2[k], t2[k]
		} else {
			wantP, wantT = tail2.Prob(k-len(p2)), tail2.Target(k-len(p2))
		}
		if kp[k] != wantP || kt[k] != wantT {
			t.Fatalf("key %d: flat (%v,%d), parts (%v,%d)", k, kp[k], kt[k], wantP, wantT)
		}
	}
}

func TestWithEdgesNodeGrowth(t *testing.T) {
	g := baseTestGraph(t)
	og, err := g.WithEdges([]Edge{{1, 7, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if og.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", og.NumNodes())
	}
	if og.OutDegree(6) != 0 || og.InDegree(6) != 0 {
		t.Fatal("gap node 6 not isolated")
	}
	if og.InDegree(7) != 1 || og.OutDegree(7) != 0 {
		t.Fatal("grown node 7 wrong degrees")
	}
	if d := og.OutDegree(1); d != 2 {
		t.Fatalf("OutDegree(1) = %d, want 2", d)
	}
	og2, err := og.WithEdges([]Edge{{7, 0, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	ts, ps := og2.OutEdges(7)
	if len(ts) != 1 || ts[0] != 0 || ps[0] != 0.25 {
		t.Fatalf("new-node row = (%v,%v)", ts, ps)
	}
	if cg := og2.Compact(); cg.HasOverlay() || cg.NumNodes() != og2.NumNodes() {
		t.Fatalf("compaction: overlay %v, %d nodes, want none and %d", cg.HasOverlay(), cg.NumNodes(), og2.NumNodes())
	}
}

func TestWithEdgesRejectsBadInput(t *testing.T) {
	g := baseTestGraph(t)
	if _, err := g.WithEdges([]Edge{{0, 1, 0.5}}); err == nil {
		t.Fatal("duplicate against base accepted")
	}
	if _, err := g.WithEdges([]Edge{{0, 4, 0.5}, {0, 4, 0.6}}); err == nil {
		t.Fatal("duplicate within batch accepted")
	}
	if _, err := g.WithEdges([]Edge{{0, 4, 1.5}}); err == nil {
		t.Fatal("out-of-range probability accepted")
	}
	if _, err := g.WithEdges([]Edge{{-1, 4, 0.5}}); err == nil {
		t.Fatal("negative endpoint accepted")
	}
	og, err := g.WithEdges([]Edge{{0, 4, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := og.WithEdges([]Edge{{0, 4, 0.5}}); err == nil {
		t.Fatal("duplicate against overlay accepted")
	}
	// The receiver survived all of it.
	if g.HasOverlay() || g.NumEdges() != 7 {
		t.Fatal("receiver mutated")
	}
}

func TestFromEdgesStableIdentityOrderDropsKeyMap(t *testing.T) {
	g := baseTestGraph(t)
	stable, err := FromEdgesStable(g.NumNodes(), g.Edges()) // already CSR order
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		_, _, ks, _ := stable.OutRow(v)
		if ks != nil {
			t.Fatal("identity-order stable build kept a key map")
		}
	}
	// Out-of-order input keeps input-order keys.
	edges := []Edge{{0, 2, 0.1}, {0, 1, 0.9}}
	stable2, err := FromEdgesStable(3, edges)
	if err != nil {
		t.Fatal(err)
	}
	ks := rowKeys(stable2, 0)
	ts, _ := stable2.OutEdges(0)
	if ts[0] != 1 || ks[0] != 1 || ts[1] != 2 || ks[1] != 0 {
		t.Fatalf("stable keys wrong: targets %v keys %v", ts, ks)
	}
}

func TestOverlayTransformsCompactFirst(t *testing.T) {
	g := baseTestGraph(t)
	og, err := g.WithEdges([]Edge{{1, 3, 0.9}, {0, 4, 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	capped := og.CapInWeights()
	if capped.HasOverlay() {
		t.Fatal("CapInWeights left an overlay")
	}
	sums := make([]float64, capped.NumNodes())
	for v := int32(0); v < int32(capped.NumNodes()); v++ {
		ts, ps := capped.OutEdges(v)
		for i := range ts {
			sums[ts[i]] += ps[i]
		}
	}
	for v, s := range sums {
		if s > 1+1e-12 {
			t.Fatalf("in-weights of %d sum to %v after CapInWeights", v, s)
		}
	}
	rw, err := og.Reweight(func(_, _ int32, p float64) float64 { return p / 2 })
	if err != nil {
		t.Fatal(err)
	}
	if rw.HasOverlay() {
		t.Fatal("Reweight left an overlay")
	}
	if rw.NumEdges() != og.NumEdges() {
		t.Fatal("Reweight dropped edges")
	}
	// Keys follow the edges through the re-sort.
	kt := rw.KeyTargets()
	for v := int32(0); v < int32(rw.NumNodes()); v++ {
		ts, _ := rw.OutEdges(v)
		ks := rowKeys(rw, v)
		for j := range ts {
			if kt[ks[j]] != ts[j] {
				t.Fatalf("Reweight broke key %d", ks[j])
			}
		}
	}
	padded, err := og.PadNodes(12)
	if err != nil {
		t.Fatal(err)
	}
	if padded.NumNodes() != 12 || padded.NumEdges() != og.NumEdges() {
		t.Fatal("PadNodes on overlay graph wrong shape")
	}
}

func TestStreamBuilderKeyedValidation(t *testing.T) {
	sb := NewStreamBuilder(3)
	if err := sb.AddKeyedProb(0, 1, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	if err := sb.Add(1, 2); err == nil {
		t.Fatal("mixed keyed/unkeyed accepted")
	}
	if err := sb.AddKeyedProb(1, 2, 0.5, 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sb.Build(DupError, nil); err == nil {
		t.Fatal("non-permutation keys accepted")
	}

	sb = NewStreamBuilder(3)
	_ = sb.AddKeyedProb(0, 1, 0.5, 0)
	_ = sb.AddKeyedProb(1, 2, 0.5, 1)
	if _, _, err := sb.Build(DupKeepFirst, nil); err == nil {
		t.Fatal("keyed DupKeepFirst accepted")
	}

	sb = NewStreamBuilder(3)
	if err := sb.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sb.AddKeyedProb(1, 2, 0.5, 0); err == nil {
		t.Fatal("keyed after unkeyed accepted")
	}
}

func TestDynamicGraphGuards(t *testing.T) {
	g := baseTestGraph(t)
	og, err := g.WithEdges([]Edge{{0, 4, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	for name, fn := range map[string]func(){
		"CSR":           func() { og.CSR() },
		"Probs":         func() { og.Probs() },
		"KeyProbs":      func() { og.KeyProbs() },
		"KeyTargets":    func() { og.KeyTargets() },
		"EdgeIndexBase": func() { og.EdgeIndexBase(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on overlay graph did not panic", name)
				}
			}()
			fn()
		}()
	}
}
