package graph

import (
	"fmt"
	"sort"
)

// Delta overlay: edges appended after the CSR was frozen.
//
// A Graph is immutable, and the propagation engines depend on that — warm
// world caches, pooled snapshots and in-flight views all read the same
// arrays concurrently. Churn therefore never mutates a graph in place:
// WithEdges returns a NEW *Graph value that shares the frozen base CSR and
// carries the appended edges in a columnar side structure, the overlay.
// Readers holding the old value keep a consistent pre-churn view forever;
// readers of the new value see the merged graph.
//
// Layout: the overlay stores one fully merged row (targets, probs, stable
// coin keys, by-target index) per source that gained edges, plus a dense
// rowOf index mapping node id → merged row. Row lookups are one slice load
// and a branch — no hashing on the hot path — and sources untouched by
// churn fall through to the base CSR arrays unchanged. Merged rows are
// rebuilt eagerly at append time (O(row degree + batch) per churned
// source), which keeps every read path branch-cheap: OutEdges/OutRow on a
// churned source return the merged row in exactly the invariant order
// (descending probability, ties ascending target) a cold rebuild would
// store.
//
// Coin keys: appended edges take the next free keys m, m+1, … in batch
// order, where m = NumEdges() before the append. Keys of existing edges
// never change, so every already-flipped Monte-Carlo coin and every
// materialized live-edge bit keeps its identity — the whole point of the
// overlay: a new edge is one more coin per world, not a reshuffle of all
// of them. Compact folds the overlay into a fresh CSR *carrying* those
// keys (Graph.eid), so compaction is invisible to the coin layer.
type overlay struct {
	baseN int // nodes covered by the base CSR (len(offsets)-1)
	extra int // appended edges across the lineage (beyond the base arrays)
	// rowOf[v] indexes rows, or -1 when v kept its base row. len == n.
	// Rows are held by pointer, so an append copies one word per prior
	// row rather than its four slice headers.
	rowOf []int32
	rows  []*mergedRow

	// Key-indexed views, split so an append never copies them: the base
	// prefix (keys [0, len(baseKP))) is immutable and SHARED across the
	// whole lineage, while the tail (keys len(baseKP)…m-1, in key order)
	// covers only the appended edges and is copied per append — O(batch),
	// not O(total edges). They are only ever read in this split form
	// (KeyViewParts): the reverse CSR carries its own aligned
	// probabilities, and the live-edge substrate indexes the two parts.
	baseKP []float64
	baseKT []int32
	tailKP []float64
	tailKT []int32
}

// mergedRow is one churned source's full out-row: base edges and appended
// edges merged in the adjacency invariant order, with per-edge stable coin
// keys and the by-target lookup index findRank expects.
type mergedRow struct {
	targets  []int32
	probs    []float64
	keys     []int32
	byTarget []int32
}

// row returns v's merged row, or nil when v kept its base row.
func (ov *overlay) row(v int32) *mergedRow {
	if i := ov.rowOf[v]; i >= 0 {
		return ov.rows[i]
	}
	return nil
}

// HasOverlay reports whether the graph carries a live delta overlay.
func (g *Graph) HasOverlay() bool { return g.ov != nil }

// OverlayEdges returns the number of appended edges not yet compacted into
// the CSR — the quantity compaction policies threshold on.
func (g *Graph) OverlayEdges() int {
	if g.ov != nil {
		return g.ov.extra
	}
	return 0
}

// WithEdges returns a new graph extending the receiver with the given
// edges. The receiver is not modified and remains fully usable. Appended
// edges are assigned the next free coin keys (NumEdges(), NumEdges()+1, …)
// in batch order; existing edges keep their keys, probabilities and
// positions, so substrates and caches built on the receiver can be patched
// instead of rebuilt. Endpoints beyond the current node count grow the node
// set (the new ids in between are isolated). Duplicate arcs — within the
// batch or against existing edges — are rejected, as are probabilities
// outside [0,1].
func (g *Graph) WithEdges(batch []Edge) (*Graph, error) {
	if len(batch) == 0 {
		return g, nil
	}
	m := g.NumEdges()
	if m+len(batch) > MaxEdges {
		return nil, fmt.Errorf("graph: %d edges exceed the int32 CSR cap %d", m+len(batch), MaxEdges)
	}
	n2 := g.n
	for _, e := range batch {
		if e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has a negative endpoint", e.From, e.To)
		}
		if e.P < 0 || e.P > 1 || e.P != e.P {
			return nil, fmt.Errorf("graph: edge (%d,%d) probability %v outside [0,1]", e.From, e.To, e.P)
		}
		if int(e.From) >= n2 {
			n2 = int(e.From) + 1
		}
		if int(e.To) >= n2 {
			n2 = int(e.To) + 1
		}
	}

	ng := &Graph{
		n:        n2,
		offsets:  g.offsets,
		targets:  g.targets,
		probs:    g.probs,
		byTarget: g.byTarget,
		eid:      g.eid,
	}

	// In-degrees: copy-on-write, extended to the grown node set.
	ind := make([]int32, n2)
	copy(ind, g.inDeg)
	for _, e := range batch {
		ind[e.To]++
	}
	ng.inDeg = ind

	// Overlay: clone the row index, share prior merged rows (immutable once
	// built), rebuild the rows of sources this batch touches.
	ov := &overlay{extra: len(batch)}
	var rows []*mergedRow
	if g.ov != nil {
		ov.baseN = g.ov.baseN
		ov.extra += g.ov.extra
		ov.rowOf = make([]int32, n2)
		copy(ov.rowOf, g.ov.rowOf)
		for i := len(g.ov.rowOf); i < n2; i++ {
			ov.rowOf[i] = -1
		}
		rows = append(rows, g.ov.rows...)
	} else {
		ov.baseN = g.n
		ov.rowOf = make([]int32, n2)
		for i := range ov.rowOf {
			ov.rowOf[i] = -1
		}
	}

	// Key-indexed views: share the lineage's immutable base prefix, copy
	// the parent's tail (branching lineages off one parent can never
	// scribble on each other's tails — each child owns its own tail array)
	// and append the batch in key order. The tail is bounded by the
	// compaction trigger, so this is O(batch + overlay), never O(edges).
	var prevTP []float64
	var prevTT []int32
	if g.ov != nil {
		ov.baseKP, ov.baseKT = g.ov.baseKP, g.ov.baseKT
		prevTP, prevTT = g.ov.tailKP, g.ov.tailKT
	} else {
		ov.baseKP, ov.baseKT = g.KeyProbs(), g.KeyTargets()
	}
	tp := make([]float64, len(prevTP), len(prevTP)+len(batch))
	copy(tp, prevTP)
	tt := make([]int32, len(prevTT), len(prevTT)+len(batch))
	copy(tt, prevTT)
	for _, e := range batch {
		tp = append(tp, e.P)
		tt = append(tt, e.To)
	}
	ov.tailKP, ov.tailKT = tp, tt

	// Group batch positions by source, preserving batch order so key
	// assignment (m + batch position) is deterministic.
	bySrc := make(map[int32][]int32)
	for i, e := range batch {
		bySrc[e.From] = append(bySrc[e.From], int32(i))
	}
	srcs := make([]int32, 0, len(bySrc))
	for s := range bySrc {
		srcs = append(srcs, s)
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
	for _, s := range srcs {
		add := bySrc[s]
		var oldT []int32
		var oldP []float64
		var oldK []int32
		var oldBase int64
		if int(s) < g.n {
			oldT, oldP, oldK, oldBase = g.OutRow(s)
		}
		deg := len(oldT) + len(add)
		row := mergedRow{
			targets: make([]int32, 0, deg),
			probs:   make([]float64, 0, deg),
			keys:    make([]int32, 0, deg),
		}
		for j := range oldT {
			row.targets = append(row.targets, oldT[j])
			row.probs = append(row.probs, oldP[j])
			if oldK != nil {
				row.keys = append(row.keys, oldK[j])
			} else {
				row.keys = append(row.keys, int32(oldBase)+int32(j))
			}
		}
		for _, bi := range add {
			e := batch[bi]
			row.targets = append(row.targets, e.To)
			row.probs = append(row.probs, e.P)
			row.keys = append(row.keys, int32(m)+bi)
		}
		sort.Sort(adjSorter{targets: row.targets, probs: row.probs, keys: row.keys})
		bt, err := buildRowIndex(s, row.targets)
		if err != nil {
			return nil, err
		}
		row.byTarget = bt
		ov.rowOf[s] = int32(len(rows))
		rows = append(rows, &row)
	}
	ov.rows = rows
	ng.ov = ov
	return ng, nil
}

// KeyViewParts returns the key-indexed views in their split form — the
// immutable base prefix shared across a WithEdges lineage plus the overlay
// tail: key k reads baseP[k] when k < len(baseP) and tailP[k-len(baseP)]
// otherwise. On graphs without an overlay the tail is empty and the prefix
// covers every key. This is the accessor the live-edge substrate extends
// through, which is what keeps appending a churn batch O(batch), not
// O(edges).
func (g *Graph) KeyViewParts() (baseP []float64, baseT []int32, tailP []float64, tailT []int32) {
	if g.ov != nil {
		return g.ov.baseKP, g.ov.baseKT, g.ov.tailKP, g.ov.tailKT
	}
	return g.KeyProbs(), g.KeyTargets(), nil, nil
}

// buildRowIndex builds the ascending-target lookup index over one row and
// rejects duplicate targets (adjacent in target order).
func buildRowIndex(src int32, targets []int32) ([]int32, error) {
	bt := make([]int32, len(targets))
	for i := range bt {
		bt[i] = int32(i)
	}
	sort.Slice(bt, func(i, j int) bool { return targets[bt[i]] < targets[bt[j]] })
	for i := 1; i < len(bt); i++ {
		if targets[bt[i]] == targets[bt[i-1]] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", src, targets[bt[i]])
		}
	}
	return bt, nil
}

// Compact folds the delta overlay into a fresh immutable CSR via the
// StreamBuilder, carrying every edge's stable coin key (Graph.eid) so the
// compaction is invisible to coin flips, live-edge rows and world caches:
// the compacted graph is bit-for-bit the same probability space as the
// overlay graph it replaces. Graphs without an overlay are returned as-is.
func (g *Graph) Compact() (*Graph, error) {
	if g.ov == nil {
		return g, nil
	}
	sb := NewStreamBuilder(g.n)
	for v := int32(0); v < int32(g.n); v++ {
		ts, ps, ks, kb := g.OutRow(v)
		for j := range ts {
			k := int32(kb) + int32(j)
			if ks != nil {
				k = ks[j]
			}
			if err := sb.AddKeyedProb(v, ts[j], ps[j], k); err != nil {
				return nil, err
			}
		}
	}
	ng, _, err := sb.Build(DupError, nil)
	return ng, err
}

// FromEdgesStable constructs a Graph whose coin keys follow the INPUT
// order: edges[i] gets key i, regardless of where row sorting places it in
// the CSR. This is the cold-rebuild counterpart of a WithEdges lineage —
// feeding the base graph's edges in CSR order followed by the appended
// batches reproduces the lineage's key assignment exactly, which is what
// makes incremental-vs-cold comparisons bit-exact. When the input already
// is in CSR invariant order the key map degenerates to the identity and is
// dropped, making the result indistinguishable from FromEdges.
func FromEdgesStable(n int, edges []Edge) (*Graph, error) {
	sb := NewStreamBuilder(n)
	for i, e := range edges {
		if err := sb.AddKeyedProb(e.From, e.To, e.P, int32(i)); err != nil {
			return nil, err
		}
	}
	g, _, err := sb.Build(DupError, nil)
	return g, err
}
