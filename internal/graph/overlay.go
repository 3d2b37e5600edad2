package graph

import (
	"cmp"
	"fmt"
	"slices"
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
// coin keys) per source that gained edges, reached through
// copy-on-write pages of row pointers: node v's row is entry v%pageSize of
// page v/pageSize, and a nil page or entry means v kept its base row. Row
// lookups are two loads and a branch — no hashing on the hot path — and
// sources untouched by churn fall through to the base CSR arrays
// unchanged. In-degrees live in pages of the same shape over the base
// in-degree array. An append copies the page tables and the pages it
// writes, never an n-sized array, so it costs the batch, the rows it
// churns and n/pageSize table words.
//
// Merged rows are rebuilt at append time by merging the batch's few edges
// of the source, sorted on their own, into the old row, which is already in
// the invariant order (descending probability, ties ascending target): one
// O(row degree) pass builds the row. Duplicates are caught before it by
// looking each old target up among the source's sorted batch targets.
// OutEdges and OutRow on a churned source return the merged row exactly as
// a cold rebuild would store it.
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
	// rows[v>>pageBits][v&pageMask] is v's merged row, or nil (in a nil
	// page too) when v kept its base row; inDeg is v's in-degree the same
	// way, a nil page reading the base array (0 past it). Both tables cover
	// every node. Pages are immutable once their append returns, so
	// lineage members share every page neither of them wrote.
	rows  pageTable[*mergedRow]
	inDeg pageTable[int32]

	// Key-indexed views, split so an append never copies them: the base
	// prefix (keys [0, len(baseKP))) is immutable and SHARED across the
	// whole lineage, while the tail covers the appended edges in key order,
	// in append-only pages of its own. They are only ever read in this
	// split form (KeyViewParts): the reverse CSR carries its own aligned
	// probabilities, and the live-edge substrate indexes the two parts.
	baseKP []float64
	baseKT []int32
	tail   KeyTail
}

// mergedRow is one churned source's full out-row: base edges and appended
// edges merged in the adjacency invariant order, with per-edge stable coin
// keys.
type mergedRow struct {
	targets []int32
	probs   []float64
	keys    []int32
}

// The overlay's copy-on-write arrays — merged-row pointers, in-degrees and
// the key-view tail — are split into pages of pageSize entries. An append
// copies one table word per page and every page it writes, so the size
// trades the two: at 64 a written row page is 512 bytes and a table costs
// an eighth of a byte per node.
const (
	pageBits = 6
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// pageTable is a copy-on-write array in pages of pageSize entries; a nil
// page stands for entries its owner reads elsewhere (the base CSR).
type pageTable[T any] []*[pageSize]T

// grown returns a copy of the table covering n entries. The pages are
// shared with t until written through writable.
func (t pageTable[T]) grown(n int) pageTable[T] {
	nt := make(pageTable[T], (n+pageMask)>>pageBits)
	copy(nt, t)
	return nt
}

// writable returns v's page of t, a table grown from parent, ready for
// writing: the first write of an append copies the page from parent's (or
// makes it with init, over the entries from lo on, when the page was nil),
// later writes of the same append find the copy in place. parent's pages
// are never written.
func (t pageTable[T]) writable(parent pageTable[T], v int32, init func(p *[pageSize]T, lo int32)) *[pageSize]T {
	i := v >> pageBits
	p := t[i]
	if p != nil && (int(i) >= len(parent) || p != parent[i]) {
		return p // made by this append
	}
	np := new([pageSize]T)
	switch {
	case p != nil:
		*np = *p
	case init != nil:
		init(np, i<<pageBits)
	}
	t[i] = np
	return np
}

// row returns v's merged row, or nil when v kept its base row.
func (ov *overlay) row(v int32) *mergedRow {
	if p := ov.rows[v>>pageBits]; p != nil {
		return p[v&pageMask]
	}
	return nil
}

// KeyTail is the overlay part of a graph's key-indexed views: the
// probability and target of the appended edges, the tail's entry i holding
// key len(baseP)+i of KeyViewParts. It is stored in append-only pages
// shared along a WithEdges lineage: an append copies the page table and the
// last, partial page before writing past it, so members appended from one
// parent never write to each other's entries. The zero value is empty.
type KeyTail struct {
	n     int
	probs []*[pageSize]float64
	tgts  []*[pageSize]int32
}

// Len returns the number of keys the tail covers.
func (t *KeyTail) Len() int { return t.n }

// Prob returns the probability of tail entry i.
func (t *KeyTail) Prob(i int) float64 { return t.probs[i>>pageBits][i&pageMask] }

// Target returns the target node of tail entry i.
func (t *KeyTail) Target(i int) int32 { return t.tgts[i>>pageBits][i&pageMask] }

// appended returns the tail extended by batch, in batch order. t is left
// as it was: its full pages are shared, its partial last page is copied.
func (t *KeyTail) appended(batch []Edge) KeyTail {
	n := t.n + len(batch)
	pages := (n + pageMask) >> pageBits
	nt := KeyTail{n: n, probs: make([]*[pageSize]float64, pages), tgts: make([]*[pageSize]int32, pages)}
	copy(nt.probs, t.probs)
	copy(nt.tgts, t.tgts)
	if t.n&pageMask != 0 {
		last := t.n >> pageBits
		p, q := *t.probs[last], *t.tgts[last]
		nt.probs[last], nt.tgts[last] = &p, &q
	}
	for j, e := range batch {
		i := t.n + j
		if i&pageMask == 0 {
			nt.probs[i>>pageBits], nt.tgts[i>>pageBits] = new([pageSize]float64), new([pageSize]int32)
		}
		nt.probs[i>>pageBits][i&pageMask] = e.P
		nt.tgts[i>>pageBits][i&pageMask] = e.To
	}
	return nt
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
//
// The cost is O(batch log batch) plus, per churned source, its row degree
// (times the log of its batch edges, for the duplicate check), plus the
// page tables and the pages the batch writes: nothing of size n.
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

	// The base CSR, its in-degrees and the key-view prefix are shared
	// with the whole lineage.
	ng := &Graph{
		n:       n2,
		offsets: g.offsets,
		targets: g.targets,
		probs:   g.probs,
		eid:     g.eid,
		inDeg:   g.inDeg,
	}
	ov := &overlay{extra: len(batch)}
	var parent overlay
	if g.ov != nil {
		parent = *g.ov
		ov.baseN = parent.baseN
		ov.extra += parent.extra
		ov.baseKP, ov.baseKT = parent.baseKP, parent.baseKT
	} else {
		ov.baseN = g.n
		ov.baseKP, ov.baseKT = g.KeyProbs(), g.KeyTargets()
	}
	ov.rows = parent.rows.grown(n2)
	ov.inDeg = parent.inDeg.grown(n2)
	ov.tail = parent.tail.appended(batch)

	// In-degrees: a page the batch first writes starts from the base
	// array, which every node of a nil page still reads.
	baseDeg := g.inDeg
	fromBase := func(p *[pageSize]int32, lo int32) {
		if int(lo) < len(baseDeg) {
			copy(p[:], baseDeg[lo:])
		}
	}
	for _, e := range batch {
		ov.inDeg.writable(parent.inDeg, e.To, fromBase)[e.To&pageMask]++
	}

	// Batch positions by source, each source's run in adjacency order, so
	// every run merges straight into its source's old row; key assignment
	// (m + batch position) follows batch order whatever the sort does.
	order := make([]int32, 2*len(batch))
	tgts := order[len(batch):]
	order = order[:len(batch)]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		x, y := &batch[a], &batch[b]
		if x.From != y.From {
			return cmp.Compare(x.From, y.From)
		}
		return adjCompare(x.P, x.To, y.P, y.To)
	})
	for lo := 0; lo < len(order); {
		s := batch[order[lo]].From
		hi := lo + 1
		for hi < len(order) && batch[order[hi]].From == s {
			hi++
		}
		row, err := g.mergeRow(s, batch, order[lo:hi], int32(m), tgts[lo:hi])
		if err != nil {
			return nil, err
		}
		ov.rows.writable(parent.rows, s, nil)[s&pageMask] = row
		lo = hi
	}
	ng.ov = ov
	return ng, nil
}

// adjCompare orders two edges of one row by the adjacency invariant:
// descending probability, ties by ascending target.
func adjCompare(p1 float64, t1 int32, p2 float64, t2 int32) int {
	switch {
	case p1 > p2:
		return -1
	case p1 < p2:
		return 1
	}
	return cmp.Compare(t1, t2)
}

// mergeRow returns source s's out-row with the batch edges at positions add
// — in adjacency order, keys m+position — merged into its current row, and
// rejects a target the row would hold twice, naming the smallest. tgts is
// scratch of len(add). The old row is in the invariant order already, so
// one merge, linear in the row degree, places every edge — against the
// O(deg log deg) re-sort of a cold row. The old row holds no duplicate of
// its own, so a duplicate is two equal batch targets, adjacent once sorted,
// or an old target found among them by binary search.
func (g *Graph) mergeRow(s int32, batch []Edge, add []int32, m int32, tgts []int32) (*mergedRow, error) {
	var oldT, oldK []int32
	var oldP []float64
	var kb int64
	if int(s) < g.n {
		oldT, oldP, oldK, kb = g.OutRow(s)
	}
	for i, a := range add {
		tgts[i] = batch[a].To
	}
	slices.Sort(tgts)
	dup := int32(-1)
	for i := 1; i < len(tgts) && dup < 0; i++ {
		if tgts[i] == tgts[i-1] {
			dup = tgts[i]
		}
	}
	for _, t := range oldT {
		if dup < 0 || t < dup {
			if _, ok := slices.BinarySearch(tgts, t); ok {
				dup = t
			}
		}
	}
	if dup >= 0 {
		return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", s, dup)
	}
	d, k := len(oldT), len(add)
	deg := d + k
	ints := make([]int32, 2*deg)
	row := &mergedRow{
		targets: ints[:deg:deg],
		keys:    ints[deg:],
		probs:   make([]float64, deg),
	}
	for p, i, j := 0, 0, 0; p < deg; p++ {
		if i < k && (j == d || adjCompare(batch[add[i]].P, batch[add[i]].To, oldP[j], oldT[j]) < 0) {
			e := batch[add[i]]
			row.targets[p], row.probs[p], row.keys[p] = e.To, e.P, m+add[i]
			i++
			continue
		}
		row.targets[p], row.probs[p] = oldT[j], oldP[j]
		if oldK != nil {
			row.keys[p] = oldK[j]
		} else {
			row.keys[p] = int32(kb) + int32(j)
		}
		j++
	}
	return row, nil
}

// KeyViewParts returns the key-indexed views in their split form — the
// immutable base prefix shared across a WithEdges lineage plus the overlay
// tail: key k reads baseP[k] when k < len(baseP) and tail entry
// k-len(baseP) otherwise. On graphs without an overlay the tail is empty
// and the prefix covers every key. This is the accessor the live-edge
// substrate extends through, which is what keeps appending a churn batch
// O(batch), not O(edges).
func (g *Graph) KeyViewParts() (baseP []float64, baseT []int32, tail KeyTail) {
	if g.ov != nil {
		return g.ov.baseKP, g.ov.baseKT, g.ov.tail
	}
	return g.KeyProbs(), g.KeyTargets(), KeyTail{}
}

// Compact folds the delta overlay into a fresh immutable CSR, carrying every
// edge's stable coin key (Graph.eid) so the compaction is invisible to coin
// flips, live-edge rows and world caches: the compacted graph is bit-for-bit
// the same probability space as the overlay graph it replaces, and equals a
// FromEdgesStable build of its lineage field for field. Every row — base or
// merged — is already in the adjacency invariant order and free of
// duplicates, so the rows are copied as they stand, with no re-sort and no
// duplicate check, and compaction cannot fail. Graphs
// without an overlay are returned as-is.
func (g *Graph) Compact() *Graph {
	if g.ov == nil {
		return g
	}
	n, m := g.n, g.NumEdges()
	ng := &Graph{
		n:       n,
		offsets: make([]int32, n+1),
		targets: make([]int32, 0, m),
		probs:   make([]float64, 0, m),
		eid:     make([]int32, 0, m),
		inDeg:   make([]int32, n),
	}
	for v := int32(0); v < int32(n); v++ {
		ts, ps, ks, kb := g.OutRow(v)
		ng.targets = append(ng.targets, ts...)
		ng.probs = append(ng.probs, ps...)
		if ks != nil {
			ng.eid = append(ng.eid, ks...)
		} else {
			for j := range ts {
				ng.eid = append(ng.eid, int32(kb)+int32(j))
			}
		}
		ng.offsets[v+1] = int32(len(ng.targets))
		ng.inDeg[v] = int32(g.InDegree(v))
	}
	ng.finalizeKeys()
	return ng
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
