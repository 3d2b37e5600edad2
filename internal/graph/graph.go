package graph

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"s3crm/internal/par"
)

// Edge is one directed edge with its influence probability.
type Edge struct {
	From, To int32
	P        float64
}

// MaxEdges is the hard edge-count cap implied by int32 CSR offsets.
const MaxEdges = math.MaxInt32 - 1

// Graph is an immutable weighted digraph in compressed sparse row form.
type Graph struct {
	n       int
	offsets []int32   // len n+1; out-edge range of node v is [offsets[v], offsets[v+1])
	targets []int32   // out-neighbours, sorted by descending P within each node
	probs   []float64 // parallel to targets
	inDeg   []int32   // in-degree per node; the base's on overlay graphs (InDegree)

	// eid, when non-nil, maps each CSR position to that edge's stable coin
	// key — the identity under which its Monte-Carlo coin and live-edge bit
	// live. Keys are a permutation of [0, NumEdges). nil means keys equal
	// CSR positions (every graph built by FromEdges), which is what keeps
	// the static fast paths and the golden parity pins bit-identical.
	// Non-nil keys appear on graphs built by FromEdgesStable and on
	// compactions of delta-overlay graphs, where an edge must keep the key
	// it was assigned when it first entered the lineage even though its
	// CSR position moved.
	eid []int32
	// keyProbs/keyTargets are the key-indexed views of probs/targets:
	// keyProbs[k] is the probability of the edge whose coin key is k.
	// Both are nil when keys equal positions (use probs/targets directly);
	// otherwise they are materialized at construction so substrates that
	// index by key (live-edge rows, LT chosen-in-edge draws) stay O(1).
	keyProbs   []float64
	keyTargets []int32

	// ov, when non-nil, is the delta overlay: edges appended after the CSR
	// was frozen, readable alongside it. See overlay.go.
	ov *overlay

	// Reverse CSR, built lazily on first InEdges call (reverse-influence
	// sampling and the LT live-edge walk are the only consumers; the solve
	// path never pays for it). revSources[revOffsets[v]:revOffsets[v+1]] are
	// v's in-neighbours sorted by descending forward probability (ties by
	// ascending source id — the mirror of the forward invariant); revEdge
	// holds the stable coin key of each slot (the forward global index on
	// plain graphs), so coin flips are shared with the forward walk, and
	// revProbs the probability of that key, so reverse walks read every
	// in-edge sequentially instead of jumping by key.
	revOnce    sync.Once
	revOffsets []int32
	revSources []int32
	revEdge    []int32
	revProbs   []float64
}

// FromEdges constructs a Graph from an edge list. The slice is not retained.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, errors.New("graph: negative node count")
	}
	if len(edges) > MaxEdges {
		return nil, fmt.Errorf("graph: %d edges exceed the int32 CSR cap %d", len(edges), MaxEdges)
	}
	g := &Graph{
		n:       n,
		offsets: make([]int32, n+1),
		targets: make([]int32, len(edges)),
		probs:   make([]float64, len(edges)),
		inDeg:   make([]int32, n),
	}
	// Counting sort by source node.
	counts := make([]int32, n+1)
	for _, e := range edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", e.From, e.To, n)
		}
		if !(e.P >= 0 && e.P <= 1) {
			return nil, fmt.Errorf("graph: edge (%d,%d) probability %v outside [0,1]", e.From, e.To, e.P)
		}
		counts[e.From+1]++
		g.inDeg[e.To]++
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	copy(g.offsets, counts)
	cursor := counts[:n] // reuse the counting array as the fill cursor
	for _, e := range edges {
		i := cursor[e.From]
		g.targets[i] = e.To
		g.probs[i] = e.P
		cursor[e.From]++
	}
	if _, err := g.dedupRows(DupError, g.probs, nil); err != nil {
		return nil, err
	}
	g.finalizeRows()
	return g, nil
}

// finalizeRows sorts each row, already grouped by source and free of
// duplicates, into the adjacency invariant order: descending probability,
// ties by ascending id. Rows are independent, so the work shards across
// workers by contiguous node ranges with results identical to the
// sequential pass.
func (g *Graph) finalizeRows() {
	shardNodes(g.n, len(g.targets), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			rlo, rhi := g.offsets[v], g.offsets[v+1]
			adj := adjSorter{targets: g.targets[rlo:rhi], probs: g.probs[rlo:rhi]}
			if g.eid != nil {
				adj.keys = g.eid[rlo:rhi]
			}
			sort.Sort(adj)
		}
	})
}

// shardNodes runs fn over contiguous node ranges covering [0, n), in
// parallel when the graph is large enough to pay for the fan-out; fn must
// touch only state owned by its range.
func shardNodes(n, edges int, fn func(lo, hi int)) {
	const minEdgesPerShard = 1 << 16
	workers := min(runtime.GOMAXPROCS(0), edges/minEdgesPerShard+1)
	par.Ranges(n, workers, func(_, lo, hi int) { fn(lo, hi) })
}

type adjSorter struct {
	targets []int32
	probs   []float64
	keys    []int32 // optional stable coin keys, co-sorted when non-nil
}

func (a adjSorter) Len() int { return len(a.targets) }
func (a adjSorter) Less(i, j int) bool {
	return adjCompare(a.probs[i], a.targets[i], a.probs[j], a.targets[j]) < 0
}
func (a adjSorter) Swap(i, j int) {
	a.targets[i], a.targets[j] = a.targets[j], a.targets[i]
	a.probs[i], a.probs[j] = a.probs[j], a.probs[i]
	if a.keys != nil {
		a.keys[i], a.keys[j] = a.keys[j], a.keys[i]
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns |E|, overlay edges included.
func (g *Graph) NumEdges() int {
	m := len(g.targets)
	if g.ov != nil {
		m += g.ov.extra
	}
	return m
}

// OutDegree returns the number of out-neighbours of v — the paper's |N(vi)|.
func (g *Graph) OutDegree(v int32) int {
	if g.ov != nil {
		if r := g.ov.row(v); r != nil {
			return len(r.targets)
		}
		if int(v) >= g.ov.baseN {
			return 0
		}
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// InDegree returns the number of in-edges of v.
func (g *Graph) InDegree(v int32) int {
	if g.ov != nil {
		if p := g.ov.inDeg[v>>pageBits]; p != nil {
			return int(p[v&pageMask])
		}
		if int(v) >= len(g.inDeg) {
			return 0
		}
	}
	return int(g.inDeg[v])
}

// OutEdges returns the out-neighbours and probabilities of v, sorted by
// descending probability. On delta-overlay graphs, churned sources return
// their merged row (base and appended edges in the same invariant order a
// cold rebuild would store). The slices alias the graph's internal storage
// and must not be modified.
func (g *Graph) OutEdges(v int32) (targets []int32, probs []float64) {
	if g.ov != nil {
		if r := g.ov.row(v); r != nil {
			return r.targets, r.probs
		}
		if int(v) >= g.ov.baseN {
			return nil, nil
		}
	}
	lo, hi := g.offsets[v], g.offsets[v+1]
	return g.targets[lo:hi], g.probs[lo:hi]
}

// OutRow returns v's out-row together with its coin keys: targets and probs
// as OutEdges, and the stable key identifying each edge's Monte-Carlo coin.
// keys == nil means the row's keys are contiguous — position j's key is
// kbase+j — which is the case on every graph whose keys equal CSR positions
// (all FromEdges-built graphs) and lets hot loops keep the add-only fast
// path. When keys is non-nil (overlay rows, remapped compactions), kbase is
// meaningless and keys[j] is the identity to probe. The slices alias graph
// storage and must not be modified.
func (g *Graph) OutRow(v int32) (targets []int32, probs []float64, keys []int32, kbase int64) {
	if g.ov != nil {
		if r := g.ov.row(v); r != nil {
			return r.targets, r.probs, r.keys, 0
		}
		if int(v) >= g.ov.baseN {
			return nil, nil, nil, 0
		}
	}
	lo, hi := g.offsets[v], g.offsets[v+1]
	if g.eid != nil {
		return g.targets[lo:hi], g.probs[lo:hi], g.eid[lo:hi], 0
	}
	return g.targets[lo:hi], g.probs[lo:hi], nil, int64(lo)
}

// CSR exposes the forward adjacency as its raw arrays: node v's out-edges
// occupy [offsets[v], offsets[v+1]) of targets and probs. Hot loops that
// only need topology and probabilities may iterate these directly; loops
// that derive coin identities from positions must use OutRow instead (on
// key-remapped graphs positions are not keys). Panics on a graph with a
// live delta overlay, whose appended edges these arrays do not contain —
// Compact first, or iterate OutRow. All three alias the graph's internal
// storage and must not be modified.
func (g *Graph) CSR() (offsets, targets []int32, probs []float64) {
	if g.ov != nil {
		panic("graph: CSR on a delta-overlay graph (appended edges are not in the CSR arrays); Compact first or iterate OutRow")
	}
	return g.offsets, g.targets, g.probs
}

// EdgeIndexBase returns the global CSR index of v's first out-edge, which is
// also the coin key of v's strongest edge on graphs whose keys equal
// positions. It panics on dynamic graphs (live overlay or remapped keys) —
// any caller still deriving coin identities from CSR positions there is a
// bug; use OutRow.
func (g *Graph) EdgeIndexBase(v int32) int64 {
	if g.ov != nil || g.eid != nil {
		panic("graph: EdgeIndexBase on a dynamic graph; coin keys are not CSR positions — use OutRow")
	}
	return int64(g.offsets[v])
}

// Probs returns all edge probabilities in global CSR order: the probability
// of the edge at CSR position i is Probs()[i]. Positions are coin keys only
// on graphs without remapped keys; key-indexed consumers use KeyProbs, or
// KeyViewParts on overlay graphs.
// Panics on a graph with a live delta overlay (the array would be
// incomplete). The slice aliases the graph's internal storage and must not
// be modified.
func (g *Graph) Probs() []float64 {
	if g.ov != nil {
		panic("graph: Probs on a delta-overlay graph (appended edges are not in the CSR arrays); use KeyViewParts")
	}
	return g.probs
}

// KeyProbs returns edge probabilities indexed by stable coin key:
// KeyProbs()[k] is the probability of the edge whose Monte-Carlo coin is
// salted with k. On graphs whose keys equal CSR positions this is Probs()
// itself; on keyed graphs it is the key-indexed view materialized at build
// time. Panics on a graph with a live delta overlay, whose key-indexed view
// exists only in the split form of KeyViewParts. The slice aliases graph
// storage and must not be modified.
func (g *Graph) KeyProbs() []float64 {
	if g.ov != nil {
		panic("graph: KeyProbs on a delta-overlay graph; use KeyViewParts")
	}
	if g.keyProbs != nil {
		return g.keyProbs
	}
	return g.probs
}

// KeyTargets returns edge target nodes indexed by stable coin key — the
// key-indexed companion of KeyProbs, consumed by the LT live-edge substrate
// to map a probed edge key to the node whose chosen-in-edge decides it.
// Panics on a graph with a live delta overlay, like KeyProbs. The slice
// aliases graph storage and must not be modified.
func (g *Graph) KeyTargets() []int32 {
	if g.ov != nil {
		panic("graph: KeyTargets on a delta-overlay graph; use KeyViewParts")
	}
	if g.keyTargets != nil {
		return g.keyTargets
	}
	return g.targets
}

// buildReverse materializes the reverse CSR: a forward sweep scatters every
// edge's source, coin key and probability into its target's row (counting
// sort on the already-known in-degrees), then each row is sorted by its own
// aligned probabilities, descending, ties by ascending source — exactly the
// order a standalone transpose graph would store, so reverse walks consume
// random streams identically to one. The sweep iterates OutRow, so overlay
// graphs get a full merged reverse (base and appended in-edges interleaved
// in the invariant order a cold rebuild would produce) without reading
// the key-indexed views, and revEdge records stable coin keys on every
// lineage.
func (g *Graph) buildReverse() {
	n, m := g.n, g.NumEdges()
	g.revOffsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		g.revOffsets[v+1] = g.revOffsets[v] + int32(g.InDegree(int32(v)))
	}
	g.revSources = make([]int32, m)
	g.revEdge = make([]int32, m)
	g.revProbs = make([]float64, m)
	cursor := make([]int32, n)
	copy(cursor, g.revOffsets[:n])
	for v := int32(0); v < int32(n); v++ {
		targets, probs, keys, kbase := g.OutRow(v)
		for j, t := range targets {
			i := cursor[t]
			g.revSources[i] = v
			if keys != nil {
				g.revEdge[i] = keys[j]
			} else {
				g.revEdge[i] = int32(kbase) + int32(j)
			}
			g.revProbs[i] = probs[j]
			cursor[t]++
		}
	}
	shardNodes(n, m, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			rlo, rhi := g.revOffsets[v], g.revOffsets[v+1]
			sort.Sort(revSorter{sources: g.revSources[rlo:rhi], keys: g.revEdge[rlo:rhi], probs: g.revProbs[rlo:rhi]})
		}
	})
}

// revSorter orders one reverse row by descending probability, ties by
// ascending source, swapping the three aligned arrays together.
type revSorter struct {
	sources []int32
	keys    []int32
	probs   []float64
}

func (r revSorter) Len() int { return len(r.sources) }
func (r revSorter) Less(i, j int) bool {
	if r.probs[i] != r.probs[j] {
		return r.probs[i] > r.probs[j]
	}
	return r.sources[i] < r.sources[j]
}
func (r revSorter) Swap(i, j int) {
	r.sources[i], r.sources[j] = r.sources[j], r.sources[i]
	r.keys[i], r.keys[j] = r.keys[j], r.keys[i]
	r.probs[i], r.probs[j] = r.probs[j], r.probs[i]
}

// InEdges returns v's in-neighbours sorted by descending influence
// probability (ties by ascending source id), each in-edge's stable coin key
// — the identity its Monte-Carlo coin is salted with — and its
// probability, aligned slot for slot: probs[j] is the probability of key
// keys[j] (KeyProbs()[keys[j]] on graphs without an overlay). On plain
// graphs keys equal forward global CSR indices. The reverse CSR is built
// once, lazily, on first call; the slices alias graph storage and must not
// be modified. Safe for concurrent use.
func (g *Graph) InEdges(v int32) (sources, keys []int32, probs []float64) {
	g.revOnce.Do(g.buildReverse)
	lo, hi := g.revOffsets[v], g.revOffsets[v+1]
	return g.revSources[lo:hi], g.revEdge[lo:hi], g.revProbs[lo:hi]
}

// EdgeProb returns the probability of edge (from → to) and whether the edge
// exists.
func (g *Graph) EdgeProb(from, to int32) (float64, bool) {
	ts, ps := g.OutEdges(from)
	if i := slices.Index(ts, to); i >= 0 {
		return ps[i], true
	}
	return 0, false
}

// NeighborRank returns the 0-based position of `to` in `from`'s
// descending-probability adjacency, or -1 when the edge does not exist.
// Position < k means an allocation of k coupons reaches it independently.
// Both lookups scan the row: the one hot caller, the SSR gate DP, walks the
// positions before the answer anyway.
func (g *Graph) NeighborRank(from, to int32) int {
	ts, _ := g.OutEdges(from)
	return slices.Index(ts, to)
}

// Edges returns a copy of the full edge list in CSR order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.targets))
	for v := int32(0); v < int32(g.n); v++ {
		ts, ps := g.OutEdges(v)
		for i := range ts {
			out = append(out, Edge{From: v, To: ts[i], P: ps[i]})
		}
	}
	return out
}

// OutDegrees returns a copy of all out-degrees; useful for degree statistics
// and for seed-cost models that charge proportionally to the friend count.
func (g *Graph) OutDegrees() []int {
	ds := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		ds[v] = g.OutDegree(int32(v))
	}
	return ds
}

// Reweight returns a copy of the graph with every edge probability replaced
// by f(from, to, p). The topology is reused — offsets, targets and the
// in-degree array are cloned without re-running edge validation or the
// counting sort — and only the per-row probability order is re-established,
// so re-weighting a million-node graph costs one row finalization, not a
// full rebuild from an []Edge copy. A live delta overlay is compacted first
// (re-weighting changes per-row probability order, which overlay rows
// cannot absorb in place); stable coin keys are carried through the re-sort
// so each edge keeps the identity of its coin.
func (g *Graph) Reweight(f func(from, to int32, p float64) float64) (*Graph, error) {
	if g.ov != nil {
		g = g.Compact()
	}
	ng := &Graph{
		n:          g.n,
		offsets:    g.offsets, // immutable topology: shared, never written
		targets:    append([]int32(nil), g.targets...),
		probs:      make([]float64, len(g.probs)),
		eid:        append([]int32(nil), g.eid...),
		keyTargets: g.keyTargets, // targets per key are unchanged
		inDeg:      g.inDeg,
	}
	for v := int32(0); v < int32(g.n); v++ {
		for e := g.offsets[v]; e < g.offsets[v+1]; e++ {
			p := f(v, g.targets[e], g.probs[e])
			if p < 0 || p > 1 || math.IsNaN(p) {
				return nil, fmt.Errorf("graph: reweighted edge (%d,%d) probability %v outside [0,1]", v, g.targets[e], p)
			}
			ng.probs[e] = p
		}
	}
	ng.finalizeRows()
	if ng.eid != nil {
		kp := make([]float64, len(ng.probs))
		for i, k := range ng.eid {
			kp[k] = ng.probs[i]
		}
		ng.keyProbs = kp
	}
	return ng, nil
}

// CapInWeights returns a copy of the graph with every node's in-weights
// scaled down to sum to at most 1: rows whose incoming probabilities sum to
// s > 1 have each divided by s, and rows already within the bound are left
// untouched. This establishes the linear-threshold live-edge precondition
// (Σ_u w(u,v) ≤ 1) for weightings that overshoot it — uniform or trivalency
// probabilities on high-in-degree nodes — while preserving weighted-cascade
// graphs (1/in-degree sums to exactly 1) bit for bit. Scaling can reorder a
// row's descending-probability adjacency relative to the input graph, so
// coin-flip edge identities are those of the returned graph, not the
// receiver's.
func (g *Graph) CapInWeights() *Graph {
	if g.ov != nil {
		g = g.Compact()
	}
	sums := make([]float64, g.n)
	for e, t := range g.targets {
		sums[t] += g.probs[e]
	}
	ng, err := g.Reweight(func(_, to int32, p float64) float64 {
		if s := sums[to]; s > 1 {
			return p / s
		}
		return p
	})
	if err != nil {
		// Cannot happen: scaling down keeps probabilities within [0,1].
		panic("graph: CapInWeights rebuild failed: " + err.Error())
	}
	return ng
}

// WeightByInDegree returns a copy of the graph re-weighted with the paper's
// standard influence probabilities P(e(i,j)) = 1 / indegree(j).
func (g *Graph) WeightByInDegree() *Graph {
	ng, err := g.Reweight(func(_, to int32, _ float64) float64 {
		if d := g.InDegree(to); d > 0 {
			return 1 / float64(d)
		}
		return 0
	})
	if err != nil {
		// Cannot happen: 1/indegree is always within [0,1].
		panic("graph: WeightByInDegree rebuild failed: " + err.Error())
	}
	return ng
}

// PadNodes returns a graph with the node set grown to n (extra ids are
// isolated: no edges in either direction). The edge arrays are shared with
// the receiver — only the offsets and in-degree arrays are extended — so
// padding a million-node ingestion result costs O(extra nodes), not a
// rebuild.
func (g *Graph) PadNodes(n int) (*Graph, error) {
	if n < g.n {
		return nil, fmt.Errorf("graph: cannot pad %d nodes down to %d", g.n, n)
	}
	if n == g.n {
		return g, nil
	}
	if g.ov != nil {
		g = g.Compact()
	}
	ng := &Graph{
		n:          n,
		offsets:    make([]int32, n+1),
		targets:    g.targets,
		probs:      g.probs,
		eid:        g.eid,
		keyProbs:   g.keyProbs,
		keyTargets: g.keyTargets,
		inDeg:      make([]int32, n),
	}
	copy(ng.offsets, g.offsets)
	last := g.offsets[g.n]
	for v := g.n + 1; v <= n; v++ {
		ng.offsets[v] = last
	}
	copy(ng.inDeg, g.inDeg)
	return ng, nil
}
