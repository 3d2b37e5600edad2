package graph

import (
	"fmt"
	"sort"
)

// DupPolicy decides what StreamBuilder.Build does with duplicate (from,to)
// arcs. The propagation model assigns one coupon slot per neighbour, so
// parallel edges never survive into a Graph; the policy only chooses between
// rejecting the input and quietly keeping the first occurrence (what SNAP
// ingestion wants — several of the published edge lists repeat arcs).
type DupPolicy int

const (
	// DupKeepFirst (the zero value) keeps each arc's first occurrence in
	// stream order and drops the rest, counting them in
	// BuildStats.Duplicates.
	DupKeepFirst DupPolicy = iota
	// DupError rejects the build on the first duplicate arc (FromEdges
	// semantics).
	DupError
)

// ProbAssign computes an edge's influence probability once the full
// topology is known. It runs after duplicate resolution, so in-degree-based
// models (the paper's weighted cascade) see the deduplicated graph. A nil
// ProbAssign keeps the probabilities recorded by Add.
type ProbAssign func(from, to int32, inDeg int32) float64

// BuildStats reports what Build resolved.
type BuildStats struct {
	Arcs       int // arcs recorded by Add
	Duplicates int // arcs dropped under DupKeepFirst
}

// StreamBuilder accumulates arcs in columnar form — two int32 words per arc
// plus an optional probability column — and counting-sorts them directly
// into a Graph's CSR arrays. Unlike FromEdges it never takes an []Edge,
// so streaming a SNAP-scale edge list peaks at the columnar accumulation
// plus the final CSR, with no per-edge struct copy in between.
//
// The zero number of nodes is fixed up-front; arcs are validated as they
// arrive so a malformed stream fails at its line, not at Build.
type StreamBuilder struct {
	n    int
	auto bool // n tracks max id seen; Build sizes the graph to maxID+1
	src  []int32
	dst  []int32
	prob []float64 // nil until the first Add with an explicit probability
	key  []int32   // nil unless arcs arrive via AddKeyedProb (stable coin keys)
}

// NewStreamBuilder returns a streaming builder for a graph with n nodes.
func NewStreamBuilder(n int) *StreamBuilder {
	return &StreamBuilder{n: n}
}

// NewStreamBuilderAuto returns a streaming builder that infers the node
// count as maxID+1 at Build — the ingestion path, where the dense id remap
// only knows the count once the stream ends.
func NewStreamBuilderAuto() *StreamBuilder {
	return &StreamBuilder{auto: true}
}

// Add records one arc with probability 0 (to be assigned at Build via
// ProbAssign, or left 0 as FromEdges would).
func (b *StreamBuilder) Add(from, to int32) error {
	if b.key != nil {
		return fmt.Errorf("graph: cannot mix keyed and unkeyed arcs in one stream build")
	}
	return b.add(from, to)
}

func (b *StreamBuilder) add(from, to int32) error {
	if b.auto {
		if from < 0 || to < 0 {
			return fmt.Errorf("graph: edge (%d,%d) has a negative endpoint", from, to)
		}
		if int(from) >= b.n {
			b.n = int(from) + 1
		}
		if int(to) >= b.n {
			b.n = int(to) + 1
		}
	} else if from < 0 || int(from) >= b.n || to < 0 || int(to) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) endpoint out of range [0,%d)", from, to, b.n)
	}
	if len(b.src) >= MaxEdges {
		return fmt.Errorf("graph: edge count exceeds the int32 CSR cap %d", MaxEdges)
	}
	b.src = append(b.src, from)
	b.dst = append(b.dst, to)
	if b.prob != nil {
		b.prob = append(b.prob, 0)
	}
	return nil
}

// AddProb records one arc with an explicit probability (an edge list with a
// probability column). Mixing Add and AddProb is allowed; plain arcs carry
// probability 0.
func (b *StreamBuilder) AddProb(from, to int32, p float64) error {
	if b.key != nil {
		return fmt.Errorf("graph: cannot mix keyed and unkeyed arcs in one stream build")
	}
	return b.addProb(from, to, p)
}

func (b *StreamBuilder) addProb(from, to int32, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("graph: edge (%d,%d) probability %v outside [0,1]", from, to, p)
	}
	if b.prob == nil {
		b.prob = make([]float64, len(b.src), cap(b.src))
	}
	if err := b.add(from, to); err != nil {
		return err
	}
	b.prob[len(b.src)-1] = p
	return nil
}

// AddKeyedProb records one arc with an explicit probability and a stable
// coin key — the identity the edge's Monte-Carlo coin is salted with,
// carried through row sorting into Graph.eid. Keyed and unkeyed arcs cannot
// be mixed in one build; a keyed Build requires DupError (dropping a
// duplicate would leave a hole in the key space) and validates at Build
// that the keys form a permutation of [0, arcs). Used by overlay compaction
// and FromEdgesStable, where edges must keep the keys assigned when they
// entered the lineage.
func (b *StreamBuilder) AddKeyedProb(from, to int32, p float64, key int32) error {
	if b.key == nil && len(b.src) > 0 {
		return fmt.Errorf("graph: cannot mix keyed and unkeyed arcs in one stream build")
	}
	if key < 0 {
		return fmt.Errorf("graph: edge (%d,%d) has negative coin key %d", from, to, key)
	}
	if err := b.addProb(from, to, p); err != nil {
		return err
	}
	b.key = append(b.key, key)
	return nil
}

// Build counting-sorts the accumulated arcs into CSR, resolves duplicates
// per policy, assigns probabilities (probFn nil keeps the recorded ones) and
// finalizes the probability-sorted adjacency. The builder's columnar arrays
// are released as Build consumes them; the builder must not be reused.
func (b *StreamBuilder) Build(policy DupPolicy, probFn ProbAssign) (*Graph, BuildStats, error) {
	stats := BuildStats{Arcs: len(b.src)}
	n, m := b.n, len(b.src)
	if n < 0 {
		return nil, stats, fmt.Errorf("graph: negative node count")
	}
	if b.key != nil && policy != DupError {
		return nil, stats, fmt.Errorf("graph: keyed stream builds require DupError (dropping a duplicate would hole the key space)")
	}
	g := &Graph{
		n:       n,
		offsets: make([]int32, n+1),
		targets: make([]int32, m),
		inDeg:   make([]int32, n),
	}
	counts := make([]int32, n+1)
	for _, f := range b.src {
		counts[f+1]++
	}
	for v := 0; v < n; v++ {
		counts[v+1] += counts[v]
	}
	copy(g.offsets, counts)
	// Scatter targets (and the probability column) into row-grouped order.
	// The fill is stable per row, so within a row the stream order survives
	// — which is what lets DupKeepFirst mean "first occurrence".
	var fileProbs []float64
	if b.prob != nil {
		fileProbs = make([]float64, m)
	}
	var fileKeys []int32
	if b.key != nil {
		fileKeys = make([]int32, m)
	}
	cursor := counts[:n]
	for i, f := range b.src {
		at := cursor[f]
		g.targets[at] = b.dst[i]
		if fileProbs != nil {
			fileProbs[at] = b.prob[i]
		}
		if fileKeys != nil {
			fileKeys[at] = b.key[i]
		}
		cursor[f]++
	}
	b.src, b.dst, b.prob, b.key = nil, nil, nil, nil // release the columnar accumulation

	dropped, err := g.dedupRows(policy, fileProbs, fileKeys)
	if err != nil {
		return nil, stats, err
	}
	stats.Duplicates = dropped
	if dropped > 0 {
		m -= dropped
		if fileProbs != nil {
			fileProbs = fileProbs[:m]
		}
		if fileKeys != nil {
			fileKeys = fileKeys[:m]
		}
	}
	if fileKeys != nil {
		// Keys must form a permutation of [0, m): anything else means the
		// caller assigned keys inconsistently and coin identities would
		// collide or dangle.
		seen := make([]uint64, (m+63)/64)
		for _, k := range fileKeys {
			if int(k) >= m || seen[k>>6]&(1<<(uint(k)&63)) != 0 {
				return nil, stats, fmt.Errorf("graph: coin keys must form a permutation of [0,%d); key %d is out of range or repeated", m, k)
			}
			seen[k>>6] |= 1 << (uint(k) & 63)
		}
		g.eid = fileKeys
	}
	for _, t := range g.targets {
		g.inDeg[t]++
	}
	// Assign probabilities now that the deduplicated in-degrees are known.
	g.probs = fileProbs
	if g.probs == nil {
		g.probs = make([]float64, m)
	}
	if probFn != nil {
		for v := int32(0); v < int32(n); v++ {
			for e := g.offsets[v]; e < g.offsets[v+1]; e++ {
				g.probs[e] = probFn(v, g.targets[e], g.inDeg[g.targets[e]])
			}
		}
	}
	for i, p := range g.probs {
		if p < 0 || p > 1 || p != p {
			return nil, stats, fmt.Errorf("graph: assigned probability %v outside [0,1] on edge index %d", p, i)
		}
	}
	if err := g.finalizeRows(); err != nil {
		return nil, stats, err
	}
	g.finalizeKeys()
	return g, stats, nil
}

// finalizeKeys settles a keyed graph's coin-key map once its rows are
// final. If every key sits at its own CSR position the map is the identity:
// it is dropped, making the graph indistinguishable from a FromEdges build
// (and keeping the static fast paths). Otherwise the key-indexed views are
// materialized.
func (g *Graph) finalizeKeys() {
	if g.eid == nil {
		return
	}
	identity := true
	for i, k := range g.eid {
		if int(k) != i {
			identity = false
			break
		}
	}
	if identity {
		g.eid = nil
		return
	}
	m := len(g.eid)
	kp := make([]float64, m)
	kt := make([]int32, m)
	for i, k := range g.eid {
		kp[k] = g.probs[i]
		kt[k] = g.targets[i]
	}
	g.keyProbs, g.keyTargets = kp, kt
}

// dedupRows sorts each row by target (stably, so equal targets keep stream
// order), resolves duplicates per policy and compacts the CSR arrays in
// place, rewriting offsets. Returns the number of dropped arcs.
func (g *Graph) dedupRows(policy DupPolicy, fileProbs []float64, fileKeys []int32) (int, error) {
	n := g.n
	write := int32(0)
	var order []int32 // per-row positions sorted by (target, stream order)
	var rowT []int32  // row snapshot: compaction writes into the row's own range
	var rowP []float64
	var rowK []int32
	for v := 0; v < n; v++ {
		lo, hi := g.offsets[v], g.offsets[v+1]
		g.offsets[v] = write
		deg := int(hi - lo)
		if deg == 0 {
			continue
		}
		rowT = append(rowT[:0], g.targets[lo:hi]...)
		if fileProbs != nil {
			rowP = append(rowP[:0], fileProbs[lo:hi]...)
		}
		if fileKeys != nil {
			rowK = append(rowK[:0], fileKeys[lo:hi]...)
		}
		order = order[:0]
		for i := 0; i < deg; i++ {
			order = append(order, int32(i))
		}
		sort.Slice(order, func(i, j int) bool {
			if rowT[order[i]] != rowT[order[j]] {
				return rowT[order[i]] < rowT[order[j]]
			}
			return order[i] < order[j]
		})
		prev := int32(-1)
		for _, li := range order {
			t := rowT[li]
			if t == prev {
				if policy == DupError {
					return 0, fmt.Errorf("graph: duplicate edge (%d,%d)", v, t)
				}
				continue
			}
			prev = t
			g.targets[write] = t
			if fileProbs != nil {
				fileProbs[write] = rowP[li]
			}
			if fileKeys != nil {
				fileKeys[write] = rowK[li]
			}
			write++
		}
	}
	dropped := len(g.targets) - int(write)
	g.offsets[n] = write
	g.targets = g.targets[:write]
	return dropped, nil
}
