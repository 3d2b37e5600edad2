// Package ris implements reverse-influence sampling (RIS) for the
// triggering models the diffusion layer serves — the "reverse greedy"
// estimator family the paper cites ([15], Tang et al.) as the standard way
// to speed up influence estimation for seed ranking.
//
// A reverse-reachable (RR) set is drawn by picking a uniform random root
// and walking the transpose graph under the model's live-edge view: the
// independent-cascade walk (Generate) crosses each in-edge with its
// influence probability, while the linear-threshold walk (GenerateLT)
// samples at most one in-edge per step, with probability equal to its
// weight. A node's expected influence is proportional to the fraction of
// RR sets containing it, and the classic greedy max-cover over RR sets
// yields near-optimal seed rankings orders of magnitude faster than forward
// Monte-Carlo ranking.
//
// The coupon-capacity constraint of S3CRM breaks the reversibility argument
// (a node's reach depends on its coupon count), so RIS here serves the IM
// baseline's seed ranking — where the paper's IM algorithms also operate on
// the plain IC model — not the S3CA objective itself.
package ris

import (
	"fmt"

	"s3crm/internal/graph"
	"s3crm/internal/pq"
	"s3crm/internal/rng"
)

// Sketches is a collection of RR sets with an inverted index.
type Sketches struct {
	n      int
	sets   [][]int32
	covers map[int32][]int32 // node → indices of RR sets containing it
}

// drawSets is the scaffolding every RR-set generator shares: count sets,
// each grown breadth-first from a uniform random root, with per-set
// deduplication via generation-stamped visited marks and the cover index
// built as sets complete. How the transpose walk crosses in-edges is the
// only thing the models differ in, so that one decision is delegated to
// step, called once per dequeued node with the set ordinal, visited lookup
// and enqueue callbacks.
func drawSets(g *graph.Graph, count int, src *rng.Source, step func(set int32, v int32, visited func(int32) bool, enqueue func(int32))) (*Sketches, error) {
	if count <= 0 {
		return nil, fmt.Errorf("ris: need a positive sketch count, got %d", count)
	}
	n := g.NumNodes()
	if n == 0 {
		return nil, fmt.Errorf("ris: empty graph")
	}
	s := &Sketches{n: n, covers: make(map[int32][]int32)}
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	var queue []int32
	cur := int32(-1)
	isVisited := func(u int32) bool { return visited[u] == cur }
	enqueue := func(u int32) {
		visited[u] = cur
		queue = append(queue, u)
	}
	for i := 0; i < count; i++ {
		cur = int32(i)
		root := int32(src.Intn(n))
		queue = queue[:0]
		queue = append(queue, root)
		visited[root] = cur
		var set []int32
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			set = append(set, v)
			step(cur, v, isVisited, enqueue)
		}
		s.sets = append(s.sets, set)
		for _, v := range set {
			s.covers[v] = append(s.covers[v], cur)
		}
	}
	return s, nil
}

// Generate draws count RR sets over g under the independent-cascade model.
// It panics on a nil graph and returns an error for non-positive counts or
// empty graphs.
func Generate(g *graph.Graph, count int, src *rng.Source) (*Sketches, error) {
	// The transpose walk reads the graph's shared reverse CSR: per node, the
	// in-neighbours sorted by descending probability (the same order a
	// materialized transpose graph would store, so the sequential random
	// stream is consumed identically), with each slot carrying the forward
	// edge index that addresses its probability. Visited in-neighbours are
	// skipped before the draw, so the stream matches the historical
	// generator exactly.
	probs := g.KeyProbs()
	return drawSets(g, count, src, func(_ int32, v int32, visited func(int32) bool, enqueue func(int32)) {
		srcs, eidx := g.InEdges(v)
		for j, t := range srcs {
			if visited(t) {
				continue
			}
			if src.Float64() < probs[eidx[j]] {
				enqueue(t)
			}
		}
	})
}

// GenerateLT draws count RR sets over g under the linear-threshold model's
// live-edge equivalence: every dequeued node selects at most one live
// in-edge — edge (u, v) with probability equal to its weight, none with the
// remaining mass — so each step of the transpose walk crosses a single
// sampled in-edge instead of flipping a coin per in-edge, and an RR set is
// the chain of selections ending at a node that selects nothing (or closes
// a cycle). One uniform is drawn per dequeued node with in-edges, walked
// down the reverse CSR's sorted in-row exactly as the forward engines'
// substrate does.
func GenerateLT(g *graph.Graph, count int, src *rng.Source) (*Sketches, error) {
	probs := g.KeyProbs()
	return drawSets(g, count, src, func(_ int32, v int32, visited func(int32) bool, enqueue func(int32)) {
		srcs, eidx := g.InEdges(v)
		if len(eidx) == 0 {
			return
		}
		u := src.Float64()
		cum := 0.0
		for j, e := range eidx {
			cum += probs[e]
			if u < cum {
				if t := srcs[j]; !visited(t) {
					enqueue(t)
				}
				break
			}
		}
	})
}

// LiveFunc reports whether the forward edge with the given stable coin key
// (graph.InEdges' edge-key slot) and probability p is live in the given
// world. It is the seam through which RR-set drawing shares the diffusion
// substrate of the forward simulators: a diffusion.LiveEdges probe reads a
// materialized bit, a plain coin hashes — outcomes are identical.
type LiveFunc func(world uint64, edge uint64, p float64) bool

// GenerateLive draws count RR sets over g like Generate, but decides edge
// liveness through live — one possible world per RR set, indexed by the
// set's ordinal — instead of a sequential random stream. Walking the
// transpose crosses in-edge (u → v) exactly when the forward edge is live
// in the set's world, so RR sets drawn this way are consistent with the
// forward Monte-Carlo worlds under common random numbers. Roots still come
// from src.
func GenerateLive(g *graph.Graph, count int, src *rng.Source, live LiveFunc) (*Sketches, error) {
	return generateLive(g, count, src, live, false)
}

// GenerateLiveLT draws count RR sets through a linear-threshold liveness
// source (e.g. diffusion's LT substrate): each reverse step probes a node's
// in-edges until the single one its world selected answers live — at most
// one can under LT — and follows it. The sets are identical to probing the
// whole in-row; the early exit only skips probes that must answer false.
func GenerateLiveLT(g *graph.Graph, count int, src *rng.Source, live LiveFunc) (*Sketches, error) {
	return generateLive(g, count, src, live, true)
}

func generateLive(g *graph.Graph, count int, src *rng.Source, live LiveFunc, singleParent bool) (*Sketches, error) {
	// The graph's shared reverse CSR carries exactly what the walk needs:
	// for each in-edge of v, the source node and the forward global edge
	// index (whose coin decides liveness in every engine). Liveness is a
	// per-edge bit, so the walk order within a row cannot change which nodes
	// an RR set contains.
	probs := g.KeyProbs()
	return drawSets(g, count, src, func(set int32, v int32, visited func(int32) bool, enqueue func(int32)) {
		srcs, eidx := g.InEdges(v)
		for j, u := range srcs {
			if visited(u) {
				continue
			}
			e := uint64(eidx[j])
			if live(uint64(set), e, probs[e]) {
				enqueue(u)
				if singleParent {
					break // LT: no other in-edge of v can be live
				}
			}
		}
	})
}

// Walker draws individual RR sets on demand, reusing the visited-stamp and
// queue scratch that drawSets amortizes across a batch. It exists for
// callers that manage their own sample stores — the SSR sketch solver draws
// coupon-indexed RR sets one at a time, keyed by (sample, slot) worlds —
// and need the exact walk semantics of GenerateLive/GenerateLiveLT without
// the Sketches collection. A Walker is not safe for concurrent use.
type Walker struct {
	g       *graph.Graph
	probs   []float64
	visited []int32
	queue   []int32
	gen     int32
}

// NewWalker prepares a walker over g's shared reverse CSR.
func NewWalker(g *graph.Graph) *Walker {
	w := &Walker{g: g, probs: g.KeyProbs(), visited: make([]int32, g.NumNodes())}
	for i := range w.visited {
		w.visited[i] = -1
	}
	w.gen = -1
	return w
}

// nextGen advances the per-draw visited stamp, resetting the marks on the
// (astronomically rare) int32 wraparound.
func (w *Walker) nextGen() int32 {
	if w.gen == 1<<31-2 {
		for i := range w.visited {
			w.visited[i] = -1
		}
		w.gen = -1
	}
	w.gen++
	return w.gen
}

// Draw appends to dst the RR set rooted at root under the given world's
// edge liveness — the per-node walk of generateLive — and returns the
// extended slice. singleParent applies the linear-threshold early exit: at
// most one in-edge per node can be live, so probing stops at the first.
func (w *Walker) Draw(dst []int32, root int32, world uint64, live LiveFunc, singleParent bool) []int32 {
	cur := w.nextGen()
	w.queue = append(w.queue[:0], root)
	w.visited[root] = cur
	for head := 0; head < len(w.queue); head++ {
		v := w.queue[head]
		dst = append(dst, v)
		srcs, eidx := w.g.InEdges(v)
		for j, u := range srcs {
			if w.visited[u] == cur {
				continue
			}
			e := uint64(eidx[j])
			if live(world, e, w.probs[e]) {
				w.visited[u] = cur
				w.queue = append(w.queue, u)
				if singleParent {
					break // LT: no other in-edge of v can be live
				}
			}
		}
	}
	return dst
}

// DrawLT appends to dst the RR set rooted at root under the linear-threshold
// model with an explicit per-node uniform — the categorical in-row walk of
// GenerateLT, with the sequential random stream replaced by unif(world, v)
// so draws are stateless and order-independent. Each dequeued node selects
// at most one in-edge: the one whose cumulative-probability interval
// contains the uniform, none when the uniform lands in the remaining mass.
func (w *Walker) DrawLT(dst []int32, root int32, world uint64, unif func(world uint64, node int32) float64) []int32 {
	cur := w.nextGen()
	w.queue = append(w.queue[:0], root)
	w.visited[root] = cur
	for head := 0; head < len(w.queue); head++ {
		v := w.queue[head]
		dst = append(dst, v)
		srcs, eidx := w.g.InEdges(v)
		if len(eidx) == 0 {
			continue
		}
		u := unif(world, v)
		cum := 0.0
		for j, e := range eidx {
			cum += w.probs[e]
			if u < cum {
				if t := srcs[j]; w.visited[t] != cur {
					w.visited[t] = cur
					w.queue = append(w.queue, t)
				}
				break
			}
		}
	}
	return dst
}

// Count returns the number of RR sets drawn.
func (s *Sketches) Count() int { return len(s.sets) }

// Influence estimates the expected IC influence spread of a seed set:
// n × (fraction of RR sets hit by any seed).
func (s *Sketches) Influence(seeds []int32) float64 {
	if len(s.sets) == 0 {
		return 0
	}
	hit := make(map[int32]struct{})
	for _, seed := range seeds {
		for _, idx := range s.covers[seed] {
			hit[idx] = struct{}{}
		}
	}
	return float64(s.n) * float64(len(hit)) / float64(len(s.sets))
}

// CoverCount returns the number of RR sets containing v; scaled by
// n/Count() it is v's estimated singleton influence. It is the ranking key
// of the baselines' candidate pruning under the ssr engine.
func (s *Sketches) CoverCount(v int32) int { return len(s.covers[v]) }

// celfSeed is one lazily re-evaluated TopSeeds queue entry: the marginal
// cover count and the selection round it was computed in.
type celfSeed struct {
	node  int32
	gain  int
	round int
}

// TopSeeds greedily selects up to k seeds maximizing RR-set coverage,
// returning them in selection order. The selection is CELF lazy greedy on a
// priority queue: marginal cover counts only shrink as sets get covered
// (submodularity), so a stale entry is an upper bound and only the queue
// top is ever recounted — replacing the former O(V) scan per selection.
// Nodes covering no uncovered sets are never selected, so fewer than k
// seeds may return.
func (s *Sketches) TopSeeds(k int) []int32 {
	covered := make([]bool, len(s.sets))
	// Max-heap via negated priority. Gains are integers, so a per-node
	// bonus in (0, 0.5) encodes the ties-prefer-smaller-id rule without
	// ever crossing gain levels.
	tie := func(v int32) float64 { return float64(s.n-int(v)) / (2 * float64(s.n+1)) }
	var h pq.Heap[celfSeed]
	for v, idxs := range s.covers {
		if len(idxs) > 0 {
			h.Push(celfSeed{node: v, gain: len(idxs)}, -(float64(len(idxs)) + tie(v)))
		}
	}
	var picked []int32
	for len(picked) < k && h.Len() > 0 {
		top, _, _ := h.Pop()
		if top.round != len(picked) {
			// Stale: recount the uncovered sets the node still covers and
			// requeue it (dropping it when nothing is left to gain).
			g := 0
			for _, idx := range s.covers[top.node] {
				if !covered[idx] {
					g++
				}
			}
			if g > 0 {
				h.Push(celfSeed{node: top.node, gain: g, round: len(picked)},
					-(float64(g) + tie(top.node)))
			}
			continue
		}
		picked = append(picked, top.node)
		for _, idx := range s.covers[top.node] {
			covered[idx] = true
		}
	}
	return picked
}
