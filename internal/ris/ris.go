// Package ris implements the reverse-reachable (RR) set walk of
// reverse-influence sampling (RIS) for the triggering models the diffusion
// layer serves — the "reverse greedy" estimator family the paper cites
// ([15], Tang et al.).
//
// An RR set is drawn from a root by walking the transpose graph under one
// possible world's live-edge view: the independent-cascade walk (Walker.Draw)
// crosses each in-edge that is live in the world, while the linear-threshold
// walk (Walker.DrawLT) follows at most one in-edge per step, the one the
// node's per-world uniform selects with probability equal to its weight.
// With uniformly drawn roots, a node's expected influence is proportional to
// the fraction of RR sets containing it.
//
// Walker is the repository's only reverse walk. It has two consumers, each
// keeping its own sample bookkeeping: the SSR sketch solver draws
// coupon-indexed RR sets into its sample store, and the baselines rank their
// candidate pool by RR-set cover counts under the ssr engine. The
// coupon-capacity constraint of S3CRM breaks the plain reversibility
// argument (a node's reach depends on its coupon count), which is why the
// sketch solver gates each walk by coupon slot rather than using raw RR sets.
package ris

import "s3crm/internal/graph"

// LiveFunc reports whether the forward edge with the given stable coin key
// (graph.InEdges' edge-key slot) and probability p is live in the given
// world — typically rng.Coin.Live, so a walk reproduces the forward
// engines' coin flips for the same seed and world.
type LiveFunc func(world uint64, edge uint64, p float64) bool

// Walker draws individual RR sets over g's shared reverse CSR, reusing its
// visited-stamp and queue scratch across draws. Callers own the sample
// bookkeeping: roots, world numbering and what is kept of each set. A
// Walker is not safe for concurrent use.
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

// Draw appends to dst the independent-cascade RR set rooted at root — every
// node whose forward path to root is live in world — and returns the
// extended slice. Liveness is a per-edge bit, so the walk order within an
// in-row cannot change which nodes the set contains.
func (w *Walker) Draw(dst []int32, root int32, world uint64, live LiveFunc) []int32 {
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
			}
		}
	}
	return dst
}

// DrawLT appends to dst the RR set rooted at root under the linear-threshold
// model with an explicit per-node uniform unif(world, v) — the categorical
// in-row walk of the LT live-edge view, stateless and order-independent.
// Each dequeued node selects at most one in-edge: the one whose
// cumulative-probability interval contains the uniform, none when the
// uniform lands in the remaining mass.
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
