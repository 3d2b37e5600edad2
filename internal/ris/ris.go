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
// Both walks read the graph's reverse CSR row by row — sources, coin keys
// and probabilities in three aligned arrays (graph.InEdges) — and draw
// straight off an rng.Coin: the world's mixing round is hashed once per
// draw, and each in-edge's coin is keyed by its stable forward edge key, so
// a walk reproduces the forward engines' coin flips for the same seed and
// world.
//
// Walker is the repository's only reverse walk. It has two consumers, each
// keeping its own sample bookkeeping: the SSR sketch solver draws
// coupon-indexed RR sets into its sample store, and the baselines rank their
// candidate pool by RR-set cover counts under the ssr engine. The
// coupon-capacity constraint of S3CRM breaks the plain reversibility
// argument (a node's reach depends on its coupon count), which is why the
// sketch solver gates each walk by coupon slot rather than using raw RR sets.
package ris

import (
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// Walker draws individual RR sets over g's shared reverse CSR, reusing its
// visited-stamp and queue scratch across draws. Callers own the sample
// bookkeeping: roots, world numbering and what is kept of each set. A
// Walker is not safe for concurrent use.
type Walker struct {
	g       *graph.Graph
	visited []int32
	queue   []int32
	gen     int32
}

// NewWalker prepares a walker over g's shared reverse CSR.
func NewWalker(g *graph.Graph) *Walker {
	w := &Walker{g: g, visited: make([]int32, g.NumNodes())}
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
// node whose forward path to root is live in world under coin — and returns
// the extended slice. An in-edge is live when coin.Live(world, key, p) holds
// for its coin key and probability. Liveness is a per-edge bit, so the walk
// order within an in-row cannot change which nodes the set contains.
func (w *Walker) Draw(dst []int32, root int32, world uint64, coin rng.Coin) []int32 {
	wc := coin.World(world)
	cur := w.nextGen()
	visited, queue := w.visited, append(w.queue[:0], root)
	visited[root] = cur
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dst = append(dst, v)
		srcs, keys, probs := w.g.InEdges(v)
		for j, u := range srcs {
			if visited[u] != cur && wc.Live(uint64(keys[j]), probs[j]) {
				visited[u] = cur
				queue = append(queue, u)
			}
		}
	}
	w.queue = queue
	return dst
}

// DrawLT appends to dst the RR set rooted at root under the linear-threshold
// model — the categorical in-row walk of the LT live-edge view, stateless
// and order-independent. Node v's uniform is coin.Flip(world,
// itemBase|uint32(v)), so callers pick the item range that keeps the draw
// apart from their other coins. Each dequeued node selects at most one
// in-edge: the one whose cumulative-probability interval, summed in in-row
// order, contains the uniform; none when the uniform lands in the remaining
// mass.
func (w *Walker) DrawLT(dst []int32, root int32, world uint64, coin rng.Coin, itemBase uint64) []int32 {
	wc := coin.World(world)
	cur := w.nextGen()
	visited, queue := w.visited, append(w.queue[:0], root)
	visited[root] = cur
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		dst = append(dst, v)
		srcs, _, probs := w.g.InEdges(v)
		if len(probs) == 0 {
			continue
		}
		u := wc.Flip(itemBase | uint64(uint32(v)))
		cum := 0.0
		for j, p := range probs {
			cum += p
			if u < cum {
				if t := srcs[j]; visited[t] != cur {
					visited[t] = cur
					queue = append(queue, t)
				}
				break
			}
		}
	}
	w.queue = queue
	return dst
}
