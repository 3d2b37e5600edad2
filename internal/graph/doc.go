// Package graph implements the weighted directed graph substrate underlying
// the S3CRM reproduction: a compact compressed-sparse-row (CSR) core sized
// for million-node social networks.
//
// # Model
//
// The paper models the OSN as a weighted digraph G = {V, E} where the weight
// P(e(i,j)) of edge e(i,j) is the influence probability with which vi
// activates vj. The social-coupon propagation model offers coupons to
// out-neighbours in descending order of influence probability, so the graph
// stores each node's out-adjacency pre-sorted by descending probability
// (ties broken by node id for determinism). That ordering is the load-bearing
// invariant of the whole reproduction: the position of a neighbour in the
// adjacency decides whether its edge is independent (position <= k) or
// dependent (position > k) for an allocation of k coupons.
//
// # Representation
//
// Both adjacency directions are flat CSR arrays:
//
//   - forward: offsets []int32 (len |V|+1), targets []int32, probs []float64
//     — node v's out-edges occupy [offsets[v], offsets[v+1]), sorted by
//     descending probability; the slice index of an edge is its global edge
//     index, the identity under which Monte-Carlo coin flips and live-edge
//     worlds address it;
//   - reverse: the transpose in the same layout, built lazily on first use
//     (reverse-influence sampling and the LT live-edge walk are the only
//     consumers), with each reverse slot carrying the edge's stable coin key
//     — so coin flips are shared with the forward direction — and a copy of
//     its probability, so reverse walks read their in-rows sequentially.
//
// Offsets are int32, which caps a graph at 2^31-1 edges — ~17 GiB of
// forward CSR — far past the million-node target; construction rejects
// anything larger. Probabilities stay float64 because the simulation kernel
// compares them against 53-bit uniform draws: narrowing them would perturb
// coin flips and break bit-identical engine parity.
//
// Edge lookups (EdgeProb, NeighborRank) scan the source's row; no per-edge
// index is kept beside the adjacency.
//
// # Construction
//
// Graphs are immutable once built. Construction goes through FromEdges when an
// []Edge already exists, and through StreamBuilder when it should not: StreamBuilder accumulates bare
// (from, to[, p]) arcs in columnar arrays and counting-sorts them straight
// into CSR, so external edge lists stream into the final representation
// without ever materializing per-edge structs. Duplicate arcs are rejected
// or dropped per DupPolicy, and influence probabilities can be assigned
// in-stream from a model (uniform, weighted-cascade 1/indegree, trivalency)
// once in-degrees are known — see ProbAssign.
//
// Duplicates are resolved in one pass over the rows, stamping each target
// with the row that last held it, before row finalization (the per-node
// probability sort), which is sharded across workers by contiguous node
// ranges; rows are independent, so the result is identical to the
// sequential build.
package graph
