package sketch

import (
	"hash/fnv"
	"math"
	"slices"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
)

// Warm is a poolable SSR sample state: the root universe, the gate cache
// and both sample collections of a finished Solve, plus the bookkeeping
// needed to reuse them in a later call. A Warm that is exact and unchurned
// replays the cold doubling schedule bit-identically; after append-only
// churn (NoteChurn), patch re-draws only the samples an appended edge
// provably perturbed — the reuse is then ε-accurate, not bit-exact,
// because the root universe and the per-sample roots stay frozen between
// full builds.
//
// Invalidation is per-edge, not per-endpoint: because every draw is a
// stateless hash of (world, item), patch can replay exactly the decisions
// a kept sample's walk would make against an appended edge. An IC sample
// covering the edge's head re-draws only when the edge's coin is live in
// that sample's world; a gate-affected root re-draws only when its
// recomputed α actually flips the sample's gate decision. Samples untouched
// by both probes are bit-for-bit what a cold draw over the patched graph
// would produce.
type Warm struct {
	inst *diffusion.Instance
	seed uint64
	lt   bool
	sig  uint64 // pivot-queue fingerprint; exact reuse requires equality

	u        *universe
	ga       *gates
	st1, st2 *store

	// exact means the collections equal what a cold build over inst would
	// draw: set on cold builds and preserved by exact replays, cleared by
	// churn and never regained by patching.
	exact bool

	// Pending churn, accumulated across NoteChurn calls: the appended edges
	// themselves, with the stable coin key each was assigned. Keys grow
	// monotonically, so comparing a key against a sample's watermark is
	// exactly "was this edge appended after the sample's draw".
	churn []churnEdge

	// Reuse accounting from the most recent patch.
	Reused, Redrawn int
}

// churnEdge is one appended edge together with the stable coin key the
// graph assigned it, which is both the sample-watermark comparand and the
// identity patch probes when replaying a kept sample's coin flips.
type churnEdge struct {
	key      int64
	from, to int32
	p        float64
}

// Exact reports whether the state still equals a cold build over its
// instance (required for bit-identical reuse by Solve).
func (w *Warm) Exact() bool { return w != nil && w.exact }

// Dirty reports whether churn has been noted since the last build or patch.
func (w *Warm) Dirty() bool { return w != nil && len(w.churn) > 0 }

// usable reports whether the state was built under the same draw identity
// as the requesting config: same seed (the coin streams) and model, over
// the instance the caller is solving.
func (w *Warm) usable(inst *diffusion.Instance, seed uint64, lt bool) bool {
	return w != nil && w.st1 != nil && w.inst == inst && w.seed == seed && w.lt == lt
}

// NoteChurn records an appended edge batch whose keys are firstKey,
// firstKey+1, … (the append-only key contract of graph.WithEdges), and
// re-points the state at the extended instance. Idle pooled warms receive
// one NoteChurn per ApplyEdges batch; the actual sample patching is
// deferred to the next solve that checks the state out.
func (w *Warm) NoteChurn(inst *diffusion.Instance, batch []graph.Edge, firstKey int64) {
	if w == nil || w.st1 == nil {
		return
	}
	for i, e := range batch {
		w.churn = append(w.churn, churnEdge{
			key: firstKey + int64(i), from: e.From, to: e.To, p: e.P,
		})
	}
	w.inst = inst
	w.exact = false
}

// patch re-validates the collections against the accumulated churn and
// re-draws only the samples an appended edge provably perturbed. Two probes
// decide, both exact replays of the draws a cold build over the patched
// graph would make:
//
// Gates. A root's α DP reads its strongest in-rows and, per in-neighbour u,
// the probabilities out-ranking the u→root edge in u's out-row — a multiset
// the DP folds in row order. An appended edge perturbs it only by entering
// the root's scanned in-prefix or out-ranking an existing u→root edge, and
// merged rows keep existing entries in their relative order, so recomputing
// α over the patched graph and comparing bit-for-bit detects exactly the
// affected roots. Even then a sample re-draws only if the new α flips one
// of its gate decisions against its replayed gate coin — every kept
// sample's decisions stay consistent with the (updated) cache, which is
// what makes the flip comparison sound across successive patches.
//
// Walks. Reverse walks read only the in-rows of the nodes they record (the
// root and the slot members), and every per-edge decision is keyed by the
// edge's stable coin key. An appended edge u→v therefore touches a sample
// only if the sample recorded v at or before the append (watermark test)
// — and under IC only if the edge's coin is actually live in that sample's
// world, which patch replays directly. Under LT the categorical in-row
// draw at v re-maps whenever v's row grows, so coverage alone invalidates.
//
// Survivors are copied bit-for-bit; the rest re-draw over the patched
// graph under their original sample-index keys. Redraws are few by
// construction, so the rebuild runs sequentially.
func (w *Warm) patch() {
	if !w.Dirty() {
		return
	}
	g := w.inst.G
	w.ga.inst = w.inst
	w.st1.retarget(w.inst)
	w.st2.retarget(w.inst)

	byTo := make(map[int32][]churnEdge)
	fromSet := make(map[int32]bool)
	for _, e := range w.churn {
		byTo[e.to] = append(byTo[e.to], e)
		fromSet[e.from] = true
	}

	stores := [2]*store{w.st1, w.st2}
	bads := [2][]bool{}
	for si, st := range stores {
		bads[si] = make([]bool, st.len())
	}

	// Gate probe: recompute α for every cached root whose DP inputs may have
	// moved, keep the cache current, and flag only the samples whose gate
	// decisions flip under the new values.
	var dist [kmax + 1]float64
	for r, old := range w.ga.cache {
		touched := byTo[r] != nil
		if !touched {
			srcs, _ := g.InEdges(r)
			if len(srcs) > gateScan {
				srcs = srcs[:gateScan]
			}
			for _, u := range srcs {
				if fromSet[u] {
					touched = true
					break
				}
			}
		}
		if !touched {
			continue
		}
		a2 := w.ga.compute(r, &dist)
		if slices.Equal(old, a2) {
			continue
		}
		w.ga.cache[r] = a2
		for si, st := range stores {
			for _, s := range st.rootCover[r] {
				wd := uint64(s) * worldsPerSample
				for c := 0; c < kmax; c++ {
					f := st.coin.Flip(wd+uint64(c), itemGate)
					if (f < old[c]) != (f < a2[c]) {
						bads[si][s] = true
						break
					}
				}
			}
		}
	}

	// Walk probe: an appended edge into v reaches a sample's walk only
	// through v's in-row, i.e. only when the sample recorded v (as root or
	// member) before the append.
	for si, st := range stores {
		bad := bads[si]
		hit := func(s int32, c int, edges []churnEdge) bool {
			wd := uint64(s)*worldsPerSample + uint64(c)
			for _, e := range edges {
				if e.key < st.marks[s] {
					continue // the sample's draw already saw this edge
				}
				if st.lt || st.coin.Live(wd, uint64(e.key), e.p) {
					return true
				}
			}
			return false
		}
		for v, edges := range byTo {
			for _, s := range st.rootCover[v] {
				if bad[s] {
					continue
				}
				alphas := w.ga.alphas(v)
				wd := uint64(s) * worldsPerSample
				for c := 0; c < kmax; c++ {
					// A closed gate drew no walk from the root, so there is
					// no in-row read for the appended edge to perturb.
					if st.coin.Flip(wd+uint64(c), itemGate) >= alphas[c] {
						continue
					}
					if hit(s, c, edges) {
						bad[s] = true
						break
					}
				}
			}
			for c := 0; c < kmax; c++ {
				for _, s := range st.slotCover[c][v] {
					if !bad[s] && hit(s, c, edges) {
						bad[s] = true
					}
				}
			}
		}
	}

	reused, redrawn := 0, 0
	for si, st := range stores {
		re, rd := st.rebuild(bads[si])
		reused += re
		redrawn += rd
	}
	w.Reused, w.Redrawn = reused, redrawn
	w.churn = nil
}

// pivotSig fingerprints a pivot queue; exact warm reuse requires the queue
// that will drive the cover passes to match the one the state was built
// for bit by bit.
func pivotSig(pivots []Pivot) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(x >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, p := range pivots {
		put(uint64(uint32(p.Node)))
		put(uint64(p.K))
		put(math.Float64bits(p.Rate))
	}
	return h.Sum64()
}
