package sketch

import (
	"slices"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
	"s3crm/internal/par"
	"s3crm/internal/ris"
	"s3crm/internal/rng"
)

// kmax is the number of coupon-indexed RR-set slots drawn per sampled root:
// slot c certifies the marginal reach of a candidate's (c+1)-th coupon.
// Marginal redemption decays quickly with the coupon index under the
// capacity process, so a small fixed depth captures nearly all of the
// allocatable gain; coupons past the depth are simply not offered by this
// engine (the forward engines remain unrestricted).
const kmax = 3

// Stateless draw keys. Every random decision a sample makes is a pure hash
// of (coin seed, world, item): worlds stride by worldsPerSample so each
// (sample, slot) pair owns a world, and the item keys below stay clear of
// both forward edge indices and the forward substrates' LT node keys
// (diffusion.LTItemKey), so no SSR draw can collide with an engine draw even under
// a shared seed. Because every draw is keyed by the global sample index —
// never by a worker id — a sharded parallel build produces byte-identical
// collections for any worker count.
const (
	worldsPerSample = kmax + 1
	itemRoot        = uint64(1) << 41
	itemGate        = itemRoot + 1
	itemLTBase      = uint64(1) << 42
)

// universe is the root-sampling domain: the forward closure of the pivot
// sources (every user a feasible deployment could conceivably activate
// starts from some pivot seed), truncated at cap nodes in BFS-from-best-
// pivot order on graphs too large to close. Roots are drawn proportionally
// to benefit, so a sample's coverage estimates the benefit-weighted
// activation probability and cover counts scale directly to B(S, K).
type universe struct {
	nodes []int32
	cum   []float64 // cumulative benefit over nodes
	total float64   // W_U, the truncated objective's ceiling
}

func buildUniverse(inst *diffusion.Instance, pivots []Pivot, limit int) *universe {
	g := inst.G
	n := g.NumNodes()
	seen := make([]bool, n)
	queue := make([]int32, 0, min(limit, n))
	for _, p := range pivots {
		if len(queue) >= limit {
			break
		}
		if !seen[p.Node] {
			seen[p.Node] = true
			queue = append(queue, p.Node)
		}
	}
	for head := 0; head < len(queue) && len(queue) < limit; head++ {
		ts, _ := g.OutEdges(queue[head])
		for _, t := range ts {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
				if len(queue) >= limit {
					break
				}
			}
		}
	}
	u := &universe{nodes: queue, cum: make([]float64, len(queue))}
	for i, v := range queue {
		u.total += inst.Benefit[v]
		u.cum[i] = u.total
	}
	return u
}

// pick maps a uniform x in [0,1) to a node, benefit-proportionally.
func (u *universe) pick(x float64) int32 {
	t := x * u.total
	lo, hi := 0, len(u.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u.cum[mid] > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return u.nodes[lo]
}

// gateScan caps how many of a root's in-edges the acceptance gates average
// over. The reverse CSR sorts in-rows by descending influence probability,
// so the prefix carries the mass that matters; the cap keeps hub roots from
// turning a cached O(1) lookup into an O(deg²) scan.
const gateScan = 32

// gates caches, per root, the slot acceptance probabilities α_c(r): the
// probability that an activator's (c+1)-th coupon is actually usable on r,
// i.e. survives the redemption-capacity competition among the activator's
// other out-neighbours, conditioned on the edge firing. Slot c of a sample
// is drawn only when its gate passes, which is exactly how SSR sampling
// folds the capacity constraint — the part that breaks plain RIS — into
// the sample distribution. α is computed from the capacity DP of
// diffusion.RedeemProbs, probability-weighted over the root's strongest
// in-edges, and depends only on the instance, so one table serves both
// sample collections. The table is node-indexed — root r's α lives at
// alpha[r·kmax:(r+1)·kmax], valid once filled[r] is set — and compute is
// pure given its scratch, so prefill can fan fills across workers; a
// filled table is read-only and safe to share across draw shards.
type gates struct {
	inst   *diffusion.Instance
	alpha  []float64 // len = nodes·kmax
	filled []bool    // len = nodes
}

func newGates(inst *diffusion.Instance) *gates {
	ga := &gates{inst: inst}
	ga.grow(inst.G.NumNodes())
	return ga
}

// grow extends the table to n nodes; entries for new nodes start unfilled.
func (ga *gates) grow(n int) {
	if extra := n - len(ga.filled); extra > 0 {
		ga.alpha = append(ga.alpha, make([]float64, extra*kmax)...)
		ga.filled = append(ga.filled, make([]bool, extra)...)
	}
}

// row is root r's slot of the table, filled or not.
func (ga *gates) row(r int32) []float64 {
	i := int(r) * kmax
	return ga.alpha[i : i+kmax : i+kmax]
}

// compute derives α for root r into a (len kmax) using the caller's DP
// scratch; it reads only the instance, so concurrent calls with distinct
// outputs and scratches are safe.
func (ga *gates) compute(r int32, a []float64, dist *[kmax + 1]float64) {
	g := ga.inst.G
	clear(a)
	srcs, _, _ := g.InEdges(r)
	if len(srcs) > gateScan {
		srcs = srcs[:gateScan]
	}
	sumP := 0.0
	for _, u := range srcs {
		j := g.NeighborRank(u, r)
		_, probs := g.OutEdges(u)
		// One capacity-DP pass over the positions before j yields the
		// redeemed-count distribution for every capacity c <= kmax at once:
		// dist[c] is exact for c < kmax (truncation only lumps states that
		// are already over every capacity we read).
		*dist = [kmax + 1]float64{}
		dist[0] = 1
		for m := 0; m < j; m++ {
			p := probs[m]
			for c := kmax; c >= 1; c-- {
				dist[c] += dist[c-1] * p
				dist[c-1] *= 1 - p
			}
		}
		pj := probs[j]
		sumP += pj
		prev, cum := 0.0, 0.0
		for c := 1; c <= kmax; c++ {
			cum += dist[c-1]
			rp := pj * cum // P(position j redeems | capacity c)
			a[c-1] += rp - prev
			prev = rp
		}
	}
	if sumP > 0 {
		for c := range a {
			a[c] /= sumP
			if a[c] > 1 {
				a[c] = 1
			}
		}
	} else {
		for c := range a {
			a[c] = 0
		}
	}
}

func (ga *gates) alphas(r int32) []float64 {
	a := ga.row(r)
	if !ga.filled[r] {
		var dist [kmax + 1]float64
		ga.compute(r, a, &dist)
		ga.filled[r] = true
	}
	return a
}

// prefill fills α for every distinct unfilled root in roots, fanning the
// capacity DPs across workers with per-worker scratch. The filled marks are
// set on the calling goroutine (they double as the dedup marks) and each
// worker writes only its own roots' rows, so after prefill the table is
// read-only for the draw shards.
func (ga *gates) prefill(roots []int32, workers int) {
	var need []int32
	for _, r := range roots {
		if !ga.filled[r] {
			ga.filled[r] = true
			need = append(need, r)
		}
	}
	par.Each(len(need), workers, func() func(int) {
		var dist [kmax + 1]float64
		return func(i int) { ga.compute(need[i], ga.row(need[i]), &dist) }
	})
}

// store is one SSR sample collection. Sample i consists of a
// benefit-proportional root r_i and kmax coupon-indexed RR sets: slot c is
// drawn (over the shared reverse CSR, in world i·worldsPerSample+c) only
// when its acceptance gate α_c(r_i) passes, and records every node whose
// (c+1)-th coupon could push influence to r_i. Member lists live in one
// flat arena addressed by per-(sample, slot) offsets; the inverted indexes
// answer the maximizer's "which samples does this move cover" and the
// forward lists its exact cover-degree decrements. All draws are keyed by
// sample index, so extending the store is deterministic and
// prefix-preserving — a doubling round reuses every earlier sample — and a
// worker-sharded extension (contiguous sample ranges per worker, merged in
// sample order) is byte-identical to the sequential build.
//
// marks holds the per-sample max-touched-key watermark: the number of keyed
// edges that existed when the sample was (re)drawn. The append-only key
// space makes it the reuse certificate after churn — an appended edge can
// only perturb a sample if its key is at or past the sample's watermark and
// it touches a row the sample's reverse walks read (see Warm).
type store struct {
	u      *universe
	ga     *gates
	coin   rng.Coin
	g      *graph.Graph
	walker *ris.Walker
	extra  []*ris.Walker // per-shard walkers beyond walker, grown lazily
	lt     bool

	roots []int32 // per-sample root
	marks []int64 // per-sample watermark: keyed-edge count at draw time
	arena []int32 // concatenated slot member lists (roots excluded)
	offs  []int64 // len = numSamples·kmax + 1

	// Inverted indexes, rebuilt by index after every extend and rebuild:
	// root maps a node to the samples rooted at it, slot[c] to the samples
	// whose slot-c set holds it, each list in ascending sample order.
	root postings
	slot [kmax]postings
}

// postings is an inverted node → samples index in CSR form: node v's
// samples are post[off[v]:off[v+1]].
type postings struct {
	off  []int64 // len = nodes+1
	post []int32
}

// list returns v's samples, nil for ids past the index.
func (p *postings) list(v int32) []int32 {
	if int(v)+1 >= len(p.off) {
		return nil
	}
	return p.post[p.off[v]:p.off[v+1]]
}

func newStore(inst *diffusion.Instance, u *universe, ga *gates, seed uint64, lt bool) *store {
	return &store{
		u: u, ga: ga,
		coin:   rng.NewCoin(seed),
		g:      inst.G,
		walker: ris.NewWalker(inst.G),
		lt:     lt,
		offs:   make([]int64, 1),
	}
}

func (st *store) len() int { return len(st.roots) }

// rootList returns the samples rooted at v, in ascending order.
func (st *store) rootList(v int32) []int32 { return st.root.list(v) }

// slotList returns the samples whose slot-c set holds v, in ascending order.
func (st *store) slotList(c int, v int32) []int32 { return st.slot[c].list(v) }

// retarget points the store's draw machinery at inst's (extended) graph;
// existing samples keep their draws — the stable per-edge coin keys make a
// redraw over the new graph reproduce every walk that never touched an
// appended row. The shared gate table grows to the new node count.
func (st *store) retarget(inst *diffusion.Instance) {
	st.g = inst.G
	st.walker = ris.NewWalker(inst.G)
	st.extra = nil
	st.ga.grow(inst.G.NumNodes())
}

// shardMinSamples is the smallest per-shard sample count worth a goroutine:
// below it, shard setup and the merge copy dominate the draws.
const shardMinSamples = 64

// shardDraw is one worker's slice of an extension: a contiguous sample
// range's member arena and per-slot offsets, local to the shard. Shards
// merge in worker order — ascending sample order — so the merged store is
// byte-identical to a sequential build.
type shardDraw struct {
	arena []int32
	offs  []int64 // shard-relative; entry per (sample, slot)
}

// drawSample appends sample i's kmax slot member lists (root excluded) to
// arena, with one end offset per slot in offs, drawing with walker wk.
// scratch is reused walk storage; the grown buffers are returned.
func (st *store) drawSample(i int, wk *ris.Walker, arena []int32, offs []int64, scratch []int32) ([]int32, []int64, []int32) {
	root := st.roots[i]
	alphas := st.ga.alphas(root)
	w0 := uint64(i) * worldsPerSample
	for c := 0; c < kmax; c++ {
		w := w0 + uint64(c)
		members := scratch[:0]
		if st.coin.Flip(w, itemGate) < alphas[c] {
			if st.lt {
				members = wk.DrawLT(members, root, w, st.coin, itemLTBase)
			} else {
				members = wk.Draw(members, root, w, st.coin)
			}
		}
		for _, v := range members {
			if v != root { // the root's own coupons never activate the root
				arena = append(arena, v)
			}
		}
		offs = append(offs, int64(len(arena)))
		scratch = members
	}
	return arena, offs, scratch
}

// drawShard draws samples [lo, hi) with the given walker. It reads only
// immutable store state (the universe, the prefilled gate table, the roots
// prefix and the stateless coin), so shards run concurrently.
func (st *store) drawShard(lo, hi int, wk *ris.Walker) *shardDraw {
	sd := &shardDraw{}
	var scratch []int32
	for i := lo; i < hi; i++ {
		sd.arena, sd.offs, scratch = st.drawSample(i, wk, sd.arena, sd.offs, scratch)
	}
	return sd
}

// shardWalker returns the walker for shard k, growing the lazily allocated
// pool; walkers are not safe for concurrent use, so each shard owns one.
func (st *store) shardWalker(k int) *ris.Walker {
	if k == 0 {
		return st.walker
	}
	for len(st.extra) < k {
		st.extra = append(st.extra, ris.NewWalker(st.g))
	}
	return st.extra[k-1]
}

// extend draws samples until the store holds target of them, sharding the
// draws across up to workers goroutines. Roots are assigned sequentially
// (cheap benefit-proportional picks), the gate DPs prefill in parallel, the
// walk shards merge in worker order, and the inverted indexes are rebuilt
// by a counting pass, so the result is byte-identical for any worker count.
func (st *store) extend(target, workers int) {
	lo := st.len()
	if target <= lo {
		return
	}
	mark := int64(st.g.NumEdges())
	for i := lo; i < target; i++ {
		root := st.u.pick(st.coin.Flip(uint64(i)*worldsPerSample, itemRoot))
		st.roots = append(st.roots, root)
		st.marks = append(st.marks, mark)
	}
	st.ga.prefill(st.roots[lo:], workers)

	n := target - lo
	w := max(1, min(workers, n/shardMinSamples))
	// Grow the walker pool here: shardWalker appends to st.extra, so the
	// shards must only read it.
	st.shardWalker(w - 1)
	shards := make([]*shardDraw, w)
	par.Ranges(n, w, func(k, slo, shi int) {
		shards[k] = st.drawShard(lo+slo, lo+shi, st.shardWalker(k))
	})
	var members, slots int
	for _, sd := range shards {
		members += len(sd.arena)
		slots += len(sd.offs)
	}
	st.arena = slices.Grow(st.arena, members)
	st.offs = slices.Grow(st.offs, slots)
	for _, sd := range shards {
		base := int64(len(st.arena))
		st.arena = append(st.arena, sd.arena...)
		for _, o := range sd.offs {
			st.offs = append(st.offs, base+o)
		}
	}
	st.index(workers)
}

// rebuild re-packs the arena and offsets after churn: samples not marked
// bad are copied bit-for-bit, bad ones are re-drawn over the (re-targeted)
// graph with their original sample-index keys — exactly the draw a cold
// build at the same index would make over the new rows — and the inverted
// indexes are rebuilt over the result. Roots are untouched: the
// root-sampling universe stays frozen between full builds, so sample i's
// root never moves.
func (st *store) rebuild(bad []bool, workers int) (reused, redrawn int) {
	mark := int64(st.g.NumEdges())
	arena := make([]int32, 0, len(st.arena))
	offs := make([]int64, 1, cap(st.offs))
	var scratch []int32
	for i := 0; i < st.len(); i++ {
		if !bad[i] {
			reused++
			base := i * kmax
			lo, hi := st.offs[base], st.offs[base+kmax]
			shift := int64(len(arena)) - lo
			arena = append(arena, st.arena[lo:hi]...)
			for _, o := range st.offs[base+1 : base+kmax+1] {
				offs = append(offs, o+shift)
			}
			continue
		}
		redrawn++
		st.marks[i] = mark
		arena, offs, scratch = st.drawSample(i, st.walker, arena, offs, scratch)
	}
	st.arena, st.offs = arena, offs
	st.index(workers)
	return reused, redrawn
}

// index rebuilds the root and per-slot inverted indexes from roots and the
// member arena, sized by the graph's current node count. The four indexes
// are independent, so they build on up to workers goroutines; each is a
// deterministic counting pass, so the output does not depend on the worker
// count.
func (st *store) index(workers int) {
	nodes, samples := st.g.NumNodes(), st.len()
	jobs := [kmax + 1]func(){func() {
		st.root.count(nodes, samples, func(i int) []int32 { return st.roots[i : i+1] })
	}}
	for c := 0; c < kmax; c++ {
		jobs[c+1] = func() {
			st.slot[c].count(nodes, samples, func(i int) []int32 { return st.members(i, c) })
		}
	}
	par.Each(len(jobs), workers, func() func(int) { return func(j int) { jobs[j]() } })
}

// count rebuilds p as the CSR index over nodes of samples [0, samples),
// where list(i) holds sample i's distinct nodes, reusing p's arrays where
// they fit. The first pass counts per node into off[v] and prefix-sums it
// to v's end; the second walks the samples backwards and places each at its
// node's decremented cursor, which leaves off[v] at v's start and every
// list in ascending sample order.
func (p *postings) count(nodes, samples int, list func(i int) []int32) {
	off := p.off
	if len(off) == nodes+1 {
		clear(off)
	} else {
		off = make([]int64, nodes+1)
	}
	for i := 0; i < samples; i++ {
		for _, v := range list(i) {
			off[v]++
		}
	}
	for v := 1; v < nodes; v++ {
		off[v] += off[v-1]
	}
	if nodes > 0 {
		off[nodes] = off[nodes-1]
	}
	post := p.post[:0]
	if size := int(off[nodes]); cap(post) >= size {
		post = post[:size]
	} else {
		post = make([]int32, size)
	}
	for i := samples - 1; i >= 0; i-- {
		for _, v := range list(i) {
			off[v]--
			post[off[v]] = int32(i)
		}
	}
	p.off, p.post = off, post
}

// members returns sample i's slot-c member list.
func (st *store) members(i, c int) []int32 {
	base := i*kmax + c
	return st.arena[st.offs[base]:st.offs[base+1]]
}
