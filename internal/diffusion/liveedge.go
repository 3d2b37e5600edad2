package diffusion

import (
	"math/bits"
	"sync/atomic"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// Diffusion substrate names accepted by EngineOptions.Diffusion. The choice
// is not a public knob: every caller runs the live-edge substrate, which
// itself falls back to hashing past its memory budget, and DiffusionHash
// stays as the oracle tests build through NewEngineOpts.
const (
	// DiffusionLiveEdge (the default) materializes each world's edge
	// liveness once so the propagation kernel, the world-cache frontier
	// replay and RIS sketch generation read precomputed state instead of
	// recomputing a splitmix64 hash chain per probe. What is materialized
	// is owned by the triggering model: under IC, per-edge bit rows (one
	// bit per possible world); under LT, per-node chosen-in-edge rows (the
	// forward index of the node's selected in-edge per world). Under common
	// random numbers liveness is deployment-independent, which is what
	// makes the one-off materialization sound. Rows are filled lazily on
	// first probe (state no cascade ever reaches costs nothing) and capped
	// by a memory budget, beyond which probes fall back to hashing —
	// results are identical either way.
	DiffusionLiveEdge = "liveedge"
	// DiffusionHash recomputes the stateless per-probe function every time
	// (PR 1's behaviour for IC; for LT, the categorical in-row walk):
	// zero memory overhead, identical outcomes.
	DiffusionHash = "hash"
)

// Diffusions lists the diffusion substrates in documentation order.
func Diffusions() []string { return []string{DiffusionLiveEdge, DiffusionHash} }

// DefaultLiveEdgeMemBudget caps the memory a LiveEdges substrate may commit
// to materialized rows: 256 MiB, enough for 1000 worlds over a
// two-million-edge graph even if every edge is probed.
const DefaultLiveEdgeMemBudget = int64(256) << 20

// LiveEdges is the materialized per-world edge-liveness substrate — the
// object every engine probes through Live(world, edge), with the layout
// owned by the triggering model:
//
//   - IC: per global edge index, a packed row of one bit per possible world
//     holding the outcome of rng.Coin.Live for that (world, edge) pair. The
//     layout is edge-major because probe locality is by edge — every
//     evaluation of every deployment probes the same cascade-adjacent edges
//     across all worlds, so a row filled once (Samples hash flips) serves
//     every subsequent evaluation.
//   - LT: per node, a row of Samples forward edge indexes — the in-edge the
//     node selects in each world under the live-edge equivalence (-1 when
//     the selection lands past the in-weight sum), drawn by one uniform per
//     (world, node) walked down the shared reverse CSR's sorted in-row. A
//     probe of edge e answers chosen[target(e)][world] == e, so at most one
//     in-edge of a node is ever live in a world.
//
// Rows fill lazily on first probe and the total is capped by a byte budget;
// once the budget is exhausted the remaining probes hash per probe, with
// identical outcomes (the rows hold the hash function's own draws). Filling
// is safe for concurrent use: workers racing on a row each build the
// (identical, deterministic) contents and the first CAS wins.
type LiveEdges struct {
	coin    rng.Coin
	samples int
	spent   atomic.Int64 // bytes committed to filled rows
	budget  int64

	// Edge probabilities indexed by stable coin key, in the split form of
	// graph.KeyViewParts: keys < len(probs) read probs, later keys read the
	// overlay tail. On substrates over a plain CSR the tail is nil and
	// probs covers every key; the split is what lets Extend carry a churn
	// batch in O(batch) instead of copying the O(edges) flat view.
	probs     []float64
	tailProbs []float64

	// IC state: per-edge bit rows, with the same prefix/tail split. The
	// prefix is SHARED across an Extend lineage — coin keys are stable and
	// a row's contents are a pure function of (coin, key, probability), so
	// a row filled through any lineage member is bit-identical to the one
	// every other member would fill; extRows holds fresh slots for the
	// overlay keys only.
	words    int      // row words: (samples+63)/64
	worldMix []uint64 // per-world hash term, hoisted out of row fills
	rows     []atomic.Pointer[[]uint64]
	extRows  []atomic.Pointer[[]uint64]

	// LT state: per-node chosen-in-edge rows over the shared reverse CSR.
	lt          bool
	materialize bool         // false ⇒ every LT probe walks the in-row by hash
	g           *graph.Graph // reverse CSR access for the categorical walk
	targets     []int32      // coin key → target node, split like probs
	tailTargets []int32
	chosen      []atomic.Pointer[[]int32]
}

// prob returns the probability of the edge with the given coin key through
// the prefix/tail split. The tail branch is never taken on substrates over
// a plain CSR and predicts perfectly there.
func (le *LiveEdges) prob(edge uint64) float64 {
	if edge < uint64(len(le.probs)) {
		return le.probs[edge]
	}
	return le.tailProbs[edge-uint64(len(le.probs))]
}

// target returns the target node of the edge with the given coin key.
func (le *LiveEdges) target(edge uint64) int32 {
	if edge < uint64(len(le.targets)) {
		return le.targets[edge]
	}
	return le.tailTargets[edge-uint64(len(le.targets))]
}

// rowPtr returns the IC bit-row slot owning the given coin key.
func (le *LiveEdges) rowPtr(edge uint64) *atomic.Pointer[[]uint64] {
	if edge < uint64(len(le.rows)) {
		return &le.rows[edge]
	}
	return &le.extRows[edge-uint64(len(le.rows))]
}

// NewLiveEdges returns the independent-cascade substrate for samples worlds
// over g using coin, or nil when the budget cannot hold even a single row —
// the caller then probes the coin directly, with identical outcomes.
// memBudget <= 0 means DefaultLiveEdgeMemBudget.
func NewLiveEdges(g *graph.Graph, samples int, coin rng.Coin, memBudget int64) *LiveEdges {
	if memBudget <= 0 {
		memBudget = DefaultLiveEdgeMemBudget
	}
	if samples <= 0 || g.NumEdges() == 0 {
		return nil
	}
	words := (samples + 63) / 64
	if int64(words)*8 > memBudget {
		return nil // cannot materialize anything useful
	}
	baseP, _, tailP, _ := g.KeyViewParts()
	return &LiveEdges{
		coin:      coin,
		probs:     baseP,
		tailProbs: tailP,
		samples:   samples,
		words:     words,
		worldMix:  rng.WorldMix(samples),
		rows:      make([]atomic.Pointer[[]uint64], g.NumEdges()),
		budget:    memBudget,
	}
}

// NewLTLiveEdges returns the linear-threshold substrate for samples worlds
// over g using coin. Unlike the IC constructor it is required under LT even
// for hash-per-probe evaluation — the categorical in-row walk needs the
// reverse CSR — so materialize selects between DiffusionLiveEdge (per-node
// chosen rows within memBudget, hashing past it) and DiffusionHash (walk on
// every probe). Outcomes are identical either way. nil is returned only for
// empty-edge or zero-sample inputs, where no probe can ever occur.
// memBudget <= 0 means DefaultLiveEdgeMemBudget.
//
// Callers must have established the LT precondition (ValidateLTWeights):
// in-weight sums above 1 would truncate the categorical walk.
func NewLTLiveEdges(g *graph.Graph, samples int, coin rng.Coin, memBudget int64, materialize bool) *LiveEdges {
	if memBudget <= 0 {
		memBudget = DefaultLiveEdgeMemBudget
	}
	if samples <= 0 || g.NumEdges() == 0 {
		return nil
	}
	baseP, baseT, tailP, tailT := g.KeyViewParts()
	le := &LiveEdges{
		coin:        coin,
		probs:       baseP,
		tailProbs:   tailP,
		samples:     samples,
		budget:      memBudget,
		lt:          true,
		g:           g,
		targets:     baseT,
		tailTargets: tailT,
	}
	if materialize && int64(samples)*4 <= memBudget {
		le.materialize = true
		le.chosen = make([]atomic.Pointer[[]int32], g.NumNodes())
	}
	return le
}

// Live reports whether the edge with the given global index is live in
// world, materializing the owning row on first probe (or hashing when the
// memory budget is spent). world must be < the substrate's sample count.
func (le *LiveEdges) Live(world uint64, edge uint64) bool {
	if le.lt {
		return le.ltLive(world, edge)
	}
	rp := le.rowPtr(edge).Load()
	if rp == nil {
		if rp = le.fill(edge); rp == nil {
			return le.coin.Live(world, edge, le.prob(edge))
		}
	}
	return (*rp)[world>>6]&(1<<(world&63)) != 0
}

// BlockMask answers up to 64 probes of one edge at once: bit b of the
// result reports the edge's liveness in world worldBase+b, for every set
// bit b of probe. worldBase must be 64-aligned and bits of probe at or past
// the sample count must be clear. Outcomes are bit-identical to 64 Live
// calls: under IC the materialized row IS the block word (one load, one
// AND), and every fallback — budget-exhausted IC rows, LT chosen-row
// compares, the LT categorical walk — recomputes exactly the per-world draw
// the scalar path reads.
func (le *LiveEdges) BlockMask(worldBase uint64, edge uint64, probe uint64) uint64 {
	if probe == 0 {
		return 0
	}
	if le.lt {
		return le.ltBlockMask(worldBase, edge, probe)
	}
	rp := le.rowPtr(edge).Load()
	if rp == nil {
		rp = le.fill(edge)
	}
	if rp != nil {
		return (*rp)[worldBase>>6] & probe
	}
	// Budget-exhausted row: flip the scalar coin per probed world.
	var m uint64
	p := le.prob(edge)
	for b := probe; b != 0; b &= b - 1 {
		w := uint64(bits.TrailingZeros64(b))
		if le.coin.Live(worldBase+w, edge, p) {
			m |= 1 << w
		}
	}
	return m
}

// ltBlockMask is BlockMask's LT form: the edge is live in a world exactly
// when its target selected it there, read per probed world from the
// target's materialized chosen row (one int32 compare per world, no hash
// walk) or recomputed by the categorical walk past the memory budget.
func (le *LiveEdges) ltBlockMask(worldBase uint64, edge uint64, probe uint64) uint64 {
	t := le.target(edge)
	var m uint64
	if le.materialize {
		rp := le.chosen[t].Load()
		if rp == nil {
			rp = le.fillLT(t)
		}
		if rp != nil {
			row := *rp
			for b := probe; b != 0; b &= b - 1 {
				w := uint64(bits.TrailingZeros64(b))
				if row[worldBase+w] == int32(edge) {
					m |= 1 << w
				}
			}
			return m
		}
	}
	for b := probe; b != 0; b &= b - 1 {
		w := uint64(bits.TrailingZeros64(b))
		if le.ltChoice(worldBase+w, t) == int32(edge) {
			m |= 1 << w
		}
	}
	return m
}

// fill materializes one edge's IC bit row, flipping its coin once per
// world. It returns nil — leaving the row unmaterialized — when the byte
// budget is exhausted.
func (le *LiveEdges) fill(edge uint64) *[]uint64 {
	rowBytes := int64(le.words) * 8
	if le.spent.Add(rowBytes) > le.budget {
		le.spent.Add(-rowBytes)
		return nil
	}
	row := make([]uint64, le.words)
	le.coin.FillRow(row, le.worldMix, edge, le.prob(edge))
	slot := le.rowPtr(edge)
	if !slot.CompareAndSwap(nil, &row) {
		le.spent.Add(-rowBytes) // a racing worker won; use its copy
		return slot.Load()
	}
	return &row
}

// ltLive answers an LT probe: the edge is live exactly when its target
// selected it, read from the node's materialized chosen row when available
// and recomputed by the categorical walk otherwise — bit-identical by
// construction, since the rows hold ltChoice's own draws.
func (le *LiveEdges) ltLive(world uint64, edge uint64) bool {
	t := le.target(edge)
	if le.materialize {
		rp := le.chosen[t].Load()
		if rp == nil {
			rp = le.fillLT(t)
		}
		if rp != nil {
			return (*rp)[world] == int32(edge)
		}
	}
	return le.ltChoice(world, t) == int32(edge)
}

// ltItemKey maps a node id into a coin item key disjoint from every global
// edge index (edge indexes are bounded by the int32 CSR cap, well below
// 2^40), so at a shared seed the LT selection uniforms never coincide with
// IC's per-edge coin flips — the two models' streams share no draws.
func ltItemKey(t int32) uint64 { return uint64(uint32(t)) | 1<<40 }

// ltChoice returns the forward global index of the in-edge node t selects
// in world, or -1 when the draw lands past the in-weight sum (no live
// in-edge — the 1 − Σ w mass of the LT live-edge distribution). One
// uniform per (world, node) is walked down the reverse CSR's sorted in-row;
// the accumulation order is fixed by that row, so every caller — row fills
// and per-probe hashing alike — computes the identical choice.
func (le *LiveEdges) ltChoice(world uint64, t int32) int32 {
	_, eidx := le.g.InEdges(t)
	if len(eidx) == 0 {
		return -1
	}
	u := le.coin.Flip(world, ltItemKey(t))
	cum := 0.0
	for _, e := range eidx {
		cum += le.prob(uint64(e))
		if u < cum {
			return e
		}
	}
	return -1
}

// chosenEdge returns the forward key of the in-edge node t selects in
// world — the materialized row when present, the categorical walk otherwise.
// The graph-churn patch compares old against new selections through it.
func (le *LiveEdges) chosenEdge(world uint64, t int32) int32 {
	if le.materialize {
		if rp := le.chosen[t].Load(); rp != nil {
			return (*rp)[world]
		}
	}
	return le.ltChoice(world, t)
}

// fillLT materializes node t's chosen-in-edge row, drawing its categorical
// choice once per world. It returns nil — leaving the row unmaterialized —
// when the byte budget is exhausted.
func (le *LiveEdges) fillLT(t int32) *[]int32 {
	rowBytes := int64(le.samples) * 4
	if le.spent.Add(rowBytes) > le.budget {
		le.spent.Add(-rowBytes)
		return nil
	}
	row := make([]int32, le.samples)
	for w := range row {
		row[w] = le.ltChoice(uint64(w), t)
	}
	if !le.chosen[t].CompareAndSwap(nil, &row) {
		le.spent.Add(-rowBytes) // a racing worker won; use its copy
		return le.chosen[t].Load()
	}
	return &row
}

// SpentBytes returns the bytes currently committed to materialized rows.
func (le *LiveEdges) SpentBytes() int64 { return le.spent.Load() }

// Extend returns a substrate over the churn-extended graph g that carries
// forward every still-valid materialized row from the receiver, which is
// left untouched (in-flight views keep probing it consistently).
//
//   - IC: rows are edge-major and coin keys are stable, so the receiver's
//     whole row-slot prefix is shared outright — a row's contents are a pure
//     function of (coin, key, probability) and existing probabilities never
//     change under append, so a row filled through either substrate is the
//     row the other would fill, and lazy fills after the extension benefit
//     both. Appended edges get fresh slots in an O(overlay) side array and
//     fill lazily on first probe — one salted coin per (world, new edge),
//     exactly the coins a cold substrate over g would flip. The spent
//     counter carries over as-is: the shared prefix is one allocation, and
//     post-extension fills bill whichever substrate triggers them, keeping
//     the budget a cap on real memory.
//   - LT: chosen-in-edge rows transfer except for the nodes in churnTargets
//     (the targets of appended edges), whose in-distribution changed: their
//     rows are dropped and re-drawn lazily against the new reverse in-row,
//     reproducing the cold draw bit-for-bit (the selection uniform depends
//     only on (world, node)).
//
// churnTargets is ignored under IC. Either way the work is O(overlay + n),
// never O(edges) — the cost that would put a full-array copy back on the
// churn path.
func (le *LiveEdges) Extend(g *graph.Graph, churnTargets []int32) *LiveEdges {
	baseP, baseT, tailP, tailT := g.KeyViewParts()
	ne := &LiveEdges{
		coin:        le.coin,
		probs:       baseP,
		tailProbs:   tailP,
		samples:     le.samples,
		budget:      le.budget,
		words:       le.words,
		worldMix:    le.worldMix,
		lt:          le.lt,
		materialize: le.materialize,
	}
	if le.lt {
		ne.g = g
		ne.targets, ne.tailTargets = baseT, tailT
		if le.materialize {
			ne.chosen = make([]atomic.Pointer[[]int32], g.NumNodes())
			carried := int64(0)
			rowBytes := int64(le.samples) * 4
			for v := range le.chosen {
				if rp := le.chosen[v].Load(); rp != nil {
					ne.chosen[v].Store(rp)
					carried += rowBytes
				}
			}
			for _, t := range churnTargets {
				if int(t) < len(le.chosen) {
					if ne.chosen[t].Load() != nil {
						carried -= rowBytes
					}
					ne.chosen[t].Store(nil)
				}
			}
			ne.spent.Store(carried)
		}
		return ne
	}
	ne.rows = le.rows
	ne.extRows = make([]atomic.Pointer[[]uint64], g.NumEdges()-len(le.rows))
	for k := range le.extRows {
		if rp := le.extRows[k].Load(); rp != nil {
			ne.extRows[k].Store(rp)
		}
	}
	ne.spent.Store(le.spent.Load())
	return ne
}
