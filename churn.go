package s3crm

import (
	"context"
	"fmt"
	"math"
	"sort"

	"s3crm/internal/core"
	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// EdgeAdd is one influence edge appended to a campaign's network: From
// gains an out-neighbour To with influence probability P. Edges are
// append-only — S3CRM campaigns run over growing social networks, and the
// engines patch their simulation state incrementally for appends (see
// DESIGN.md, "Dynamic graphs").
type EdgeAdd struct {
	From, To int
	P        float64
}

// ChurnStats reports what one ApplyEdges call did to the campaign's shared
// state.
type ChurnStats struct {
	// EdgesAdded and NodesAdded count the growth this batch caused. New
	// node ids (endpoints past the previous user count) join with the
	// builder defaults: benefit 1, seed cost 1, coupon cost 1.
	EdgesAdded int `json:"edges_added"`
	NodesAdded int `json:"nodes_added"`
	// Compacted reports that the delta overlay was folded back into a flat
	// CSR this call; OverlayEdges is the overlay size left afterwards.
	// Compaction preserves every edge's coin identity, so it is invisible
	// to the engines — only the read-path layout changes.
	Compacted    bool `json:"compacted"`
	OverlayEdges int  `json:"overlay_edges"`
	// LTRescaled reports that the batch pushed some user's in-weights past
	// the linear-threshold bound Σ w(u,v) ≤ 1 on an LT campaign, forcing a
	// global re-normalization (graph.CapInWeights). Rescaling changes edge
	// probabilities, so warm engine state cannot be patched: every pool is
	// dropped and rebuilt on next use. IC campaigns never rescale — they
	// drop only their LT-keyed pools, whose precondition the batch broke.
	LTRescaled bool `json:"lt_rescaled"`
	// SnapshotsPatched counts idle world-cache snapshots patched in place
	// (re-simulating only the worlds the appended edges can perturb);
	// PoolsDropped counts engine pools invalidated outright.
	SnapshotsPatched int `json:"snapshots_patched"`
	PoolsDropped     int `json:"pools_dropped"`
}

// compactAfterFraction is the overlay compaction trigger: once appended
// edges exceed this fraction of the total edge count the overlay is folded
// back into a flat CSR. Merged-row reads stay O(1) either way; compaction
// bounds the memory the merged rows and the key-indexed views duplicate.
const compactAfterFraction = 8 // overlay > 1/8 of edges

// ApplyEdges appends a batch of influence edges to the campaign's network
// and patches the warm evaluation state instead of rebuilding it: the graph
// advances through a copy-on-write delta overlay (in-flight calls keep the
// consistent pre-churn view they resolved), live-edge substrates extend by
// one coin per new edge, and pooled world-cache snapshots re-simulate only
// the worlds the new edges can perturb. The patched state is bit-exact: any
// call after ApplyEdges returns exactly what it would on a campaign built
// cold over the extended graph with the same coin-key assignment.
//
// The append is atomic with respect to concurrent calls — each call's
// engines resolve entirely before or entirely after it — and the batch is
// validated (duplicate arcs, probability range) before any state changes.
// Endpoints past the current user count grow the network; see ChurnStats.
func (c *Campaign) ApplyEdges(ctx context.Context, edges []EdgeAdd) (ChurnStats, error) {
	var st ChurnStats
	if len(edges) == 0 {
		return st, nil
	}
	if err := ctx.Err(); err != nil {
		return st, fmt.Errorf("s3crm: %w", err)
	}
	batch := make([]graph.Edge, len(edges))
	for i, e := range edges {
		if e.From < 0 || e.To < 0 || e.From > math.MaxInt32 || e.To > math.MaxInt32 {
			return st, fmt.Errorf("s3crm: edge (%d,%d) endpoint out of range", e.From, e.To)
		}
		batch[i] = graph.Edge{From: int32(e.From), To: int32(e.To), P: e.P}
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	oldN := c.inst.G.NumNodes()
	g2, err := c.inst.G.WithEdges(batch)
	if err != nil {
		return st, fmt.Errorf("s3crm: %w", err)
	}
	st.EdgesAdded = len(batch)
	st.NodesAdded = g2.NumNodes() - oldN

	if g2.OverlayEdges()*compactAfterFraction >= g2.NumEdges() {
		g2 = g2.Compact()
		st.Compacted = true
	}

	churnTargets := diffusion.ChurnTargets(batch)
	// The in-weight check sweeps every edge, so it runs only when an LT
	// engine can read it. A later LT call still validates the whole graph
	// when it builds its engine.
	if c.ltConsumerLocked() && len(diffusion.InWeightExcess(g2, churnTargets)) > 0 {
		if c.cfg.model == diffusion.ModelLT {
			// The campaign's own model needs the bound: re-normalize the
			// whole graph. Probabilities change, so no warm state survives.
			g2 = g2.CapInWeights()
			st.LTRescaled, st.Compacted = true, true
			st.PoolsDropped = len(c.engines)
			c.engines = make(map[engineKey]*enginePool)
		} else {
			// An IC campaign keeps its probabilities; only call-level LT
			// pools lose their precondition. Drop them — their next use
			// surfaces the validation error with the CapInWeights remedy.
			for k := range c.engines {
				if k.model == diffusion.ModelLT {
					delete(c.engines, k)
					st.PoolsDropped++
				}
			}
		}
	}

	inst2 := extendInstance(c.inst, g2)
	if !st.LTRescaled {
		for _, ep := range c.engines {
			st.SnapshotsPatched += ep.applyBatch(inst2, batch, churnTargets, c.cfg.workers)
		}
	}
	c.inst = inst2
	st.OverlayEdges = g2.OverlayEdges()
	c.noteChurnLocked(batch)
	return st, nil
}

// HoldOutEdges splits the problem for churn replay: it returns a copy with
// a uniform random fraction of the influence edges removed, plus the removed
// edges as an append stream for ApplyEdges. Replaying the stream restores
// exactly the original edge set (probabilities included), so the pair drives
// churn experiments and benchmarks — solve on the reduced problem, append
// the stream in batches, measure the re-solve. The split is deterministic in
// seed; node attributes and the budget are shared with the receiver.
func (p *Problem) HoldOutEdges(frac float64, seed uint64) (*Problem, []EdgeAdd, error) {
	edges := p.inst.G.Edges()
	m := len(edges)
	h := int(float64(m)*frac + 0.5)
	if frac <= 0 || frac >= 1 || h < 1 || h >= m {
		return nil, nil, fmt.Errorf("s3crm: cannot hold out fraction %v of %d edges", frac, m)
	}
	src := rng.New(seed)
	src.Shuffle(m, func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	kept, held := edges[:m-h], edges[m-h:]
	g, err := graph.FromEdges(p.inst.G.NumNodes(), kept)
	if err != nil {
		return nil, nil, fmt.Errorf("s3crm: %w", err)
	}
	reduced := &Problem{inst: &diffusion.Instance{
		G: g, Benefit: p.inst.Benefit, SeedCost: p.inst.SeedCost,
		SCCost: p.inst.SCCost, Budget: p.inst.Budget,
	}}
	stream := make([]EdgeAdd, len(held))
	for i, e := range held {
		stream[i] = EdgeAdd{From: int(e.From), To: int(e.To), P: e.P}
	}
	return reduced, stream, nil
}

// Users returns the campaign's current user count. Unlike Problem.Users it
// tracks ApplyEdges growth.
func (c *Campaign) Users() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inst.G.NumNodes()
}

// Edges returns the campaign's current influence-edge count, ApplyEdges
// appends included.
func (c *Campaign) Edges() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inst.G.NumEdges()
}

// extendInstance carries an instance onto an extended graph view. Node
// attribute arrays are shared when the user set is unchanged; appended
// users get the builder defaults (benefit, seed cost and coupon cost 1).
func extendInstance(inst *diffusion.Instance, g2 *graph.Graph) *diffusion.Instance {
	out := &diffusion.Instance{
		G: g2, Benefit: inst.Benefit, SeedCost: inst.SeedCost,
		SCCost: inst.SCCost, Budget: inst.Budget,
	}
	if n2 := g2.NumNodes(); n2 > len(inst.Benefit) {
		grow := func(a []float64) []float64 {
			b := make([]float64, n2)
			copy(b, a)
			for i := len(a); i < n2; i++ {
				b[i] = 1
			}
			return b
		}
		out.Benefit = grow(inst.Benefit)
		out.SeedCost = grow(inst.SeedCost)
		out.SCCost = grow(inst.SCCost)
	}
	return out
}

// ltConsumerLocked reports whether anything relies on the LT in-weight
// bound: the campaign's own model is lt, or a call-level LT pool exists.
// c.mu must be held.
func (c *Campaign) ltConsumerLocked() bool {
	if c.cfg.model == diffusion.ModelLT {
		return true
	}
	for k := range c.engines {
		if k.model == diffusion.ModelLT {
			return true
		}
	}
	return false
}

// noteChurnLocked accumulates the batch's distinct endpoints into the
// campaign's churn set — the candidate pool Resolve repairs over — in
// O(batch). c.mu must be held.
func (c *Campaign) noteChurnLocked(batch []graph.Edge) {
	if c.churnSeen == nil {
		c.churnSeen = make(map[int32]struct{}, 2*len(batch))
	}
	for _, e := range batch {
		for _, v := range [2]int32{e.From, e.To} {
			if _, ok := c.churnSeen[v]; !ok {
				c.churnSeen[v] = struct{}{}
				c.churned = append(c.churned, v)
			}
		}
	}
}

// consumeChurnLocked drops the first k endpoints of the churn set — those a
// Resolve just repaired over — keeping any a concurrent ApplyEdges queued
// since; the seen-set is rebuilt from what remains. A set already shorter
// than k was consumed by another Resolve and stays as it is. c.mu must be
// held.
func (c *Campaign) consumeChurnLocked(k int) {
	if len(c.churned) < k {
		return
	}
	c.churned = append([]int32(nil), c.churned[k:]...)
	clear(c.churnSeen)
	for _, v := range c.churned {
		c.churnSeen[v] = struct{}{}
	}
}

// resolveRepairLimit bounds the greedy repair loop: how many coupon-add
// moves one Resolve call may commit. Churn batches touch a vanishing
// fraction of the network, so a handful of local repairs recovers the
// redemption rate; anything larger should be a fresh Solve.
const resolveRepairLimit = 8

// Resolve warm-restarts the solver after graph churn: instead of searching
// from scratch it adopts prev's deployment, re-measures it on the patched
// engine state (a warm world-cache snapshot re-simulates only churn-affected
// worlds), and runs a bounded greedy repair over the endpoints ApplyEdges
// touched since the last Resolve — each step adds the coupon with the best
// measured redemption-rate gain, verified by exact incremental re-evaluation
// and reverted if the gain does not hold. The result is the repaired
// deployment's exact measurement; a nil prev falls back to a full Solve.
//
// Under the SSR engine (configured directly or resolved from "auto" by the
// campaign's current size) Resolve instead re-runs the sketch solver
// warm-started from a pooled sample state: samples untouched by the churn are
// reused verbatim and only watermark-invalidated ones are re-drawn, so the
// re-solve re-certifies the (1−1/e−ε) guarantee at a fraction of a cold
// solve. Every other engine runs the worldcache repair loop (it is
// incremental by construction). All other call options apply as usual.
func (c *Campaign) Resolve(ctx context.Context, prev *Result, opts ...Option) (*Result, error) {
	if prev == nil {
		return c.Solve(ctx, opts...)
	}
	// Peek the call's effective engine without burning a call sequence
	// number: the ssr-vs-worldcache branch must resolve before newCall, or
	// the unused call would shift every later unpinned call's scorer stream.
	pcfg, err := c.callConfig(opts)
	if err != nil {
		return nil, err
	}
	if pcfg.engine == diffusion.EngineSSR {
		return c.resolveSSR(ctx, opts)
	}
	opts = append(opts[:len(opts):len(opts)], WithEngine("worldcache"))
	cl, err := c.newCall(opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	churned := append([]int32(nil), c.churned...)
	c.mu.Unlock()

	ce, err := c.enginesFor(ctx, cl.cfg, []uint64{cl.seed}, false, false)
	if err != nil {
		return nil, err
	}
	wc := ce.evs[0].(*diffusion.WorldCache)
	inst := ce.views[0].Inst

	// The deployment lives in the pooled cache's scratch, so a Resolve
	// allocates nothing of the network's size for it.
	d := wc.ScratchDeployment()
	if err := fillDeployment(d, inst, Deployment{Seeds: prev.Seeds, Coupons: prev.Coupons}); err != nil {
		ce.release(err)
		return nil, err
	}

	res := wc.Rebase(d)
	cost := inst.SeedCostOf(d) + inst.SCCostOf(d)
	rate := 0.0
	if cost > 0 {
		rate = res.Benefit / cost
	}

	// Repair candidates: churned endpoints with coupon headroom. Sorted so
	// the loop is deterministic in the churn history, not map order.
	cands := make([]int32, 0, len(churned))
	for _, v := range churned {
		if int(v) < inst.G.NumNodes() && d.K(v) < inst.G.OutDegree(v) {
			cands = append(cands, v)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })

	for step := 0; step < resolveRepairLimit && len(cands) > 0; step++ {
		if ctx.Err() != nil {
			break
		}
		gains := wc.DeltaBenefits(cands)
		best, bestRate, bestCost := -1, rate, 0.0
		for i, v := range cands {
			// cost tracks the committed deployment's total cost exactly:
			// one more coupon at v costs its marginal expected redemption
			// cost, a per-node sum over v's out-edges rather than the O(n)
			// sweep of the whole deployment. A zero budget affords nothing,
			// as in Solve.
			nc := cost + inst.NodeSCCost(v, d.K(v)+1) - inst.NodeSCCost(v, d.K(v))
			if nc > inst.Budget || nc <= 0 {
				continue
			}
			if nr := gains[i] / nc; nr > bestRate {
				best, bestRate, bestCost = i, nr, nc
			}
		}
		if best < 0 {
			break
		}
		v := cands[best]
		d.AddK(v, 1)
		res2 := wc.Rebase(d)
		nc := bestCost
		if nr := res2.Benefit / nc; nr > rate {
			res, rate, cost = res2, nr, nc
			if d.K(v) >= inst.G.OutDegree(v) {
				cands = append(cands[:best], cands[best+1:]...)
			}
			continue
		}
		// The frontier estimate overshot the exact re-evaluation: revert and
		// retire the candidate so the loop cannot cycle.
		d.AddK(v, -1)
		res = wc.Rebase(d)
		cands = append(cands[:best], cands[best+1:]...)
	}

	if err := ctx.Err(); err != nil {
		ce.release(err)
		return nil, fmt.Errorf("s3crm: resolve aborted: %w", err)
	}
	// d is the cache's scratch: read it before the cache goes back to the
	// pool, where the next call may reset it.
	r := resultOf("resolve", inst, d, res, cl.cfg.samples, cl.degraded)
	ce.release(nil)

	// Consume the churn set this call repaired over; endpoints appended by
	// a concurrent ApplyEdges stay queued for the next Resolve.
	c.mu.Lock()
	c.consumeChurnLocked(len(churned))
	c.mu.Unlock()
	return r, nil
}

// resolveSSR is Resolve's path for SSR-engine campaigns: a full sketch
// re-solve warm-started from a pooled sample state. The pooled state carries
// the churn log every ApplyEdges since its last use recorded
// (sketch.Warm.NoteChurn); the solver patches it — retargeting the stores
// onto the extended graph and re-drawing only samples whose draw-time
// watermark proves an appended edge could have changed them — and resumes
// the doubling schedule from the samples it kept. The warm path is
// ε-accurate rather than bit-exact (the sampling universe stays frozen at
// its build; see DESIGN.md, "SSR sketch solver"), which is exactly the
// certificate Resolve promises.
func (c *Campaign) resolveSSR(ctx context.Context, opts []Option) (*Result, error) {
	// Force the concrete name so a caller's "auto" cannot re-resolve
	// differently inside newCall if the graph grows concurrently.
	opts = append(opts[:len(opts):len(opts)], WithEngine("ssr"))
	cl, err := c.newCall(opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	churnedLen := len(c.churned)
	c.mu.Unlock()

	seeds := []uint64{cl.seed}
	if cl.cfg.seedPinned {
		seeds = append(seeds, cl.scorerSeed)
	}
	ce, err := c.enginesFor(ctx, cl.cfg, seeds, false, true)
	if err != nil {
		return nil, err
	}
	view := ce.views[0]
	inst := view.Inst
	o := cl.coreOptions(ce)
	o.SketchWarmApprox = true
	sol, err := core.SolveCtx(ctx, inst, o)
	ce.release(err)
	if err != nil {
		return nil, fmt.Errorf("s3crm: %w", err)
	}
	ce.sketchPut(sol.SketchWarm)
	r := resultFrom("resolve", inst, sol.Deployment, view, cl.cfg.samples, cl.degraded)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("s3crm: final measurement aborted: %w", err)
	}
	r.ExploredRatio = float64(sol.Stats.ExploredNodes) / float64(inst.G.NumNodes())
	copySketchStats(r, sol.Stats)

	// Consume the churn set this re-solve covered (the warm state's own log
	// was consumed by the patch); endpoints appended by a concurrent
	// ApplyEdges stay queued for the next Resolve.
	c.mu.Lock()
	c.consumeChurnLocked(churnedLen)
	c.mu.Unlock()
	return r, nil
}
