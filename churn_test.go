package s3crm

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// randomChurnProblem builds a random problem plus an append stream whose
// probabilities stay LT-safe (Σ in-weights ≤ 1 whatever the churn order).
func randomChurnProblem(t *testing.T, r *rand.Rand, n, m, extra int) (*Problem, []EdgeAdd) {
	t.Helper()
	pmax := 1.0 / float64(n+4)
	taken := make(map[int64]bool)
	draw := func(nn int) (int, int, bool) {
		from, to := r.Intn(nn), r.Intn(nn)
		k := int64(from)<<32 | int64(to)
		if from == to || taken[k] {
			return 0, 0, false
		}
		taken[k] = true
		return from, to, true
	}
	b := NewProblem(n)
	for added := 0; added < m; {
		if from, to, ok := draw(n); ok {
			b.AddEdge(from, to, pmax*(0.1+0.9*r.Float64()))
			added++
		}
	}
	p, err := b.Budget(float64(n)).Build()
	if err != nil {
		t.Fatal(err)
	}
	var stream []EdgeAdd
	for len(stream) < extra {
		// The tail of the stream reaches past n: node-growth appends.
		if from, to, ok := draw(n + 4); ok {
			stream = append(stream, EdgeAdd{From: from, To: to, P: pmax * (0.1 + 0.9*r.Float64())})
		}
	}
	return p, stream
}

// coldProblemAfter builds the bit-exact cold comparator for an ApplyEdges
// history: a problem over graph.FromEdgesStable fed the base edges in CSR
// order followed by the appends — the same coin keys the churn lineage
// assigned — with appended users on builder-default attributes.
func coldProblemAfter(t *testing.T, p *Problem, stream []EdgeAdd) *Problem {
	t.Helper()
	edges := p.inst.G.Edges()
	n := p.inst.G.NumNodes()
	for _, e := range stream {
		edges = append(edges, graph.Edge{From: int32(e.From), To: int32(e.To), P: e.P})
		if e.From >= n {
			n = e.From + 1
		}
		if e.To >= n {
			n = e.To + 1
		}
	}
	g, err := graph.FromEdgesStable(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return &Problem{inst: extendInstance(p.inst, g)}
}

// clearSketchTiming zeroes the one Result field that is wall-clock rather
// than deterministic state, so parity tests can DeepEqual whole Results.
func clearSketchTiming(rs ...*Result) {
	for _, r := range rs {
		if r != nil {
			r.SketchBuildNs = 0
		}
	}
}

// TestApplyEdgesColdParity: after ApplyEdges, every engine's Solve and
// Evaluate answers are bit-identical to a campaign built cold over the
// stable-keyed rebuild of the extended graph — across engines and models,
// through pool patching, snapshot reuse and auto-compaction.
func TestApplyEdgesColdParity(t *testing.T) {
	ctx := context.Background()
	for _, engine := range []string{"mc", "worldcache", "ssr"} {
		for _, model := range []string{"ic", "lt"} {
			for _, diff := range []string{"liveedge", "hash"} {
				if diff == "hash" && engine != "mc" {
					continue // substrate choice is orthogonal; one engine covers it
				}
				t.Run(engine+"-"+model+"-"+diff, func(t *testing.T) {
					r := rand.New(rand.NewSource(31))
					p, stream := randomChurnProblem(t, r, 24, 72, 14)
					opts := []Option{
						WithEngine(engine), WithModel(model),
						WithSamples(96), WithSeed(7),
					}
					if diff == "hash" {
						opts = append(opts, hashProbes)
					}
					warm, err := p.NewCampaign(opts...)
					if err != nil {
						t.Fatal(err)
					}
					// Warm a snapshot before churn so patching has state to move.
					if _, err := warm.Solve(ctx); err != nil {
						t.Fatal(err)
					}
					if _, err := warm.ApplyEdges(ctx, stream[:9]); err != nil {
						t.Fatal(err)
					}
					if _, err := warm.ApplyEdges(ctx, stream[9:]); err != nil {
						t.Fatal(err)
					}
					cold, err := coldProblemAfter(t, p, stream).NewCampaign(opts...)
					if err != nil {
						t.Fatal(err)
					}
					// Align call sequence numbers (the warm campaign spent
					// call 1 pre-churn) so unpinned scorer streams match.
					if _, err := cold.Solve(ctx); err != nil {
						t.Fatal(err)
					}
					rw, err := warm.Solve(ctx)
					if err != nil {
						t.Fatal(err)
					}
					rc, err := cold.Solve(ctx)
					if err != nil {
						t.Fatal(err)
					}
					clearSketchTiming(rw, rc)
					if !reflect.DeepEqual(rw, rc) {
						t.Fatalf("solve diverged:\nwarm %+v\ncold %+v", rw, rc)
					}
					dep := Deployment{Seeds: rc.Seeds, Coupons: rc.Coupons}
					ew, err := warm.Evaluate(ctx, dep)
					if err != nil {
						t.Fatal(err)
					}
					ec, err := cold.Evaluate(ctx, dep)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ew, ec) {
						t.Fatalf("evaluate diverged:\nwarm %+v\ncold %+v", ew, ec)
					}
				})
			}
		}
	}
}

// TestApplyEdgesLTFromEdgeless: an LT campaign whose graph starts with no
// edges must evaluate appended edges under LT, not as independent-cascade
// coins. Node 1 gains two in-edges of weight 0.3: LT activates it with
// probability 0.45 in this cascade, IC with 0.405, so a warm campaign that
// fell back to IC coins would drift visibly from the cold one.
func TestApplyEdgesLTFromEdgeless(t *testing.T) {
	ctx := context.Background()
	b := NewProblem(4)
	for v := 0; v < 4; v++ {
		b.SetUser(v, 10, 1, 1)
	}
	p, err := b.Budget(10).Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{WithModel("lt"), WithEngine("mc"), WithSamples(2000), WithSeed(5)}
	warm, err := p.NewCampaign(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Evaluate(ctx, Deployment{Seeds: []int{0}}); err != nil {
		t.Fatal(err)
	}
	stream := []EdgeAdd{{From: 0, To: 1, P: 0.3}, {From: 2, To: 1, P: 0.3}, {From: 0, To: 2, P: 0.5}, {From: 1, To: 3, P: 0.5}}
	if _, err := warm.ApplyEdges(ctx, stream); err != nil {
		t.Fatal(err)
	}
	cold, err := coldProblemAfter(t, p, stream).NewCampaign(opts...)
	if err != nil {
		t.Fatal(err)
	}
	dep := Deployment{Seeds: []int{0}, Coupons: map[int]int{0: 2, 1: 1, 2: 1}}
	rw, err := warm.Evaluate(ctx, dep)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.Evaluate(ctx, dep)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rw, rc) {
		t.Fatalf("warm LT campaign diverged from cold after churn from an edgeless graph:\nwarm %+v\ncold %+v", rw, rc)
	}
}

// TestApplyEdgesSplitEquivalence: the public bit-exactness contract — how an
// append stream is batched cannot matter. One call, two calls and
// edge-at-a-time application answer identically.
func TestApplyEdgesSplitEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, model := range []string{"ic", "lt"} {
		t.Run(model, func(t *testing.T) {
			r := rand.New(rand.NewSource(17))
			p, stream := randomChurnProblem(t, r, 20, 60, 12)
			opts := []Option{WithEngine("worldcache"), WithModel(model), WithSamples(64), WithSeed(3)}
			apply := func(splits ...[]EdgeAdd) *Campaign {
				c, err := p.NewCampaign(opts...)
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range splits {
					if _, err := c.ApplyEdges(ctx, b); err != nil {
						t.Fatal(err)
					}
				}
				return c
			}
			one := apply(stream)
			two := apply(stream[:5], stream[5:])
			perEdge := make([][]EdgeAdd, len(stream))
			for i := range stream {
				perEdge[i] = stream[i : i+1]
			}
			many := apply(perEdge...)
			r1, err := one.Solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := two.Solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			r3, err := many.Solve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			clearSketchTiming(r1, r2, r3)
			if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(r1, r3) {
				t.Fatalf("batch split changed results:\none %+v\ntwo %+v\nper-edge %+v", r1, r2, r3)
			}
		})
	}
}

// TestApplyEdgesLTRescale: appends that push a user's in-weights past 1 on
// an LT campaign must re-normalize (the un-recapped path silently deviates
// from LT semantics — the categorical draw could never reach the in-row
// tail). The campaign stays serviceable and the precondition holds again.
func TestApplyEdgesLTRescale(t *testing.T) {
	ctx := context.Background()
	p, err := NewProblem(4).
		AddEdge(0, 2, 0.55).AddEdge(1, 2, 0.4).AddEdge(2, 3, 0.3).
		Budget(10).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.NewCampaign(WithEngine("worldcache"), WithModel("lt"), WithSamples(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	st, err := c.ApplyEdges(ctx, []EdgeAdd{{From: 3, To: 2, P: 0.5}}) // node 2: Σ = 1.45
	if err != nil {
		t.Fatal(err)
	}
	if !st.LTRescaled {
		t.Fatalf("overweight append did not rescale: %+v", st)
	}
	if st.PoolsDropped == 0 {
		t.Fatalf("rescale kept stale pools: %+v", st)
	}
	if err := diffusion.ValidateLTWeights(c.inst.G); err != nil {
		t.Fatalf("post-rescale precondition violated: %v", err)
	}
	if _, err := c.Solve(ctx); err != nil {
		t.Fatalf("solve after rescale: %v", err)
	}

	// An IC campaign keeps its probabilities; only LT call-state is dropped
	// and the next LT call surfaces the precondition error.
	ic, err := p.NewCampaign(WithEngine("worldcache"), WithSamples(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Solve(ctx, WithModel("lt")); err != nil {
		t.Fatal(err)
	}
	st, err = ic.ApplyEdges(ctx, []EdgeAdd{{From: 3, To: 2, P: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	if st.LTRescaled || st.PoolsDropped == 0 {
		t.Fatalf("IC campaign churn stats: %+v (want LT pools dropped, no rescale)", st)
	}
	if _, err := ic.Solve(ctx, WithModel("lt")); err == nil || !strings.Contains(err.Error(), "linear-threshold") {
		t.Fatalf("LT call after overweight append on IC campaign: err = %v, want precondition error", err)
	}
	if _, err := ic.Solve(ctx); err != nil {
		t.Fatalf("IC solve after overweight append: %v", err)
	}
}

// TestApplyEdgesICSkipsLTCheck: ApplyEdges runs the whole-graph LT
// in-weight check only while something relies on the bound — an lt campaign
// model or a call-level LT pool. An IC campaign that never ran an LT call
// has no such consumer, so the check is skipped; an overweight append still
// leaves the stats exactly as if it had run (no rescale, no pool dropped),
// and the first LT call fails in validation when it builds its engine.
func TestApplyEdgesICSkipsLTCheck(t *testing.T) {
	ctx := context.Background()
	p, err := NewProblem(4).
		AddEdge(0, 2, 0.55).AddEdge(1, 2, 0.4).AddEdge(2, 3, 0.3).
		Budget(10).Build()
	if err != nil {
		t.Fatal(err)
	}
	consumer := func(c *Campaign) bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.ltConsumerLocked()
	}

	c, err := p.NewCampaign(WithEngine("worldcache"), WithSamples(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	if consumer(c) {
		t.Fatal("IC campaign with only IC pools counts as an LT consumer: the check would run")
	}
	st, err := c.ApplyEdges(ctx, []EdgeAdd{{From: 3, To: 2, P: 0.5}}) // node 2: Σ = 1.45
	if err != nil {
		t.Fatal(err)
	}
	if st.LTRescaled || st.PoolsDropped != 0 {
		t.Fatalf("IC campaign without LT pools: %+v (want no rescale, no pool dropped)", st)
	}
	if _, err := c.Solve(ctx, WithModel("lt")); err == nil || !strings.Contains(err.Error(), "linear-threshold") {
		t.Fatalf("first LT call after overweight append: err = %v, want precondition error", err)
	}
	if consumer(c) {
		t.Fatal("a failed LT call left an LT consumer behind")
	}
	if _, err := c.Solve(ctx); err != nil {
		t.Fatalf("IC solve after overweight append: %v", err)
	}

	// An LT call on a valid graph makes its pool a consumer until an
	// overweight append drops it; an lt campaign is one from the start.
	ic, err := p.NewCampaign(WithEngine("worldcache"), WithSamples(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ic.Solve(ctx, WithModel("lt")); err != nil {
		t.Fatal(err)
	}
	if !consumer(ic) {
		t.Fatal("IC campaign with an LT pool is not an LT consumer: the check would be skipped")
	}
	if _, err := ic.ApplyEdges(ctx, []EdgeAdd{{From: 3, To: 2, P: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if consumer(ic) {
		t.Fatal("the LT pool outlived an overweight append")
	}
	lt, err := p.NewCampaign(WithEngine("mc"), WithModel("lt"), WithSamples(64), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if !consumer(lt) {
		t.Fatal("lt campaign is not an LT consumer before its first call")
	}
}

// TestApplyEdgesValidation: invalid batches are rejected before any state
// changes; the campaign keeps serving.
func TestApplyEdgesValidation(t *testing.T) {
	ctx := context.Background()
	p, err := NewProblem(3).AddEdge(0, 1, 0.5).Budget(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	c, err := p.NewCampaign(WithSamples(16), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range [][]EdgeAdd{
		{{From: 0, To: 1, P: 0.2}},                           // duplicate arc
		{{From: 1, To: 2, P: 1.5}},                           // probability out of range
		{{From: -1, To: 2, P: 0.5}},                          // negative endpoint
		{{From: 1, To: 2, P: 0.1}, {From: 1, To: 2, P: 0.2}}, // intra-batch duplicate
	} {
		if _, err := c.ApplyEdges(ctx, bad); err == nil {
			t.Fatalf("batch %+v accepted", bad)
		}
	}
	if c.Edges() != 1 || c.Users() != 3 {
		t.Fatalf("rejected batches mutated the graph: %d users, %d edges", c.Users(), c.Edges())
	}
	if _, err := c.Evaluate(ctx, Deployment{Seeds: []int{0}}); err != nil {
		t.Fatalf("campaign unusable after rejected batches: %v", err)
	}
	if st, err := c.ApplyEdges(ctx, nil); err != nil || st != (ChurnStats{}) {
		t.Fatalf("empty batch: %+v, %v", st, err)
	}
}

// TestResolveWarmRestart: Resolve adopts the previous deployment, repairs
// around the churned region, and never reports a worse redemption rate than
// the adopted deployment measures on the new graph.
func TestResolveWarmRestart(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(5))
	p, stream := randomChurnProblem(t, r, 24, 96, 12)
	c, err := p.NewCampaign(WithEngine("worldcache"), WithSamples(96), WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := c.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyEdges(ctx, stream); err != nil {
		t.Fatal(err)
	}
	seq := c.seq.Load()
	got, err := c.Resolve(ctx, prev)
	if err != nil {
		t.Fatal(err)
	}
	if used := c.seq.Load() - seq; used != 1 {
		t.Fatalf("Resolve took %d call sequence numbers, want 1: its engine peek must take none", used)
	}
	if got.Algorithm != "resolve" {
		t.Fatalf("algorithm = %q", got.Algorithm)
	}
	adopted, err := c.Evaluate(ctx, Deployment{Seeds: prev.Seeds, Coupons: prev.Coupons})
	if err != nil {
		t.Fatal(err)
	}
	if got.RedemptionRate < adopted.RedemptionRate {
		t.Fatalf("resolve (%v) worse than adopting the old deployment (%v)",
			got.RedemptionRate, adopted.RedemptionRate)
	}
	c.mu.Lock()
	left := len(c.churned)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d churn endpoints left unconsumed after Resolve", left)
	}
	// A nil previous result falls back to the full solver.
	full, err := c.Resolve(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if full.Algorithm != "S3CA" {
		t.Fatalf("Resolve(nil) ran %q, want the full solver", full.Algorithm)
	}
}

// TestResolveRepairPricesMarginalCoupons: a repair coupon at v costs the
// expected redemption cost of v's out-neighbours, not v's own coupon cost.
// After 1→2 is appended, one more coupon at user 1 looks cheap by user 1's
// own cost (0.01) but is certain to be redeemed by user 2 at cost 100, far
// past the budget, so Resolve must keep the adopted deployment. A zero
// budget affords no repair at all, as in Solve.
func TestResolveRepairPricesMarginalCoupons(t *testing.T) {
	ctx := context.Background()
	for _, budget := range []float64{2.01, 0} {
		p, err := NewProblem(3).
			AddEdge(0, 1, 1).
			SetUser(0, 1, 1, 1).SetUser(1, 1, 1, 0.01).SetUser(2, 10, 1, 100).
			Budget(budget).Build()
		if err != nil {
			t.Fatal(err)
		}
		c, err := p.NewCampaign(WithEngine("worldcache"), WithSamples(64), WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		prev, err := c.Evaluate(ctx, Deployment{Seeds: []int{0}, Coupons: map[int]int{0: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ApplyEdges(ctx, []EdgeAdd{{From: 1, To: 2, P: 1}}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Resolve(ctx, prev)
		if err != nil {
			t.Fatal(err)
		}
		if budget > 0 && got.TotalCost > budget {
			t.Fatalf("budget %v: resolve spent %v, coupons %v", budget, got.TotalCost, got.Coupons)
		}
		if !reflect.DeepEqual(got.Coupons, prev.Coupons) {
			t.Fatalf("budget %v: resolve bought unaffordable coupons %v", budget, got.Coupons)
		}
		if got.RedemptionRate < prev.RedemptionRate {
			t.Fatalf("budget %v: resolve rate %v below the adopted deployment's %v",
				budget, got.RedemptionRate, prev.RedemptionRate)
		}
	}
}

// TestResolveSSRWarmReuse: Resolve on an ssr campaign re-runs the sketch
// solver warm-started from the pooled sample state — after a ~1% append the
// watermark check must keep the overwhelming majority of pooled samples, and
// the patched re-solve must land within the certified ε of a campaign built
// cold over the extended graph.
func TestResolveSSRWarmReuse(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(21))
	p, stream := randomChurnProblem(t, r, 120, 1200, 12)
	const eps = 0.2
	opts := []Option{WithEngine("ssr"), WithSamples(64), WithSeed(7),
		WithEpsilon(eps), WithDelta(0.1)}
	warm, err := p.NewCampaign(opts...)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := warm.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.ApplyEdges(ctx, stream); err != nil {
		t.Fatal(err)
	}
	got, err := warm.Resolve(ctx, prev)
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != "resolve" {
		t.Fatalf("algorithm = %q", got.Algorithm)
	}
	total := got.SketchReused + got.SketchRedrawn
	if total == 0 {
		t.Fatal("ssr Resolve did not take the warm patch path (no reuse accounting)")
	}
	if frac := float64(got.SketchReused) / float64(total); frac < 0.9 {
		t.Fatalf("reused %d of %d pooled samples (%.2f), want >= 0.90",
			got.SketchReused, total, frac)
	}
	cold, err := coldProblemAfter(t, p, stream).NewCampaign(opts...)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := cold.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(got.RedemptionRate - rc.RedemptionRate); diff > eps*rc.RedemptionRate {
		t.Fatalf("warm resolve rate %.4f differs from cold %.4f by %.4f (allowed ε·rate = %.4f)",
			got.RedemptionRate, rc.RedemptionRate, diff, eps*rc.RedemptionRate)
	}
	warm.mu.Lock()
	left := len(warm.churned)
	warm.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d churn endpoints left unconsumed after ssr Resolve", left)
	}
}

// TestResolveSSRNodeGrowth: an append whose endpoints reach past Users() —
// new users as edge tails and as edge heads — grows the node set under a
// pooled SSR sample state. The warm Resolve must still take the patch path
// and keep most samples, and the grown campaign's next cold Solve must stay
// within budget.
func TestResolveSSRNodeGrowth(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(23))
	p, stream := randomChurnProblem(t, r, 120, 1200, 8)
	c, err := p.NewCampaign(WithEngine("ssr"), WithSamples(64), WithSeed(5),
		WithEpsilon(0.2), WithDelta(0.1), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := c.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Users()
	pmax := 1.0 / float64(n+4)
	stream = append(stream,
		EdgeAdd{From: n, To: prev.Seeds[0], P: pmax},
		EdgeAdd{From: prev.Seeds[0], To: n + 1, P: pmax},
		EdgeAdd{From: n + 1, To: n + 2, P: pmax},
		EdgeAdd{From: n + 2, To: 3, P: pmax},
	)
	if _, err := c.ApplyEdges(ctx, stream); err != nil {
		t.Fatal(err)
	}
	if got := c.Users(); got != n+3 {
		t.Fatalf("Users() = %d after the append, want %d", got, n+3)
	}
	got, err := c.Resolve(ctx, prev)
	if err != nil {
		t.Fatal(err)
	}
	total := got.SketchReused + got.SketchRedrawn
	if total == 0 {
		t.Fatal("ssr Resolve did not take the warm patch path (no reuse accounting)")
	}
	if frac := float64(got.SketchReused) / float64(total); frac < 0.9 {
		t.Fatalf("reused %d of %d pooled samples (%.2f), want >= 0.90",
			got.SketchReused, total, frac)
	}
	budget := p.Budget()
	if got.TotalCost > budget*(1+1e-9) {
		t.Fatalf("warm resolve spent %.4f of budget %.4f", got.TotalCost, budget)
	}
	cold, err := c.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cold.SketchBuildNs == 0 {
		t.Fatal("solve after node growth did not run the ssr engine")
	}
	if cold.TotalCost > budget*(1+1e-9) {
		t.Fatalf("cold solve after node growth spent %.4f of budget %.4f", cold.TotalCost, budget)
	}
}

// TestSketchPoolEpochStaleness: a sample state checked out before an
// ApplyEdges never saw that append's NoteChurn, so its watermark log is
// incomplete — re-pooling it would let a later Resolve patch against missing
// churn. The epoch stamp must drop it.
func TestSketchPoolEpochStaleness(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(8))
	p, stream := randomChurnProblem(t, r, 24, 72, 6)
	c, err := p.NewCampaign(WithEngine("ssr"), WithSamples(48), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	ep := c.engines[c.defaultKey]
	c.mu.Unlock()
	w, epoch := ep.takeSketch(false)
	if w == nil {
		t.Fatal("cold ssr solve pooled no sample state")
	}
	// The state is in flight while an append advances the pool — the
	// straddling-call scenario the stamp exists for.
	if _, err := c.ApplyEdges(ctx, stream); err != nil {
		t.Fatal(err)
	}
	ep.putSketch(w, epoch)
	if n := len(ep.idleSketch); n != 0 {
		t.Fatalf("stale sample state re-pooled across ApplyEdges (%d idle)", n)
	}
	// A current-epoch stamp is accepted, nil puts are ignored, and the idle
	// list never grows past its cap.
	_, epoch2 := ep.takeSketch(true)
	ep.putSketch(nil, epoch2)
	for i := 0; i < maxIdleSketchWarms+2; i++ {
		ep.putSketch(w, epoch2)
	}
	if n := len(ep.idleSketch); n != maxIdleSketchWarms {
		t.Fatalf("idle sketch list = %d states, want the cap %d", n, maxIdleSketchWarms)
	}
}

// TestHoldOutEdges: the split plus its replay restores the exact original
// edge set, and bad fractions are rejected.
func TestHoldOutEdges(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(2))
	p, _ := randomChurnProblem(t, r, 20, 80, 0)
	reduced, stream, err := p.HoldOutEdges(0.1, 42)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.Edges() - reduced.Edges(); len(stream) != want || len(stream) != 8 {
		t.Fatalf("held out %d edges (reduced by %d), want 8", len(stream), want)
	}
	c, err := reduced.NewCampaign(WithSamples(16), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyEdges(ctx, stream); err != nil {
		t.Fatal(err)
	}
	if c.Edges() != p.Edges() || c.Users() != p.Users() {
		t.Fatalf("replay restored %d users/%d edges, want %d/%d",
			c.Users(), c.Edges(), p.Users(), p.Edges())
	}
	for _, frac := range []float64{0, 1, -0.5, 1e-9} {
		if _, _, err := p.HoldOutEdges(frac, 1); err == nil {
			t.Fatalf("fraction %v accepted", frac)
		}
	}
}

// TestConcurrentChurn exercises ApplyEdges racing Solve, Evaluate and
// Resolve on one shared campaign — the scenario the epoch-stamped pools and
// the single-lock engine resolution exist for. Both pooled-state engines run
// (worldcache snapshots, ssr sample states). Run under -race in CI.
func TestConcurrentChurn(t *testing.T) {
	for _, engine := range []string{"worldcache", "ssr"} {
		t.Run(engine, func(t *testing.T) { concurrentChurn(t, engine) })
	}
}

func concurrentChurn(t *testing.T, engine string) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(12))
	p, stream := randomChurnProblem(t, r, 24, 60, 24)
	c, err := p.NewCampaign(WithEngine(engine), WithSamples(48), WithSeed(4), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := c.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			dep := Deployment{Seeds: []int{seed}}
			for i := 0; i < 8; i++ {
				if _, err := c.Evaluate(ctx, dep); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			if _, err := c.Solve(ctx); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i+3 <= len(stream); i += 3 {
			if _, err := c.ApplyEdges(ctx, stream[i:i+3]); err != nil {
				errc <- err
				return
			}
			var rerr error
			if prev, rerr = c.Resolve(ctx, prev); rerr != nil {
				errc <- rerr
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx); err != nil {
		t.Fatalf("campaign broken after concurrent churn: %v", err)
	}
}

// TestNoteChurnMatchesReferenceDedup appends 200 batches with no Resolve in
// between and checks the pending churn set against a reference dedup of the
// same endpoints (each edge's source, then its target, first sighting
// wins), order included. A Resolve then consumes the set, and a second run
// of appends must be deduplicated afresh: endpoints consumed by the Resolve
// are queued again. Last, consuming only a prefix of the set (what a
// Resolve read while an append queued more) keeps the rest deduplicating.
func TestNoteChurnMatchesReferenceDedup(t *testing.T) {
	ctx := context.Background()
	full, err := GenerateDataset("Epinions", 200, 77)
	if err != nil {
		t.Fatal(err)
	}
	p, stream, err := full.HoldOutEdges(0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 200
	if len(stream) < 2*batches {
		t.Fatalf("held out %d edges, want at least %d", len(stream), 2*batches)
	}
	c, err := p.NewCampaign(WithSamples(32), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	// replay appends batches [lo, hi) of the stream split into 2·batches
	// and checks the pending set against the reference dedup of exactly
	// those batches.
	per := len(stream) / (2 * batches)
	replay := func(lo, hi int) {
		t.Helper()
		var want []int32
		seen := map[int32]bool{}
		for b := lo; b < hi; b++ {
			batch := stream[b*per : (b+1)*per]
			if _, err := c.ApplyEdges(ctx, batch); err != nil {
				t.Fatal(err)
			}
			for _, e := range batch {
				for _, v := range []int32{int32(e.From), int32(e.To)} {
					if !seen[v] {
						seen[v] = true
						want = append(want, v)
					}
				}
			}
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if !reflect.DeepEqual(c.churned, want) {
			t.Fatalf("batches [%d,%d): churn set %v, reference dedup %v", lo, hi, c.churned, want)
		}
		if len(c.churnSeen) != len(want) {
			t.Fatalf("batches [%d,%d): seen-set holds %d endpoints, churn set %d", lo, hi, len(c.churnSeen), len(want))
		}
	}
	replay(0, batches)
	prev, err := c.Solve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Resolve(ctx, prev); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	if len(c.churned) != 0 || len(c.churnSeen) != 0 {
		t.Fatalf("after Resolve: %d pending endpoints, %d seen, want none", len(c.churned), len(c.churnSeen))
	}
	c.mu.Unlock()
	replay(batches, 2*batches)

	// A Resolve consumes only the endpoints it read; what a concurrent
	// append queued behind them stays pending and still deduplicates.
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := append([]int32(nil), c.churned...)
	c.consumeChurnLocked(2)
	rest := pending[2:]
	c.noteChurnLocked([]graph.Edge{{From: rest[0], To: pending[0]}})
	if want := append(append([]int32(nil), rest...), pending[0]); !reflect.DeepEqual(c.churned, want) {
		t.Fatalf("after consuming 2 of %v and appending (%d,%d): churn set %v, want %v", pending, rest[0], pending[0], c.churned, want)
	}
}

// TestChurnAppendBytesIndependentOfN pins the O(batch) append path: the
// bytes one graph.WithEdges plus LiveEdges.Extend of a fixed 11-edge batch
// allocate on an overlay graph of the Epinions profile at scale 10 may grow
// by less than half a byte per added node when the same graph is padded to
// ten times its users (graph.PadNodes). The overlay's page tables cost an
// eighth of a byte per node each; any n-sized array the append copies — an
// int32 in-degree or row index, a bool mask — costs at least one.
func TestChurnAppendBytesIndependentOfN(t *testing.T) {
	p, err := GenerateDataset("Epinions", 10, 77)
	if err != nil {
		t.Fatal(err)
	}
	reduced, stream, err := p.HoldOutEdges(0.2, 77)
	if err != nil {
		t.Fatal(err)
	}
	edges := func(adds []EdgeAdd) []graph.Edge {
		out := make([]graph.Edge, len(adds))
		for i, e := range adds {
			out[i] = graph.Edge{From: int32(e.From), To: int32(e.To), P: e.P}
		}
		return out
	}
	warm, batch := edges(stream[:11]), edges(stream[11:22])
	perAppend := func(g *graph.Graph) float64 {
		// The measured append extends an overlay graph and its substrate,
		// the steady state of a churn stream.
		g1, err := g.WithEdges(warm)
		if err != nil {
			t.Fatal(err)
		}
		le := diffusion.NewLiveEdges(g, 1000, rng.NewCoin(77), 0).Extend(g1, nil)
		const reps = 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < reps; i++ {
			g2, err := g1.WithEdges(batch)
			if err != nil {
				t.Fatal(err)
			}
			le.Extend(g2, nil)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / reps
	}
	g := reduced.inst.G
	padded, err := g.PadNodes(10 * g.NumNodes())
	if err != nil {
		t.Fatal(err)
	}
	small, large := perAppend(g), perAppend(padded)
	added := float64(padded.NumNodes() - g.NumNodes())
	t.Logf("append bytes: %.0f at %d users, %.0f at %d users", small, g.NumNodes(), large, padded.NumNodes())
	if large-small >= added/2 {
		t.Fatalf("an append allocates %.0f bytes at %d users and %.0f at %d: %.2f bytes per added user, want < 0.5",
			small, g.NumNodes(), large, padded.NumNodes(), (large-small)/added)
	}
}
