package diffusion

import (
	"fmt"
	"math/rand"
	"testing"

	"s3crm/internal/graph"
)

// Churn parity: a WithGraph/PatchEdges lineage must be bit-exact against a
// cold rebuild of the final graph with the same coin-key assignment
// (graph.FromEdgesStable over base edges in CSR order followed by the
// appended batches — exactly the keys WithEdges hands out).

// churnCase is one cell of the churn-parity matrix: triggering model ×
// live-edge memory budget, named by the substrate regime the budget puts
// the substrate in. "liveedge" materializes within the default budget,
// "liveedge-memcap" holds a few rows and hashes past them (so one lineage
// mixes carried rows with hashed probes), and "hash" runs on 1 byte, which
// materializes nothing — every regime must patch identically.
type churnCase struct {
	model, regime string
	memBudget     int64
}

// churnMemCap holds 32 IC rows or one LT row at 96 samples.
const churnMemCap = 512

func churnMatrix() []churnCase {
	var out []churnCase
	for _, model := range []string{ModelIC, ModelLT} {
		out = append(out,
			churnCase{model, "hash", 1},
			churnCase{model, "liveedge", 0},
			churnCase{model, "liveedge-memcap", churnMemCap})
	}
	return out
}

func (c churnCase) name() string { return c.model + "-" + c.regime }

// arcKey packs an arc for duplicate avoidance.
func arcKey(from, to int32) int64 { return int64(from)<<32 | int64(uint32(to)) }

// randEdges draws count duplicate-free random edges among the first n nodes
// with probabilities in (0, pmax], extending the taken set.
func randEdges(r *rand.Rand, n, count int, pmax float64, taken map[int64]bool) []graph.Edge {
	var out []graph.Edge
	for tries := 0; len(out) < count && tries < 50*count; tries++ {
		from, to := int32(r.Intn(n)), int32(r.Intn(n))
		if from == to || taken[arcKey(from, to)] {
			continue
		}
		taken[arcKey(from, to)] = true
		out = append(out, graph.Edge{From: from, To: to, P: pmax * (0.1 + 0.9*r.Float64())})
	}
	return out
}

// unitInstance wraps a graph with unit benefits and costs.
func unitInstance(g *graph.Graph) *Instance {
	n := g.NumNodes()
	ones := func() []float64 {
		a := make([]float64, n)
		for i := range a {
			a[i] = 1
		}
		return a
	}
	return &Instance{G: g, Benefit: ones(), SeedCost: ones(), SCCost: ones(), Budget: float64(n)}
}

// randDeployment draws a small random deployment over g.
func randDeployment(r *rand.Rand, g *graph.Graph) *Deployment {
	n := g.NumNodes()
	d := NewDeployment(n)
	for i, seeds := 0, 1+r.Intn(3); i < seeds; i++ {
		d.AddSeed(int32(r.Intn(n)))
	}
	for i, allocs := 0, 2+r.Intn(5); i < allocs; i++ {
		v := int32(r.Intn(n))
		if deg := g.OutDegree(v); deg > 0 {
			d.SetK(v, 1+r.Intn(deg))
		}
	}
	return d
}

// churnLineage drives one randomized churn history: a base graph, then
// batches batches (the second growing the node set, the last crossing a
// Compact boundary). It returns the incremental graph, the cold input-order
// edge list, and the per-batch edges for patch-style consumers.
func churnLineage(t *testing.T, r *rand.Rand, batches int) (base *graph.Graph, steps [][]graph.Edge) {
	t.Helper()
	n0 := 12 + r.Intn(8)
	maxN := n0 + 8
	pmax := 1.0 / float64(maxN) // keeps Σ in-weights ≤ 1 under any churn (LT-safe)
	taken := make(map[int64]bool)
	var err error
	base, err = graph.FromEdges(n0, randEdges(r, n0, 3*n0, pmax, taken))
	if err != nil {
		t.Fatal(err)
	}
	n := n0
	for b := 0; b < batches; b++ {
		if b == 1 && n < maxN {
			n += 1 + r.Intn(maxN-n) // node growth
		}
		batch := randEdges(r, n, 4+r.Intn(8), pmax, taken)
		if len(batch) == 0 {
			t.Fatal("empty churn batch")
		}
		// Force the growth step to actually reference a new node.
		if b == 1 {
			batch[0].To = int32(n - 1)
			if taken[arcKey(batch[0].From, batch[0].To)] {
				batch = batch[1:]
			} else {
				taken[arcKey(batch[0].From, batch[0].To)] = true
			}
		}
		steps = append(steps, batch)
	}
	return base, steps
}

// coldEstimator builds the bit-exact cold comparator for a lineage: the
// stable-keyed rebuild over base-CSR-order edges followed by the batches.
func coldEstimator(t *testing.T, base *graph.Graph, steps [][]graph.Edge, upTo int, opts EngineOptions) (*Estimator, *graph.Graph) {
	t.Helper()
	all := append([]graph.Edge(nil), base.Edges()...)
	n := base.NumNodes()
	for _, b := range steps[:upTo] {
		all = append(all, b...)
		for _, e := range b {
			if int(e.From) >= n {
				n = int(e.From) + 1
			}
			if int(e.To) >= n {
				n = int(e.To) + 1
			}
		}
	}
	g, err := graph.FromEdgesStable(n, all)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEngineOpts(unitInstance(g), opts)
	if err != nil {
		t.Fatal(err)
	}
	return ev.(*Estimator), g
}

// TestEstimatorChurnParity: an estimator advanced through WithGraph over a
// WithEdges lineage (with a compaction boundary) evaluates bit-identically
// to a cold stable-keyed rebuild, across the full model × substrate ×
// mem-budget matrix.
func TestEstimatorChurnParity(t *testing.T) {
	for _, tc := range churnMatrix() {
		t.Run(tc.name(), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				r := rand.New(rand.NewSource(int64(7919*trial + 13)))
				base, steps := churnLineage(t, r, 3)
				opts := EngineOptions{
					Engine: EngineMC, Model: tc.model, Samples: 96, Seed: 11,
					LiveEdgeMemBudget: tc.memBudget,
				}
				ev, err := NewEngineOpts(unitInstance(base), opts)
				if err != nil {
					t.Fatal(err)
				}
				est := ev.(*Estimator)
				g := base
				for bi, batch := range steps {
					if g, err = g.WithEdges(batch); err != nil {
						t.Fatal(err)
					}
					if bi == len(steps)-1 { // compaction boundary
						g = g.Compact()
					}
					est = est.WithGraph(unitInstance(g), ChurnTargets(batch))
				}
				cold, gCold := coldEstimator(t, base, steps, len(steps), opts)
				if g.NumNodes() != gCold.NumNodes() || g.NumEdges() != gCold.NumEdges() {
					t.Fatalf("trial %d: graph size diverged: %d/%d vs %d/%d", trial,
						g.NumNodes(), g.NumEdges(), gCold.NumNodes(), gCold.NumEdges())
				}
				for k := 0; k < 5; k++ {
					d := randDeployment(r, g)
					if ri, rc := est.Evaluate(d), cold.Evaluate(d); ri != rc {
						t.Fatalf("trial %d deployment %d (%v): incremental %+v != cold %+v",
							trial, k, d, ri, rc)
					}
				}
			}
		})
	}
}

// TestEstimatorChurnBatchSplitEquivalence: applying a batch in one WithEdges
// call or split across several yields the same keys, hence bit-identical
// evaluations — the invariant the public churn-parity contract rests on.
func TestEstimatorChurnBatchSplitEquivalence(t *testing.T) {
	for _, tc := range []churnCase{
		{ModelIC, "liveedge", 0},
		{ModelLT, "liveedge", 0},
	} {
		t.Run(tc.name(), func(t *testing.T) {
			r := rand.New(rand.NewSource(4242))
			base, steps := churnLineage(t, r, 2)
			joined := append(append([]graph.Edge(nil), steps[0]...), steps[1]...)
			opts := EngineOptions{
				Engine: EngineMC, Model: tc.model, Samples: 64, Seed: 3,
			}
			build := func(batches ...[]graph.Edge) *Estimator {
				ev, err := NewEngineOpts(unitInstance(base), opts)
				if err != nil {
					t.Fatal(err)
				}
				est, g := ev.(*Estimator), base
				for _, b := range batches {
					if g, err = g.WithEdges(b); err != nil {
						t.Fatal(err)
					}
					est = est.WithGraph(unitInstance(g), ChurnTargets(b))
				}
				return est
			}
			one := build(joined)
			two := build(steps[0], steps[1])
			perEdge := make([][]graph.Edge, len(joined))
			for i, e := range joined {
				perEdge[i] = []graph.Edge{e}
			}
			many := build(perEdge...)
			for k := 0; k < 5; k++ {
				d := randDeployment(r, one.Inst.G)
				r1, r2, r3 := one.Evaluate(d), two.Evaluate(d), many.Evaluate(d)
				if r1 != r2 || r1 != r3 {
					t.Fatalf("split divergence: joined %+v, two %+v, per-edge %+v", r1, r2, r3)
				}
			}
		})
	}
}

// TestWorldCachePatchParity: PatchEdges patches a warm snapshot to exactly
// the state a cold rebuild would reach — both the patch-time result and
// every subsequent incremental Rebase move (coupon advance, seed advance)
// match a cold world cache move for move.
func TestWorldCachePatchParity(t *testing.T) {
	for _, tc := range churnMatrix() {
		t.Run(tc.name(), func(t *testing.T) {
			for trial := 0; trial < 2; trial++ {
				r := rand.New(rand.NewSource(int64(104729*trial + 7)))
				base, steps := churnLineage(t, r, 3)
				opts := EngineOptions{
					Engine: EngineMC, Model: tc.model, Samples: 96, Seed: 5,
					LiveEdgeMemBudget: tc.memBudget,
				}
				ev, err := NewEngineOpts(unitInstance(base), opts)
				if err != nil {
					t.Fatal(err)
				}
				est := ev.(*Estimator)
				wc := &WorldCache{Est: est}
				d := randDeployment(r, base)
				wc.Rebase(d)

				g := base
				for bi, batch := range steps {
					if g, err = g.WithEdges(batch); err != nil {
						t.Fatal(err)
					}
					if bi == len(steps)-1 {
						g = g.Compact()
					}
					est = est.WithGraph(unitInstance(g), ChurnTargets(batch))
					got := wc.PatchEdges(est, batch)
					cold, _ := coldEstimator(t, base, steps, bi+1, opts)
					d.Pad(g.NumNodes())
					// Compare Rebase-to-Rebase: cached results don't carry
					// BenefitSqMean (the serving layer re-measures via
					// Evaluate), so the cold comparator is a cold cache.
					stepWC := &WorldCache{Est: cold}
					if want := stepWC.Rebase(d); got != want {
						t.Fatalf("trial %d batch %d: patched %+v != cold %+v", trial, bi, got, want)
					}
					if got, want := wc.Evaluate(d), cold.Evaluate(d); got != want {
						t.Fatalf("trial %d batch %d: patched eval %+v != cold eval %+v", trial, bi, got, want)
					}
				}

				// Incremental moves over the patched state must stay exact.
				cold, _ := coldEstimator(t, base, steps, len(steps), opts)
				coldWC := &WorldCache{Est: cold}
				coldWC.Rebase(d)
				for mv := 0; mv < 6; mv++ {
					v := int32(r.Intn(g.NumNodes()))
					if mv%3 == 2 {
						d.AddSeed(v)
					} else if g.OutDegree(v) > d.K(v) {
						d.AddK(v, 1)
					} else {
						continue
					}
					if got, want := wc.Rebase(d), coldWC.Rebase(d); got != want {
						t.Fatalf("trial %d move %d: patched-advance %+v != cold-advance %+v",
							trial, mv, got, want)
					}
				}
			}
		})
	}
}

// TestWorldCachePatchNeverRebased: patching a cache that never saw a Rebase
// just adopts the churned estimator; the first Rebase after it is exact.
func TestWorldCachePatchNeverRebased(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	base, steps := churnLineage(t, r, 1)
	opts := EngineOptions{Engine: EngineMC, Model: ModelIC, Samples: 64, Seed: 2}
	ev, err := NewEngineOpts(unitInstance(base), opts)
	if err != nil {
		t.Fatal(err)
	}
	est := ev.(*Estimator)
	wc := &WorldCache{Est: est}
	g, err := base.WithEdges(steps[0])
	if err != nil {
		t.Fatal(err)
	}
	est2 := est.WithGraph(unitInstance(g), ChurnTargets(steps[0]))
	if got := wc.PatchEdges(est2, steps[0]); got != (Result{}) {
		t.Fatalf("never-rebased patch returned %+v, want zero", got)
	}
	cold, _ := coldEstimator(t, base, steps, 1, opts)
	coldWC := &WorldCache{Est: cold}
	d := randDeployment(r, g)
	if got, want := wc.Rebase(d), coldWC.Rebase(d); got != want {
		t.Fatalf("first rebase after adopt: %+v != %+v", got, want)
	}
}

// TestPatchEdgesBatchMismatchPanics pins the contract: the patched-in
// estimator must extend the cache's graph by exactly the batch.
func TestPatchEdgesBatchMismatchPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	base, steps := churnLineage(t, r, 1)
	opts := EngineOptions{Engine: EngineMC, Model: ModelIC, Samples: 16, Seed: 2}
	ev, err := NewEngineOpts(unitInstance(base), opts)
	if err != nil {
		t.Fatal(err)
	}
	est := ev.(*Estimator)
	wc := &WorldCache{Est: est}
	wc.Rebase(NewDeployment(base.NumNodes()))
	g, err := base.WithEdges(steps[0])
	if err != nil {
		t.Fatal(err)
	}
	est2 := est.WithGraph(unitInstance(g), ChurnTargets(steps[0]))
	defer func() {
		if recover() == nil {
			t.Fatal("PatchEdges with a short batch did not panic")
		}
	}()
	wc.PatchEdges(est2, steps[0][:0])
}

// TestDeltaBenefitsAfterNodeGrowth pins a regression: the cache's pooled
// replay scratches are sized when first used, and a PatchEdges that grows
// the node set must not leave DeltaBenefits indexing old-size per-node
// arrays with new node ids.
func TestDeltaBenefitsAfterNodeGrowth(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	base, steps := churnLineage(t, r, 2) // batch index 1 grows the node set
	opts := EngineOptions{Engine: EngineMC, Model: ModelIC, Samples: 48, Seed: 6}
	ev, err := NewEngineOpts(unitInstance(base), opts)
	if err != nil {
		t.Fatal(err)
	}
	est := ev.(*Estimator)
	wc := &WorldCache{Est: est}
	d := randDeployment(r, base)
	wc.Rebase(d)
	// Arm the scratch pool at the pre-growth node count.
	wc.DeltaBenefits([]int32{0, 1, 2})

	g := base
	for _, batch := range steps {
		g2, err := g.WithEdges(batch)
		if err != nil {
			t.Fatal(err)
		}
		est2 := wc.Est.WithGraph(unitInstance(g2), ChurnTargets(batch))
		wc.PatchEdges(est2, batch)
		g = g2
	}
	if g.NumNodes() == base.NumNodes() {
		t.Fatal("lineage did not grow the node set")
	}
	cold, coldG := coldEstimator(t, base, steps, len(steps), opts)
	coldWC := &WorldCache{Est: cold}
	d2 := NewDeployment(g.NumNodes())
	for _, s := range d.Seeds() {
		d2.AddSeed(s)
	}
	for v := int32(0); int(v) < base.NumNodes(); v++ {
		if k := d.K(v); k > 0 {
			d2.SetK(v, k)
		}
	}
	wc.Rebase(d2)
	coldWC.Rebase(d2)
	cands := make([]int32, 0, g.NumNodes())
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if g.OutDegree(v) > 0 {
			cands = append(cands, v)
		}
	}
	if coldG.NumNodes() != g.NumNodes() {
		t.Fatalf("cold comparator has %d nodes, lineage %d", coldG.NumNodes(), g.NumNodes())
	}
	got := wc.DeltaBenefits(cands)
	want := coldWC.DeltaBenefits(cands)
	for i := range cands {
		if got[i] != want[i] {
			t.Fatalf("DeltaBenefits[%d] (node %d) = %v, cold %v", i, cands[i], got[i], want[i])
		}
	}
}

func ExampleChurnTargets() {
	batch := []graph.Edge{{From: 3, To: 1, P: 0.5}, {From: 0, To: 1, P: 0.2}, {From: 2, To: 4, P: 0.1}}
	fmt.Println(ChurnTargets(batch))
	// Output: [1 4]
}
