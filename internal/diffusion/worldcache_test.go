package diffusion

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"testing"

	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// randomInstance builds a reproducible random instance for engine tests.
func randomInstance(t testing.TB, n, edges int, seed uint64) *Instance {
	t.Helper()
	src := rng.New(seed)
	seen := make(map[[2]int32]bool)
	var es []graph.Edge
	for len(es) < edges {
		from := int32(src.Intn(n))
		to := int32(src.Intn(n))
		if from == to || seen[[2]int32{from, to}] {
			continue
		}
		seen[[2]int32{from, to}] = true
		es = append(es, graph.Edge{From: from, To: to, P: 0.1 + 0.8*src.Float64()})
	}
	g, err := graph.FromEdges(n, es)
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   1e9,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 0.5 + src.Float64()
		inst.SeedCost[i] = 1 + src.Float64()
		inst.SCCost[i] = 0.5 + src.Float64()
	}
	return inst
}

// randomDeployment seeds a few users and sprinkles coupons.
func randomDeployment(inst *Instance, seeds, coupons int, seed uint64) *Deployment {
	src := rng.New(seed)
	n := inst.G.NumNodes()
	d := NewDeployment(n)
	for d.NumSeeds() < seeds {
		d.AddSeed(int32(src.Intn(n)))
	}
	for placed := 0; placed < coupons; {
		v := int32(src.Intn(n))
		if d.K(v) < inst.G.OutDegree(v) {
			d.AddK(v, 1)
			placed++
		}
	}
	return d
}

func TestWorldCacheEvaluateMatchesEstimator(t *testing.T) {
	inst := randomInstance(t, 40, 120, 1)
	d := randomDeployment(inst, 2, 6, 2)
	est := NewEstimator(inst, 500, 7)
	wc := NewWorldCache(inst, 500, 7, 0)
	a, b := est.Evaluate(d), wc.Evaluate(d)
	if a != b {
		t.Fatalf("WorldCache.Evaluate %v differs from Estimator.Evaluate %v", b, a)
	}
}

func TestWorldCacheRebaseMatchesEvaluate(t *testing.T) {
	inst := randomInstance(t, 40, 120, 3)
	d := randomDeployment(inst, 2, 6, 4)
	est := NewEstimator(inst, 400, 9)
	wc := NewWorldCache(inst, 400, 9, 0)
	want := est.Evaluate(d)
	got := wc.Rebase(d)
	if !almost(got.Benefit, want.Benefit, 1e-9) ||
		!almost(got.RealizedCost, want.RealizedCost, 1e-9) ||
		!almost(got.Activated, want.Activated, 1e-9) ||
		!almost(got.FarthestHop, want.FarthestHop, 1e-9) {
		t.Fatalf("Rebase %v differs from Evaluate %v", got, want)
	}
}

func TestWorldCacheRebaseCachedOnUnchangedDeployment(t *testing.T) {
	inst := randomInstance(t, 30, 80, 5)
	d := randomDeployment(inst, 1, 4, 6)
	wc := NewWorldCache(inst, 200, 11, 0)
	wc.Rebase(d)
	evals := wc.Evals()
	wc.Rebase(d) // unchanged: must be served from the cache
	if got := wc.Evals(); got != evals {
		t.Fatalf("re-rebasing an unchanged deployment cost %d extra evals", got-evals)
	}
	d.AddK(d.Seeds()[0], 1)
	wc.Rebase(d)
	if got := wc.Evals(); got != evals+1 {
		t.Fatalf("rebasing a changed deployment made %d evals, want 1", got-evals)
	}
}

// TestWorldCacheDeltaBenefitsCloseToFull compares the frontier replay
// against brute-force re-evaluation of every candidate. The replay freezes
// base-world outcomes, so it may differ from a from-scratch simulation when
// a delta activation races an existing coupon scan — rare on sparse
// instances — but it must stay well within Monte-Carlo noise.
func TestWorldCacheDeltaBenefitsCloseToFull(t *testing.T) {
	inst := randomInstance(t, 40, 120, 13)
	d := randomDeployment(inst, 2, 8, 14)
	const samples = 400
	est := NewEstimator(inst, samples, 17)
	wc := NewWorldCache(inst, samples, 17, 0)
	wc.Rebase(d)
	base := est.Benefit(d)

	var cands []int32
	for v := int32(0); v < int32(inst.G.NumNodes()); v++ {
		if d.K(v) < inst.G.OutDegree(v) {
			cands = append(cands, v)
		}
	}
	got := wc.DeltaBenefits(cands)
	for i, v := range cands {
		d.AddK(v, 1)
		want := est.Benefit(d)
		d.AddK(v, -1)
		if got[i] < base-1e-9 {
			t.Fatalf("candidate %d: delta benefit %v below base %v", v, got[i], base)
		}
		tol := 0.02*(want-base) + 1e-9
		if math.Abs(got[i]-want) > tol {
			t.Errorf("candidate %d: replay benefit %v, full benefit %v (base %v)", v, got[i], want, base)
		}
	}
}

func TestWorldCacheParallelRebaseMatchesSequential(t *testing.T) {
	inst := randomInstance(t, 50, 160, 41)
	d := randomDeployment(inst, 2, 10, 42)
	seqWC := NewWorldCache(inst, 300, 43, 0)
	parWC := NewWorldCache(inst, 300, 43, 4)
	a := seqWC.Rebase(d)
	b := parWC.Rebase(d)
	if !almost(a.Benefit, b.Benefit, 1e-9) || !almost(a.Activated, b.Activated, 1e-9) ||
		!almost(a.RealizedCost, b.RealizedCost, 1e-9) || !almost(a.FarthestHop, b.FarthestHop, 1e-9) {
		t.Fatalf("parallel Rebase %v differs from sequential %v", b, a)
	}
	// The per-world snapshots must be identical: workers own disjoint world
	// ranges, so every delta replay sees the same scan states.
	for w := 0; w < 300; w++ {
		sr, pr := snapshotRecord(seqWC, w), snapshotRecord(parWC, w)
		if len(sr.nodes) != len(pr.nodes) {
			t.Fatalf("world %d snapshot sizes differ: %d vs %d", w, len(sr.nodes), len(pr.nodes))
		}
		for i := range sr.nodes {
			if sr.nodes[i] != pr.nodes[i] || sr.scanStop[i] != pr.scanStop[i] ||
				sr.scanRed[i] != pr.scanRed[i] {
				t.Fatalf("world %d entry %d differs: (%d,%d,%d) vs (%d,%d,%d)", w, i,
					sr.nodes[i], sr.scanStop[i], sr.scanRed[i],
					pr.nodes[i], pr.scanStop[i], pr.scanRed[i])
			}
		}
	}
}

// newModelWorldCache builds a world cache whose estimator probes liveness
// under the given triggering model.
func newModelWorldCache(t testing.TB, inst *Instance, samples int, seed uint64, model string) *WorldCache {
	t.Helper()
	wc := NewWorldCache(inst, samples, seed, 0)
	if model == ModelLT {
		wc.Est.Live = NewLTLiveEdges(inst.G, samples, rng.NewCoin(seed), 0)
	}
	return wc
}

// TestWorldCacheIncrementalRebaseExact pins the incremental rebase under
// both triggering models: moving the base through a chain of coupon-only
// changes (adds and removals) must leave the cache in exactly the state a
// from-scratch Rebase would build — same Result, same per-world snapshots,
// same delta answers. The inertness argument only relies on edge liveness
// being a fixed per-world property, so it must hold for LT's correlated
// liveness exactly as for IC's independent coins.
func TestWorldCacheIncrementalRebaseExact(t *testing.T) {
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			testWorldCacheIncrementalRebaseExact(t, model)
		})
	}
}

func testWorldCacheIncrementalRebaseExact(t *testing.T, model string) {
	inst := randomInstance(t, 40, 140, 51)
	if model == ModelLT {
		// The random weights overshoot the LT in-weight bound; scale them
		// into range (CapInWeights re-sorts rows, so deployments are drawn
		// against the capped graph's adjacency).
		inst.G = inst.G.CapInWeights()
	}
	d := randomDeployment(inst, 2, 6, 52)
	const samples = 300
	inc := newModelWorldCache(t, inst, samples, 53, model)
	inc.Rebase(d)

	src := rng.New(54)
	for step := 0; step < 24; step++ {
		// Mutate several DISTINCT coupon counts (sometimes removing)
		// without touching the seed set, so the multi-changed advance path
		// — where one re-simulation must not poison the decisions for the
		// other changed nodes — is exercised as heavily as the single-node
		// fast path.
		muts := map[int32]bool{}
		for m := 0; m < 1+step%4; m++ {
			v := int32(src.Intn(inst.G.NumNodes()))
			if muts[v] {
				continue
			}
			muts[v] = true
			if d.K(v) > 0 && src.Float64() < 0.3 {
				d.AddK(v, -1)
			} else if d.K(v) < inst.G.OutDegree(v) {
				d.AddK(v, 1)
			}
		}
		got := inc.Rebase(d)

		fresh := newModelWorldCache(t, inst, samples, 53, model)
		want := fresh.Rebase(d)
		if got != want {
			t.Fatalf("step %d: incremental rebase %v, from-scratch %v", step, got, want)
		}
		for w := 0; w < samples; w++ {
			ir, fr := snapshotRecord(inc, w), snapshotRecord(fresh, w)
			if len(ir.nodes) != len(fr.nodes) {
				t.Fatalf("step %d world %d: snapshot sizes differ (%d/%d nodes)",
					step, w, len(ir.nodes), len(fr.nodes))
			}
			for i := range ir.nodes {
				if ir.nodes[i] != fr.nodes[i] || ir.scanStop[i] != fr.scanStop[i] || ir.scanRed[i] != fr.scanRed[i] {
					t.Fatalf("step %d world %d entry %d differs", step, w, i)
				}
			}
		}
		var cands []int32
		for v := int32(0); v < int32(inst.G.NumNodes()); v++ {
			if d.K(v) < inst.G.OutDegree(v) {
				cands = append(cands, v)
			}
		}
		a, b := inc.DeltaBenefits(cands), fresh.DeltaBenefits(cands)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("step %d candidate %d: incremental delta %v, fresh %v", step, cands[i], a[i], b[i])
			}
		}
	}

	// Seed additions take the seed-add path and must leave the following
	// coupon advances exact too — including the per-world records — through
	// a mix of seed and coupon moves.
	for step := 0; step < 6; step++ {
		if step%2 == 0 {
			v := int32(src.Intn(inst.G.NumNodes()))
			for d.IsSeed(v) {
				v = int32(src.Intn(inst.G.NumNodes()))
			}
			d.AddSeed(v)
			if step%4 == 0 && d.K(v) < inst.G.OutDegree(v) {
				d.AddK(v, 1) // pivot with a coupon
			}
		} else {
			v := int32(src.Intn(inst.G.NumNodes()))
			if d.K(v) < inst.G.OutDegree(v) {
				d.AddK(v, 1)
			}
		}
		got := inc.Rebase(d)
		fresh := newModelWorldCache(t, inst, samples, 53, model)
		want := fresh.Rebase(d)
		if got != want {
			t.Fatalf("seed step %d: incremental path %v, from-scratch %v", step, got, want)
		}
		for w := 0; w < samples; w++ {
			ir, fr := snapshotRecord(inc, w), snapshotRecord(fresh, w)
			if len(ir.nodes) != len(fr.nodes) {
				t.Fatalf("seed step %d world %d: snapshot sizes differ (%d/%d nodes)",
					step, w, len(ir.nodes), len(fr.nodes))
			}
			for i := range ir.nodes {
				if ir.nodes[i] != fr.nodes[i] || ir.scanStop[i] != fr.scanStop[i] || ir.scanRed[i] != fr.scanRed[i] {
					t.Fatalf("seed step %d world %d entry %d differs", step, w, i)
				}
			}
		}
	}
}

// TestWorldCacheDeltaBenefitsParallelMatchesSequential pins the parallel
// delta sweep to the sequential one bit for bit: workers split the batch
// into candidate chunks and each candidate's per-world deltas fold in
// ascending world order at every worker count. The two-candidate batch runs
// fewer candidates than workers.
func TestWorldCacheDeltaBenefitsParallelMatchesSequential(t *testing.T) {
	inst := randomInstance(t, 50, 160, 19)
	d := randomDeployment(inst, 2, 10, 20)
	seqWC := NewWorldCache(inst, 300, 23, 0)
	parWC := NewWorldCache(inst, 300, 23, 4)
	seqWC.Rebase(d)
	parWC.Rebase(d)
	var cands []int32
	for v := int32(0); v < int32(inst.G.NumNodes()); v++ {
		if d.K(v) < inst.G.OutDegree(v) {
			cands = append(cands, v)
		}
	}
	for _, batch := range [][]int32{cands, cands[:2]} {
		seq := seqWC.DeltaBenefits(batch)
		par := parWC.DeltaBenefits(batch)
		for i := range batch {
			if seq[i] != par[i] {
				t.Fatalf("%d candidates, candidate %d: sequential %v, parallel %v", len(batch), batch[i], seq[i], par[i])
			}
		}
	}
}

// TestWorldCacheEvaluateDeltaExact verifies the sparse evaluation is exact:
// worlds that never activate a changed node are provably identical, and the
// rest go through the same kernel, so the result must match a full
// evaluation to floating-point.
func TestWorldCacheEvaluateDeltaExact(t *testing.T) {
	inst := randomInstance(t, 40, 140, 29)
	d := randomDeployment(inst, 2, 10, 30)
	const samples = 300
	est := NewEstimator(inst, samples, 31)
	wc := NewWorldCache(inst, samples, 31, 0)
	wc.Rebase(d)

	allocated := d.Allocated()
	if len(allocated) < 2 {
		t.Fatal("want at least two allocated users")
	}
	// Single-node removal.
	trial := d.Clone()
	trial.AddK(allocated[0], -1)
	if got, want := wc.EvaluateDelta(trial, []int32{allocated[0]}), est.Benefit(trial); !almost(got, want, 1e-9) {
		t.Fatalf("removal: EvaluateDelta %v, full %v", got, want)
	}
	// Multi-node change: move a coupon and add one elsewhere.
	trial = d.Clone()
	trial.AddK(allocated[0], -1)
	changed := []int32{allocated[0], allocated[1]}
	if trial.K(allocated[1]) < inst.G.OutDegree(allocated[1]) {
		trial.AddK(allocated[1], 1)
	}
	if got, want := wc.EvaluateDelta(trial, changed), est.Benefit(trial); !almost(got, want, 1e-9) {
		t.Fatalf("move: EvaluateDelta %v, full %v", got, want)
	}
	// Over-approximating the changed set stays exact.
	if got, want := wc.EvaluateDelta(trial, append(changed, allocated...)), est.Benefit(trial); !almost(got, want, 1e-9) {
		t.Fatalf("over-approximated change set: EvaluateDelta %v, full %v", got, want)
	}
}

// TestActivatedCountsRedeemedNeighbors pins the Activated metric: the seeds
// plus the out-neighbours that redeemed a coupon, each counted once per
// world; a neighbour probed dead is not activated.
func TestActivatedCountsRedeemedNeighbors(t *testing.T) {
	g, err := graph.FromEdges(3, []graph.Edge{
		{From: 0, To: 1, P: 1},
		{From: 0, To: 2, P: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	inst := &Instance{
		G:        g,
		Benefit:  []float64{1, 1, 1},
		SeedCost: []float64{1, 1, 1},
		SCCost:   []float64{1, 1, 1},
		Budget:   10,
	}
	d := NewDeployment(3)
	d.AddSeed(0)
	d.SetK(0, 2)
	r := NewEstimator(inst, 10, 1).Evaluate(d)
	// Seed 0 activates 1 (p=1) and probes 2 (p=0): 2 activated.
	if r.Activated != 2 {
		t.Fatalf("Activated = %v, want 2", r.Activated)
	}
	// Without coupons nothing is probed.
	d.SetK(0, 0)
	r = NewEstimator(inst, 10, 1).Evaluate(d)
	if r.Activated != 1 {
		t.Fatalf("k=0: Activated = %v, want 1", r.Activated)
	}
}

// TestDeltaBenefitsKeepsScratchAcrossGC: the per-worker replay scratch (20
// bytes per user) belongs to the cache, so a collection between two
// DeltaBenefits calls must not make the second allocate it again. Two
// collections run, since a sync.Pool keeps its objects through one.
func TestDeltaBenefitsKeepsScratchAcrossGC(t *testing.T) {
	const n = 5000
	inst := randomInstance(t, n, 4*n, 31)
	d := randomDeployment(inst, 3, 20, 32)
	wc := NewWorldCache(inst, 128, 33, 2)
	wc.Rebase(d)
	cands := d.Seeds()
	if len(cands) < 2 {
		t.Fatalf("want at least two candidates, got %d", len(cands))
	}
	wc.DeltaBenefits(cands)
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wc.DeltaBenefits(cands)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 16*n {
		t.Fatalf("second DeltaBenefits allocated %d bytes, want < %d", got, 16*n)
	}
}

// replayCoverage counts the replay cases the block-replay oracle met, so
// the property test can insist that its instances reach every one.
type replayCoverage struct {
	fresh     int // worlds of a candidate without coupons: the scan starts at the row's head
	slack     int // worlds whose recorded scan had a spare coupon: the replay adds nothing
	saturated int // worlds whose recorded scan used up every coupon
	rowEnd    int // saturated worlds whose scan stopped at the row's end
	cascade   int // replay activations of a coupon holder, whose own scan then runs
}

// scalarDeltaBenefits is the reference for DeltaBenefits: for each
// candidate, the base benefit plus the mean of replayAddCoupon over the
// worlds the base activates it in, summed in ascending world order.
func scalarDeltaBenefits(wc *WorldCache, cands []int32, cov *replayCoverage) []float64 {
	e := wc.Est
	n := e.Inst.G.NumNodes()
	sums := make([]float64, len(cands))
	act := make([]bool, n)
	for w := 0; w < e.Samples; w++ {
		s := &wc.snaps[w/64]
		bit := uint64(1) << uint(w%64)
		clear(act)
		for _, ent := range s.ents {
			if ent.mask&bit != 0 {
				act[ent.node] = true
			}
		}
		for ci, v := range cands {
			if act[v] {
				sums[ci] += replayAddCoupon(wc, s, w, act, v, cov)
			}
		}
	}
	out := make([]float64, len(cands))
	for i, sum := range sums {
		out[i] = wc.baseResult.Benefit + sum*(1/float64(e.Samples))
	}
	return out
}

// replayAddCoupon returns the benefit world w, whose block snapshot is s
// and whose base activations act marks, gains when active node v is granted
// one extra coupon, one world and one edge at a time: v's offer scan
// resumes where its recorded scan stopped with one more redemption allowed,
// and any newly activated user cascades with its own base allocation.
// Base-world outcomes are frozen — already active users are skipped without
// consuming coupons, exactly as in the kernel.
func replayAddCoupon(wc *WorldCache, s *blockSnap, w int, act []bool, v int32, cov *replayCoverage) float64 {
	k := wc.base.K(v)
	bit := w % 64
	var red, stop int32
	if k > 0 {
		for _, ent := range s.ents {
			if ent.node == v && ent.mask&(1<<uint(bit)) != 0 {
				red, stop = s.scanAt(ent, bit)
			}
		}
	}
	g, in, le := wc.Est.Inst.G, wc.Est.Inst, wc.Est.Live
	targets, _, keys, kbase := g.OutRow(v)
	switch {
	case k == 0:
		cov.fresh++
	case int(red) < k:
		cov.slack++
		return 0 // the base scan already had a spare coupon; one more is inert
	case int(stop) == len(targets):
		cov.saturated++
		cov.rowEnd++
	default:
		cov.saturated++
	}
	world := uint64(w)
	replayed := map[int32]bool{}
	var queue []int32
	for j := int(stop); j < len(targets); j++ {
		t := targets[j]
		if act[t] {
			continue // already active: no coupon consumed
		}
		ek := uint64(kbase) + uint64(j)
		if keys != nil {
			ek = uint64(uint32(keys[j]))
		}
		if le.Live(world, ek) {
			replayed[t] = true
			queue = append(queue, t)
			break // the single extra coupon is spent
		}
	}
	delta := 0.0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		delta += in.Benefit[u]
		coupons := wc.base.K(u)
		if coupons == 0 {
			continue
		}
		cov.cascade++
		ts, _, uk, ukb := g.OutRow(u)
		redeemed := 0
		for j, t := range ts {
			if redeemed >= coupons {
				break
			}
			if act[t] || replayed[t] {
				continue
			}
			ek := uint64(ukb) + uint64(j)
			if uk != nil {
				ek = uint64(uint32(uk[j]))
			}
			if le.Live(world, ek) {
				replayed[t] = true
				queue = append(queue, t)
				redeemed++
			}
		}
	}
	return delta
}

// moveStops rewrites the recorded stop of every world whose scan used up
// its coupons to a random row position. On a true snapshot every row
// position before a stop holds a user the base activated or a dead edge,
// so a replay that resumed anywhere at or before the stop would give the
// same answer; with the stops moved, only a replay that resumes each world
// exactly at its own recorded stop agrees with the oracle.
func moveStops(wc *WorldCache, src *rng.Source) {
	g := wc.Est.Inst.G
	for b := range wc.snaps {
		s := &wc.snaps[b]
		for _, ent := range s.ents {
			if ent.scan == noScan {
				continue
			}
			k, deg := wc.base.K(ent.node), g.OutDegree(ent.node)
			for i := int(ent.scan); i < int(ent.scan)+bits.OnesCount64(ent.mask); i++ {
				if int(s.red[i]) >= k {
					s.stop[i] = int32(src.Intn(deg + 1))
				}
			}
		}
	}
}

// TestDeltaBenefitsBlockReplayOracle is the block replay's contract:
// DeltaBenefits equals the scalar oracle (scalarDeltaBenefits) bit for bit,
// under IC and LT, on materialized and hashed liveness, at sample counts
// with ragged tail blocks and at 1, 2 and 3 workers. Each cache walks a
// chain of coupon advances and seed adds, so the snapshots carry merged
// entries and scattered runs, and is checked after every move and once more
// with its stops moved (moveStops). The instances must reach every replay
// case: candidates without coupons, slack and saturated scans, scans
// stopped at the row's end and coupon holders reached by a cascade.
func TestDeltaBenefitsBlockReplayOracle(t *testing.T) {
	for _, model := range Models() {
		for _, sub := range substrateBudgets {
			for _, samples := range []int{37, 170} {
				for _, workers := range []int{1, 2, 3} {
					name := fmt.Sprintf("%s/%s/samples=%d/workers=%d", model, sub.name, samples, workers)
					t.Run(name, func(t *testing.T) {
						testDeltaBenefitsBlockReplay(t, model, sub.budget, samples, workers)
					})
				}
			}
		}
	}
}

func testDeltaBenefitsBlockReplay(t *testing.T, model string, budget int64, samples, workers int) {
	inst := randomInstance(t, 36, 150, 71)
	if model == ModelLT {
		inst.G = inst.G.CapInWeights()
	}
	ev, _ := newTestEngine(t, inst, EngineOptions{
		Engine: EngineWorldCache, Model: model, Samples: samples, Seed: 73,
		LiveEdgeMemBudget: budget, Workers: workers,
	})
	wc := ev.(*WorldCache)
	d := randomDeployment(inst, 2, 14, 74)
	src := rng.New(75)
	var cov replayCoverage
	check := func(step string) {
		cands := make([]int32, inst.G.NumNodes())
		for i := range cands {
			cands[i] = int32(i)
		}
		got, want := wc.DeltaBenefits(cands), scalarDeltaBenefits(wc, cands, &cov)
		for i, v := range cands {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: candidate %d (K=%d): DeltaBenefits %v, oracle %v", step, v, d.K(v), got[i], want[i])
			}
		}
	}
	wc.Rebase(d)
	check("rebase")
	n := inst.G.NumNodes()
	for step := 0; step < 10; step++ {
		v := int32(src.Intn(n))
		switch {
		case step%4 == 3 && !d.IsSeed(v):
			d.AddSeed(v)
		case d.K(v) < inst.G.OutDegree(v):
			d.AddK(v, 1)
		}
		wc.Rebase(d)
		check(fmt.Sprintf("step %d", step))
	}
	moveStops(wc, src)
	check("moved stops")
	if cov.fresh == 0 || cov.slack == 0 || cov.saturated == 0 || cov.rowEnd == 0 || cov.cascade == 0 {
		t.Fatalf("replay cases not all reached: %+v", cov)
	}
}
