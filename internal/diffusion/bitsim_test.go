package diffusion

import (
	"slices"
	"testing"

	"s3crm/internal/rng"
)

// substrateBudgets maps the test-side substrate labels to live-edge memory
// budgets: "liveedge" materializes within the default budget, "hash" runs
// on a 1-byte budget that materializes nothing and hashes every probe.
var substrateBudgets = []struct {
	name   string
	budget int64
}{{"liveedge", 0}, {"hash", 1}}

// newTestEngine builds an engine through NewEngineOpts and returns it with
// its estimator.
func newTestEngine(t testing.TB, inst *Instance, o EngineOptions) (Evaluator, *Estimator) {
	t.Helper()
	ev, err := NewEngineOpts(inst, o)
	if err != nil {
		t.Fatal(err)
	}
	if wc, ok := ev.(*WorldCache); ok {
		return ev, wc.Est
	}
	return ev, ev.(*Estimator)
}

// scalarEvaluate is the tests' reference for Estimator.Evaluate: it folds
// simWorld over the worlds in ascending order, over the same worker ranges
// Evaluate splits the sweep into, and combines the ranges as Evaluate does.
// The block kernel must reproduce it bit for bit.
func scalarEvaluate(e *Estimator, d *Deployment) Result {
	workers := e.Workers
	if workers <= 1 || e.Samples < 4*workers {
		return scalarRange(e, d, 0, e.Samples)
	}
	var total Result
	per, extra, lo := e.Samples/workers, e.Samples%workers, 0
	for w := 0; w < workers; w++ {
		hi := lo + per
		if w < extra {
			hi++
		}
		r := scalarRange(e, d, lo, hi)
		lo = hi
		total.Benefit += r.Benefit * r.weight
		total.RealizedCost += r.RealizedCost * r.weight
		total.Activated += r.Activated * r.weight
		total.FarthestHop += r.FarthestHop * r.weight
		total.Explored += r.Explored * r.weight
		total.BenefitSqMean += r.BenefitSqMean * r.weight
	}
	total.weight = 1
	return total
}

// scalarRange folds simWorld over worlds [lo, hi) in ascending order.
func scalarRange(e *Estimator, d *Deployment, lo, hi int) Result {
	s := newSimScratch(e.Inst.G.NumNodes())
	var sumB, sumB2, sumC, sumA, sumH, sumX float64
	for w := lo; w < hi; w++ {
		b, c, hop, activated, explored := e.simWorld(s, d, uint64(w), nil)
		sumB += b
		sumB2 += b * b
		sumC += c
		sumA += float64(activated)
		sumH += float64(hop)
		sumX += float64(explored)
	}
	count := float64(hi - lo)
	return Result{
		Benefit:       sumB / count,
		RealizedCost:  sumC / count,
		Activated:     sumA / count,
		FarthestHop:   sumH / count,
		Explored:      sumX / count,
		BenefitSqMean: sumB2 / count,
		weight:        count / float64(e.Samples),
	}
}

// checkCacheStep asserts the world cache's state after a Rebase that
// returned got:
//   - every world's snapshot record and metrics equal simWorld's for that
//     world (the probed list as a set: in-place patches append to it);
//   - got equals the sequential scalar fold (a cached Result carries no
//     BenefitSqMean);
//   - for every candidate v, EvaluateDelta of the base plus one coupon at v
//     equals baseSumB plus Σ_w (simWorld_w − worlds[w].benefit) folded in
//     ascending world order, where every unaffected world adds exactly 0.
//     Sweeping all candidates reaches both the block runs and the lone
//     worlds EvaluateDelta routes through simWorld.
func checkCacheStep(t *testing.T, wc *WorldCache, got Result, cands []int32, step int) {
	t.Helper()
	e := wc.Est
	s := newSimScratch(e.Inst.G.NumNodes())
	for w := range wc.worlds {
		var rec worldRecord
		b, c, hop, activated, explored := e.simWorld(s, wc.base, uint64(w), &rec)
		ws := &wc.worlds[w]
		if ws.benefit != b || ws.cost != c || ws.hop != hop ||
			int(ws.activated) != activated || int(ws.explored) != explored {
			t.Fatalf("step %d world %d: snapshot metrics (%v %v %d %d %d) != simWorld (%v %v %d %d %d)",
				step, w, ws.benefit, ws.cost, ws.hop, ws.activated, ws.explored, b, c, hop, activated, explored)
		}
		if !slices.Equal(ws.rec.nodes, rec.nodes) || !slices.Equal(ws.rec.scanStop, rec.scanStop) ||
			!slices.Equal(ws.rec.scanRed, rec.scanRed) {
			t.Fatalf("step %d world %d: snapshot record %+v != simWorld %+v", step, w, ws.rec, rec)
		}
		if !slices.Equal(slices.Sorted(slices.Values(ws.rec.probed)), slices.Sorted(slices.Values(rec.probed))) {
			t.Fatalf("step %d world %d: probed set %v != simWorld %v", step, w, ws.rec.probed, rec.probed)
		}
	}
	want := scalarRange(e, wc.base, 0, e.Samples)
	want.BenefitSqMean = 0
	if got != want {
		t.Fatalf("step %d: Rebase %v != scalar fold %v", step, got, want)
	}
	for _, v := range cands {
		trial := wc.base.Clone()
		trial.AddK(v, 1)
		sum := wc.baseSumB
		for w := range wc.worlds {
			b, _, _, _, _ := e.simWorld(s, trial, uint64(w), nil)
			sum += b - wc.worlds[w].benefit
		}
		if got, want := wc.EvaluateDelta(trial, []int32{v}), sum/float64(e.Samples); got != want {
			t.Fatalf("step %d candidate %d: EvaluateDelta %v != scalar delta fold %v", step, v, got, want)
		}
	}
}

// TestBitParallelScalarParity is the block kernel's contract: across every
// (engine, model, substrate) cell and at sample counts exercising full and
// ragged tail blocks, Evaluate returns Results bit-identical to the scalar
// fold of simWorld — every field, not just the benefit. The 37- and
// 70-sample cells force partial block masks (37 < 64 < 70 < 128), the
// 200-sample cell a multi-block run.
func TestBitParallelScalarParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	for _, engine := range []string{EngineMC, EngineWorldCache} {
		for _, model := range Models() {
			for _, sub := range substrateBudgets {
				for _, samples := range []int{37, 70, 200} {
					t.Run(engine+"/"+model+"/"+sub.name, func(t *testing.T) {
						ev, est := newTestEngine(t, inst, EngineOptions{
							Engine: engine, Model: model, Samples: samples, Seed: 7,
							LiveEdgeMemBudget: sub.budget,
						})
						for i, d := range liveEdgeDeployments(inst) {
							if got, want := ev.Evaluate(d), scalarEvaluate(est, d); got != want {
								t.Fatalf("samples=%d deployment %d: block %v != scalar %v", samples, i, got, want)
							}
						}
					})
				}
			}
		}
	}
}

// TestBitParallelMemCapParity squeezes the live-edge budget to three rows,
// so block probes mix one-load materialized masks with the per-bit coin
// fallback inside a single scan. Outcomes must stay identical to scalar.
func TestBitParallelMemCapParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 100
	rowBytes := int64((samples + 63) / 64 * 8)
	_, est := newTestEngine(t, inst, EngineOptions{
		Engine: EngineMC, Samples: samples, Seed: 3, LiveEdgeMemBudget: 3 * rowBytes,
	})
	for i, d := range liveEdgeDeployments(inst) {
		if got, want := est.Evaluate(d), scalarEvaluate(est, d); got != want {
			t.Fatalf("deployment %d: block %v != scalar %v under a 3-row budget", i, got, want)
		}
	}
	if est.BlockEvals() == 0 {
		t.Fatal("capped substrate ran no block evaluations")
	}
}

// TestBitParallelWorkersParity checks the block kernel at every worker
// count against the scalar fold over the same (unaligned) worker ranges:
// the partial blocks a split boundary cuts must reproduce the scalar
// per-world outcomes bit for bit. (Parallel vs sequential differs in the
// last float bits by the per-range fold — that cross-count drift is pinned
// to tolerance, not exactness.)
func TestBitParallelWorkersParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 200
	d := liveEdgeDeployments(inst)[0]
	_, seq := newTestEngine(t, inst, EngineOptions{Engine: EngineMC, Samples: samples, Seed: 7})
	want := seq.Evaluate(d)
	for _, workers := range []int{2, 3, 7} {
		_, est := newTestEngine(t, inst, EngineOptions{Engine: EngineMC, Samples: samples, Seed: 7, Workers: workers})
		a, b := est.Evaluate(d), scalarEvaluate(est, d)
		if a != b {
			t.Fatalf("workers=%d: block %v != scalar %v", workers, a, b)
		}
		if !almost(a.Benefit, want.Benefit, 1e-9) || !almost(a.FarthestHop, want.FarthestHop, 1e-9) {
			t.Fatalf("workers=%d: parallel %v drifted from sequential %v", workers, a, want)
		}
	}
}

// worldCacheChain drives a world cache through a rebase chain — coupon
// increments, plus a seed addition every seedEvery-th step — calling step
// after every Rebase with the move's Result and the users that can still
// take a coupon.
func worldCacheChain(inst *Instance, wc *WorldCache, steps, seedEvery int, step func(i int, got Result, cands []int32)) {
	d := randomDeployment(inst, 2, 5, 62)
	src := rng.New(64)
	n := inst.G.NumNodes()
	for i := 0; i < steps; i++ {
		v := int32(src.Intn(n))
		if i%seedEvery == seedEvery-1 {
			for d.IsSeed(v) {
				v = int32(src.Intn(n))
			}
			d.AddSeed(v)
		} else if d.K(v) < inst.G.OutDegree(v) {
			d.AddK(v, 1)
		}
		got := wc.Rebase(d)
		step(i, got, couponCandidates(inst, d))
	}
}

// couponCandidates lists the users that can take one more coupon under d.
func couponCandidates(inst *Instance, d *Deployment) []int32 {
	var cands []int32
	for u := int32(0); u < int32(inst.G.NumNodes()); u++ {
		if d.K(u) < inst.G.OutDegree(u) {
			cands = append(cands, u)
		}
	}
	return cands
}

// TestWorldCacheBitParallelSequenceParity drives the world cache through a
// rebase chain — coupon increments, seed additions, candidate delta sweeps
// and sparse delta evaluations — and checks every step against the scalar
// reference (checkCacheStep) and the delta sweep against a cold cache
// rebased onto the same deployment. The chain covers the incremental paths
// the Rebase fast paths take (advance, advanceSeed, patch vs re-simulate)
// on top of the full-rebase block kernel, at a sample count with a ragged
// tail block.
func TestWorldCacheBitParallelSequenceParity(t *testing.T) {
	inst := randomInstance(t, 40, 140, 61)
	const samples = 170 // 2 full blocks + a 42-world tail
	wc := NewWorldCache(inst, samples, 63, 0)
	worldCacheChain(inst, wc, 8, 3, func(i int, got Result, cands []int32) {
		checkCacheStep(t, wc, got, cands, i)
		cold := NewWorldCache(inst, samples, 63, 0)
		cold.Rebase(wc.base)
		want, deltas := cold.DeltaBenefits(cands), wc.DeltaBenefits(cands)
		for j := range want {
			if deltas[j] != want[j] {
				t.Fatalf("step %d candidate %d: delta %v != cold %v", i, cands[j], deltas[j], want[j])
			}
		}
	})
}

// TestWorldCacheBitParallelTiersParity repeats the chain under each
// membership tier — dense bit rows, the CSR inverted index and the stamp
// sweep — checking every step against the scalar reference.
func TestWorldCacheBitParallelTiersParity(t *testing.T) {
	inst := randomInstance(t, 40, 140, 61)
	const samples = 170
	origAct, origDense := maxActBitsetBytes, maxDenseScanBytes
	defer func() { maxActBitsetBytes, maxDenseScanBytes = origAct, origDense }()
	for _, tier := range []struct {
		name       string
		act, dense int64
	}{
		{"dense", origAct, origDense},
		{"index", origAct, 0},
		{"sweep", 0, 0},
	} {
		t.Run(tier.name, func(t *testing.T) {
			maxActBitsetBytes, maxDenseScanBytes = tier.act, tier.dense
			wc := NewWorldCache(inst, samples, 63, 0)
			worldCacheChain(inst, wc, 6, 2, func(i int, got Result, cands []int32) {
				checkCacheStep(t, wc, got, cands, i)
			})
		})
	}
}

// TestWorldCacheBitParallelRebaseWorkers checks the block-aligned parallel
// rebase split: results, snapshots and subsequent delta sweeps are
// bit-identical to the sequential rebase and the scalar reference at every
// worker count.
func TestWorldCacheBitParallelRebaseWorkers(t *testing.T) {
	inst := randomInstance(t, 40, 140, 61)
	const samples = 170
	d := randomDeployment(inst, 2, 5, 62)
	cands := couponCandidates(inst, d)
	base := NewWorldCache(inst, samples, 63, 0)
	wantRes := base.Rebase(d)
	wantDeltas := base.DeltaBenefits(cands)
	for _, workers := range []int{2, 3, 5} {
		wc := NewWorldCache(inst, samples, 63, workers)
		got := wc.Rebase(d)
		if got != wantRes {
			t.Fatalf("workers=%d: Rebase %v != sequential %v", workers, got, wantRes)
		}
		checkCacheStep(t, wc, got, cands, workers)
		deltas := wc.DeltaBenefits(cands)
		for i := range wantDeltas {
			if deltas[i] != wantDeltas[i] {
				t.Fatalf("workers=%d candidate %d: delta %v != sequential %v",
					workers, cands[i], deltas[i], wantDeltas[i])
			}
		}
	}
}

// TestBenefitSqMeanMoments pins the second-moment channel the block kernel
// feeds the serving layer's error bars: E[B²] can never fall below (E[B])²
// (Jensen), a single world is degenerate (E[B²] = (E[B])² exactly), and —
// via the struct equality in the parity tests above — it matches the scalar
// fold bit for bit.
func TestBenefitSqMeanMoments(t *testing.T) {
	inst := liveEdgeInstance(t)
	ev, _ := newTestEngine(t, inst, EngineOptions{Engine: EngineMC, Samples: 128, Seed: 7})
	for i, d := range liveEdgeDeployments(inst) {
		res := ev.Evaluate(d)
		if res.BenefitSqMean < res.Benefit*res.Benefit-1e-9 {
			t.Fatalf("deployment %d: E[B²]=%v < (E[B])²=%v",
				i, res.BenefitSqMean, res.Benefit*res.Benefit)
		}
	}
	one, _ := newTestEngine(t, inst, EngineOptions{Engine: EngineMC, Samples: 1, Seed: 7})
	res := one.Evaluate(liveEdgeDeployments(inst)[0])
	if !almost(res.BenefitSqMean, res.Benefit*res.Benefit, 1e-12) {
		t.Fatalf("single world: E[B²]=%v, (E[B])²=%v — must coincide",
			res.BenefitSqMean, res.Benefit*res.Benefit)
	}
}
