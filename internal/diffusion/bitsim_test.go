package diffusion

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"s3crm/internal/bitset"
	"s3crm/internal/graph"
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

// simScratch holds the scalar reference's per-world propagation state,
// reused across worlds via epoch stamping so large arrays are never
// cleared.
type simScratch struct {
	epoch int32
	stamp []int32 // stamp[v] == epoch ⇒ v active in current world
	hop   []int32
	queue []int32
}

func newSimScratch(n int) *simScratch {
	return &simScratch{
		stamp: make([]int32, n),
		hop:   make([]int32, n),
		queue: make([]int32, 0, 256),
	}
}

func (s *simScratch) reset() {
	s.epoch++
	if s.epoch == 0 { // wrapped; clear stamps once per 2^31 worlds
		for i := range s.stamp {
			s.stamp[i] = -1
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
}

func (s *simScratch) active(v int32) bool { return s.stamp[v] == s.epoch }

func (s *simScratch) activate(v, hop int32) {
	s.stamp[v] = s.epoch
	s.hop[v] = hop
	s.queue = append(s.queue, v)
}

// worldRecord is one world's activation record: the activated nodes in
// activation order and, for each, where its coupon offer scan stopped.
// scanStop is the adjacency position of the first neighbour never offered a
// coupon (the node's out-degree when the scan ran to the end of the list);
// scanRed is how many coupons the scan redeemed. A node without coupons
// records 0 for both.
type worldRecord struct {
	nodes    []int32
	scanStop []int32
	scanRed  []int32
}

// snapshotRecord expands world w of the cache's block-order snapshot into
// its per-world record: the entries of w's block whose mask holds w, in list
// order, with their scan state at w.
func snapshotRecord(wc *WorldCache, w int) worldRecord {
	return blockRecord(&wc.snaps[w/bitset.WordBits], w&bitset.WordMask)
}

// blockRecord expands world bit of block snapshot s into its record.
func blockRecord(s *blockSnap, bit int) worldRecord {
	var rec worldRecord
	for _, ent := range s.ents {
		if ent.mask>>uint(bit)&1 == 0 {
			continue
		}
		red, stop := s.scanAt(ent, bit)
		rec.nodes = append(rec.nodes, ent.node)
		rec.scanStop = append(rec.scanStop, stop)
		rec.scanRed = append(rec.scanRed, red)
	}
	return rec
}

// activeWorlds lists the worlds activating v in ascending order, read from
// the cache's inverted index, with v's position in each world's record.
func activeWorlds(wc *WorldCache, v int32) (worlds, pos []int32) {
	wc.refreshIndex()
	masks := make([]uint64, len(wc.snaps))
	for _, r := range wc.activeEntries(v) {
		masks[r.blk] |= wc.snaps[r.blk].ents[r.idx].mask
	}
	for b, m := range masks {
		for ; m != 0; m &= m - 1 {
			w := b*bitset.WordBits + bits.TrailingZeros64(m)
			worlds = append(worlds, int32(w))
			pos = append(pos, int32(slices.Index(snapshotRecord(wc, w).nodes, v)))
		}
	}
	return worlds, pos
}

// simWorld is the scalar reference kernel the block kernel (simBlock) must
// reproduce world for world: it propagates one possible world for
// deployment d with a plain one-world BFS, returning the world's benefit,
// realized SC cost, farthest hop and activated count, and appending the
// world's activation order and scan state to rec when rec is non-nil.
func (e *Estimator) simWorld(s *simScratch, d *Deployment, world uint64, rec *worldRecord) (worldB, worldC float64, maxHop int32, activated int) {
	g := e.Inst.G
	le := e.Live
	s.reset()
	for _, seed := range d.Seeds() {
		if !s.active(seed) {
			s.activate(seed, 0)
		}
	}
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		worldB += e.Inst.Benefit[v]
		if s.hop[v] > maxHop {
			maxHop = s.hop[v]
		}
		coupons := d.K(v)
		stop, redeemed := 0, 0
		if coupons > 0 {
			targets, _, keys, kbase := g.OutRow(v)
			base := uint64(kbase)
			j := 0
			for ; j < len(targets); j++ {
				if redeemed >= coupons {
					break
				}
				t := targets[j]
				if s.active(t) {
					continue // already active: no coupon consumed
				}
				ek := base + uint64(j)
				if keys != nil {
					ek = uint64(uint32(keys[j]))
				}
				if le.Live(world, ek) {
					s.activate(t, s.hop[v]+1)
					worldC += e.Inst.SCCost[t]
					redeemed++
				}
			}
			stop = j
		}
		if rec != nil {
			rec.nodes = append(rec.nodes, v)
			rec.scanStop = append(rec.scanStop, int32(stop))
			rec.scanRed = append(rec.scanRed, int32(redeemed))
		}
	}
	return worldB, worldC, maxHop, len(s.queue)
}

// scalarEvaluate is the tests' reference for Estimator.Evaluate: it folds
// simWorld over the worlds in ascending order. The block kernel must
// reproduce it bit for bit at every worker count.
func scalarEvaluate(e *Estimator, d *Deployment) Result {
	s := newSimScratch(e.Inst.G.NumNodes())
	var sumB, sumB2, sumC, sumA, sumH float64
	for w := 0; w < e.Samples; w++ {
		b, c, hop, activated := e.simWorld(s, d, uint64(w), nil)
		sumB += b
		sumB2 += b * b
		sumC += c
		sumA += float64(activated)
		sumH += float64(hop)
	}
	count := float64(e.Samples)
	return Result{
		Benefit:       sumB / count,
		RealizedCost:  sumC / count,
		Activated:     sumA / count,
		FarthestHop:   sumH / count,
		BenefitSqMean: sumB2 / count,
	}
}

// checkCacheStep asserts the world cache's state after a Rebase that
// returned got:
//   - every world's snapshot record and metrics equal simWorld's for that
//     world;
//   - got equals the scalar fold;
//   - for every candidate v, EvaluateDelta of the base plus one coupon at v
//     equals baseSumB plus Σ_w (simWorld_w − outs.benefit[w]) folded in
//     ascending world order, where every unaffected world adds exactly 0.
func checkCacheStep(t *testing.T, wc *WorldCache, got Result, cands []int32, step int) {
	t.Helper()
	checkSnapshots(t, wc, step)
	e := wc.Est
	if want := scalarEvaluate(e, wc.base); got != want {
		t.Fatalf("step %d: Rebase %v != scalar fold %v", step, got, want)
	}
	for _, v := range cands {
		trial := wc.base.Clone()
		trial.AddK(v, 1)
		if got, want := wc.EvaluateDelta(trial, []int32{v}), scalarDelta(wc, trial); got != want {
			t.Fatalf("step %d candidate %d: EvaluateDelta %v != scalar delta fold %v", step, v, got, want)
		}
	}
}

// checkSnapshots asserts that every world's snapshot record and metrics
// equal simWorld's for the cache's base deployment.
func checkSnapshots(t *testing.T, wc *WorldCache, step int) {
	t.Helper()
	e := wc.Est
	s := newSimScratch(e.Inst.G.NumNodes())
	o := wc.outs
	for w := 0; w < e.Samples; w++ {
		var rec worldRecord
		b, c, hop, activated := e.simWorld(s, wc.base, uint64(w), &rec)
		r := snapshotRecord(wc, w)
		if o.benefit[w] != b || o.cost[w] != c || o.hop[w] != hop || int(o.activated[w]) != activated {
			t.Fatalf("step %d world %d: snapshot metrics (%v %v %d %d) != simWorld (%v %v %d %d)",
				step, w, o.benefit[w], o.cost[w], o.hop[w], o.activated[w], b, c, hop, activated)
		}
		if !slices.Equal(r.nodes, rec.nodes) || !slices.Equal(r.scanStop, rec.scanStop) ||
			!slices.Equal(r.scanRed, rec.scanRed) {
			t.Fatalf("step %d world %d: snapshot record %+v != simWorld %+v", step, w, r, rec)
		}
	}
}

// scalarDelta is the reference for EvaluateDelta(d, ·): baseSumB plus
// Σ_w (simWorld_w(d) − outs.benefit[w]), folded in ascending world order.
func scalarDelta(wc *WorldCache, d *Deployment) float64 {
	e := wc.Est
	s := newSimScratch(e.Inst.G.NumNodes())
	sum := wc.baseSumB
	for w := 0; w < e.Samples; w++ {
		b, _, _, _ := e.simWorld(s, d, uint64(w), nil)
		sum += b - wc.outs.benefit[w]
	}
	return sum / float64(e.Samples)
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

// TestSimBlockSeedPrefix runs the block kernel directly against the scalar
// reference with no seed, one seed and many, each under a full block mask,
// a sparse one and the ragged tail block's: every world's slots and
// snapshot record must equal simWorld's. The seed prefix — every world's
// benefit starting from the seeds' benefits summed in ascending seed order,
// and its activated count from the seed count — is written
// once per block, so this is where a wrong order or count shows.
func TestSimBlockSeedPrefix(t *testing.T) {
	inst := randomInstance(t, 40, 140, 71)
	const samples = 2*64 + 37
	est := NewEstimator(inst, samples, 73)
	src := rng.New(75)
	for _, seeds := range []int{0, 1, 12} {
		d := NewDeployment(40)
		for d.NumSeeds() < seeds {
			d.AddSeed(int32(src.Intn(40)))
		}
		for i := 0; i < 14; i++ {
			if v := int32(src.Intn(40)); d.K(v) < inst.G.OutDegree(v) {
				d.AddK(v, 1)
			}
		}
		for _, c := range []struct {
			block int
			mask  uint64
		}{{0, ^uint64(0)}, {1, 0x8000_0040_0100_0003}, {2, bitset.RangeMask(0, 37)}} {
			out := newWorldSlots(samples)
			var snap blockSnap
			bs := est.getBlockScratch()
			est.simBlock(bs, d, c.block*64, c.mask, out, &snap, nil, nil)
			est.putBlockScratch(bs)
			sc := newSimScratch(40)
			for m := c.mask; m != 0; m &= m - 1 {
				bit := bits.TrailingZeros64(m)
				w := c.block*64 + bit
				var rec worldRecord
				b, cost, hop, activated := est.simWorld(sc, d, uint64(w), &rec)
				if out.benefit[w] != b || out.cost[w] != cost || out.hop[w] != hop || int(out.activated[w]) != activated {
					t.Fatalf("%d seeds, world %d: kernel (%v %v %d %d) != simWorld (%v %v %d %d)", seeds, w,
						out.benefit[w], out.cost[w], out.hop[w], out.activated[w], b, cost, hop, activated)
				}
				if got := blockRecord(&snap, bit); !reflect.DeepEqual(got, rec) {
					t.Fatalf("%d seeds, world %d: snapshot record %+v != simWorld %+v", seeds, w, got, rec)
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
// count against the sequential scalar fold: per-worker block ranges fill
// per-world slots that fold in ascending world order, so the parallel
// Result must equal the scalar reference bit for bit, for every deployment.
func TestBitParallelWorkersParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	forWorkerCells(t, func(t *testing.T, o EngineOptions) {
		_, seq := newTestEngine(t, inst, o)
		for _, workers := range []int{2, 3, 7} {
			o.Workers = workers
			_, est := newTestEngine(t, inst, o)
			for i, d := range liveEdgeDeployments(inst) {
				if got, want := est.Evaluate(d), scalarEvaluate(seq, d); got != want {
					t.Fatalf("workers=%d deployment %d: parallel %v != scalar %v", workers, i, got, want)
				}
			}
		}
	})
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
// rebased onto the same deployment. The chain covers the incremental
// coupon advance and the full rebase a seed move takes, both on the block
// kernel, at a sample count with a ragged tail block.
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

// rareStarInstance returns a star of rare edges and a deployment over it:
// the seed, user 0, offers coupons to users 1..30 over edges of probability
// 0.006, so of 170 worlds each of them is active in about one; each holds
// three weak out-edges into users 31..40, and users 1..10 hold two coupons.
func rareStarInstance(t *testing.T) (*Instance, *Deployment) {
	t.Helper()
	var es []graph.Edge
	for i := int32(1); i <= 30; i++ {
		es = append(es, graph.Edge{From: 0, To: i, P: 0.006})
		for j := int32(0); j < 3; j++ {
			es = append(es, graph.Edge{From: i, To: 31 + (i+3*j)%10, P: 0.05})
		}
	}
	g, err := graph.FromEdges(41, es)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	inst := &Instance{G: g, Benefit: make([]float64, n), SeedCost: make([]float64, n), SCCost: make([]float64, n), Budget: 1e9}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 0.5 + 0.1*float64(i)
		inst.SeedCost[i] = 1
		inst.SCCost[i] = 0.3 + 0.01*float64(i)
	}
	d := NewDeployment(n)
	d.AddSeed(0)
	d.SetK(0, 30)
	for i := int32(1); i <= 10; i++ {
		d.SetK(i, 2)
	}
	return inst, d
}

// TestWorldCacheLoneWorldResims drives each scattered re-simulation path —
// the coupon advance, EvaluateDelta and PatchEdges — onto a node the base
// activates in exactly one world, so the path re-simulates that world alone
// in its 64-world block (asserted through the block counter: one block, for
// one world). Every snapshot, Result and delta must still equal the scalar
// reference.
func TestWorldCacheLoneWorldResims(t *testing.T) {
	inst, d := rareStarInstance(t)
	const samples = 170
	n := int32(inst.G.NumNodes())
	wc := NewWorldCache(inst, samples, 63, 0)
	checkCacheStep(t, wc, wc.Rebase(d), nil, 0)
	// loneNode returns a node the base activates in exactly one world whose
	// record entry passes keep.
	loneNode := func(what string, keep func(v int32, w, pos int32) bool) int32 {
		t.Helper()
		for v := int32(0); v < n; v++ {
			if ws, ps := activeWorlds(wc, v); len(ws) == 1 && keep(v, ws[0], ps[0]) {
				return v
			}
		}
		t.Fatalf("%s: no node is active in exactly one world", what)
		return -1
	}
	// resimmed runs op and asserts that it swept exactly one block on est.
	resimmed := func(what string, est *Estimator, op func()) {
		t.Helper()
		before := est.BlockEvals()
		op()
		if got := est.BlockEvals() - before; got != 1 {
			t.Fatalf("%s re-simulated %d blocks, want the lone world's one", what, got)
		}
	}
	roomy := func(v int32) bool { return wc.base.K(v) < inst.G.OutDegree(v) }

	// EvaluateDelta: one more coupon at v re-simulates v's one world.
	v := loneNode("EvaluateDelta", func(v int32, _, _ int32) bool { return roomy(v) })
	trial := wc.base.Clone()
	trial.AddK(v, 1)
	var got float64
	resimmed("EvaluateDelta", wc.Est, func() { got = wc.EvaluateDelta(trial, []int32{v}) })
	if want := scalarDelta(wc, trial); got != want {
		t.Fatalf("EvaluateDelta at %d: %v != scalar delta fold %v", v, got, want)
	}

	// advance: v's one scan ran out of coupons, so one more moves it.
	v = loneNode("advance", func(v int32, w, pos int32) bool {
		return roomy(v) && int(snapshotRecord(wc, int(w)).scanRed[pos]) == wc.base.K(v)
	})
	next := wc.base.Clone()
	next.AddK(v, 1)
	var res Result
	resimmed("advance", wc.Est, func() { res = wc.Rebase(next) })
	checkCacheStep(t, wc, res, nil, 1)

	// PatchEdges: an edge appended to the row of a user whose one scan ran
	// to the row's end is probed there.
	u := loneNode("PatchEdges", func(u int32, w, pos int32) bool {
		k := wc.base.K(u)
		return k > 0 && int(snapshotRecord(wc, int(w)).scanRed[pos]) < k
	})
	targets, _, _, _ := inst.G.OutRow(u)
	x := int32(1)
	for x == u || slices.Contains(targets, x) {
		x++
	}
	batch := []graph.Edge{{From: u, To: x, P: 0.5}}
	g2, err := inst.G.WithEdges(batch)
	if err != nil {
		t.Fatal(err)
	}
	inst2 := &Instance{G: g2, Benefit: inst.Benefit, SeedCost: inst.SeedCost, SCCost: inst.SCCost, Budget: inst.Budget}
	e2 := wc.Est.WithGraph(inst2, ChurnTargets(batch))
	resimmed("PatchEdges", e2, func() { res = wc.PatchEdges(e2, batch) })
	checkCacheStep(t, wc, res, nil, 2)
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
