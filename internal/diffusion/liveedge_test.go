package diffusion

import (
	"fmt"
	"slices"
	"testing"

	"s3crm/internal/gen"
	"s3crm/internal/graph"
	"s3crm/internal/rng"
)

// liveEdgeInstance is a dense-enough random instance for substrate parity
// tests: every deployment shape (deep cascades, capped scans, dead ends)
// shows up across its worlds.
func liveEdgeInstance(t testing.TB) *Instance {
	t.Helper()
	src := rng.New(99)
	g, err := gen.ErdosRenyi(80, 500, src)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	inst := &Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   50,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 0.5 + src.Float64()*3
		inst.SeedCost[i] = 1 + src.Float64()*4
		inst.SCCost[i] = 0.2 + src.Float64()
	}
	return inst
}

func liveEdgeDeployments(inst *Instance) []*Deployment {
	n := inst.G.NumNodes()
	var ds []*Deployment
	for trial := 0; trial < 4; trial++ {
		d := NewDeployment(n)
		src := rng.New(uint64(1000 + trial))
		for i := 0; i < 3; i++ {
			d.AddSeed(int32(src.Intn(n)))
		}
		for i := 0; i < 12; i++ {
			v := int32(src.Intn(n))
			if d.K(v) < inst.G.OutDegree(v) {
				d.AddK(v, 1)
			}
		}
		ds = append(ds, d)
	}
	return ds
}

// substratePair returns hash- and live-substrate estimators for the given
// triggering model over shared possible worlds: the hash side runs on a
// 1-byte budget, which materializes nothing and hashes every probe, the
// live side on the default budget.
func substratePair(t testing.TB, inst *Instance, model string, samples int, seed uint64, workers int) (hashed, lived *Estimator) {
	t.Helper()
	build := func(budget int64) *Estimator {
		return newTestEstimator(t, inst, EngineOptions{
			Model: model, Samples: samples, Seed: seed, Workers: workers,
			LiveEdgeMemBudget: budget,
		})
	}
	return build(1), build(0)
}

// TestLiveVsHashParity pins the substrate's core guarantee for both
// triggering models: the materialized rows hold exactly the draws the
// hashed kernel would recompute — per-edge coin flips under IC, per-node
// in-edge selections under LT — so every metric of every evaluation is
// bit-identical across substrates.
func TestLiveVsHashParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 200
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			for _, workers := range []int{0, 4} {
				hashed, lived := substratePair(t, inst, model, samples, 7, workers)
				for i, d := range liveEdgeDeployments(inst) {
					a := hashed.Evaluate(d)
					b := lived.Evaluate(d)
					if a != b {
						t.Fatalf("workers=%d deployment %d: hashed %v != live %v", workers, i, a, b)
					}
				}
			}
		})
	}
}

// TestLiveEdgeWorldCacheParity checks the frontier replay reads the same
// liveness under both models: Rebase results and DeltaBenefits answers
// agree exactly across substrates.
func TestLiveEdgeWorldCacheParity(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 150
	for _, model := range Models() {
		t.Run(model, func(t *testing.T) {
			he, le := substratePair(t, inst, model, samples, 11, 0)
			hashed := &WorldCache{Est: he}
			lived := &WorldCache{Est: le}
			for i, d := range liveEdgeDeployments(inst) {
				ra, rb := hashed.Rebase(d), lived.Rebase(d)
				if ra != rb {
					t.Fatalf("deployment %d: rebase differs: %v vs %v", i, ra, rb)
				}
				cands := make([]int32, 0, inst.G.NumNodes())
				for v := int32(0); v < int32(inst.G.NumNodes()); v++ {
					if d.K(v) < inst.G.OutDegree(v) {
						cands = append(cands, v)
					}
				}
				da := hashed.DeltaBenefits(cands)
				db := lived.DeltaBenefits(cands)
				for j := range da {
					if da[j] != db[j] {
						t.Fatalf("deployment %d candidate %d: delta %v vs %v", i, cands[j], da[j], db[j])
					}
				}
			}
		})
	}
}

// TestLiveEdgeMemCapFallback exercises the memory-cap path: a budget
// holding only a few rows makes later probes hash, and results are
// unchanged against a substrate that hashes every probe. (A budget below
// one row is covered by TestLiveSubstrateAlwaysPresent.)
func TestLiveEdgeMemCapFallback(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 100

	// Budget for exactly three rows: the fourth distinct edge must fall
	// back to hashing, with identical outcomes.
	rowBytes := int64((samples + 63) / 64 * 8)
	tiny := NewLiveEdges(inst.G, samples, rng.NewCoin(3), 3*rowBytes)
	coin := rng.NewCoin(3)
	probs := inst.G.Probs()
	for e := 0; e < inst.G.NumEdges(); e++ {
		for w := uint64(0); w < uint64(samples); w += 7 {
			if got, want := tiny.Live(w, uint64(e)), coin.Live(w, uint64(e), probs[e]); got != want {
				t.Fatalf("edge %d world %d: live %v, coin %v", e, w, got, want)
			}
		}
	}
	if spent := tiny.SpentBytes(); spent > 3*rowBytes {
		t.Fatalf("substrate committed %d bytes under a %d-byte budget", spent, 3*rowBytes)
	}

	// An engine under the tiny budget still evaluates identically to one
	// hashing every probe.
	capped, err := NewEngineOpts(inst, EngineOptions{
		Samples: samples, Seed: 3,
		LiveEdgeMemBudget: 3 * rowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := NewEngineOpts(inst, EngineOptions{
		Samples: samples, Seed: 3, LiveEdgeMemBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range liveEdgeDeployments(inst) {
		if a, b := capped.Evaluate(d), hashed.Evaluate(d); a != b {
			t.Fatalf("deployment %d: capped substrate %v != hash substrate %v", i, a, b)
		}
	}
}

// TestLTLiveEdgeMemCapFallback exercises the LT budget path: a budget
// holding only a few chosen rows makes later probes recompute the
// categorical walk per probe, with identical outcomes; evaluations through
// a capped engine match a hash-every-probe engine exactly.
func TestLTLiveEdgeMemCapFallback(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 100
	rowBytes := int64(samples) * 4
	tiny := NewLTLiveEdges(inst.G, samples, rng.NewCoin(3), 3*rowBytes)
	ref := NewLTLiveEdges(inst.G, samples, rng.NewCoin(3), 1)
	for e := 0; e < inst.G.NumEdges(); e++ {
		for w := uint64(0); w < uint64(samples); w += 7 {
			if got, want := tiny.Live(w, uint64(e)), ref.Live(w, uint64(e)); got != want {
				t.Fatalf("edge %d world %d: capped %v, hash %v", e, w, got, want)
			}
		}
	}
	if spent := tiny.SpentBytes(); spent > 3*rowBytes {
		t.Fatalf("substrate committed %d bytes under a %d-byte budget", spent, 3*rowBytes)
	}
	capped, err := NewEngineOpts(inst, EngineOptions{
		Model: ModelLT, Samples: samples, Seed: 3,
		LiveEdgeMemBudget: 3 * rowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := NewEngineOpts(inst, EngineOptions{
		Model: ModelLT, Samples: samples, Seed: 3,
		LiveEdgeMemBudget: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range liveEdgeDeployments(inst) {
		if a, b := capped.Evaluate(d), hashed.Evaluate(d); a != b {
			t.Fatalf("deployment %d: capped LT substrate %v != hash LT substrate %v", i, a, b)
		}
	}
}

// TestLiveEdgeRowLazy pins lazy materialization: rows are only built when
// their edge is probed, repeated probes reuse the row, and the bits match
// the coin exactly.
func TestLiveEdgeRowLazy(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 50
	le := NewLiveEdges(inst.G, samples, rng.NewCoin(5), 0)
	materialized := func(edge uint64) bool { return le.rowPtr(edge).Load() != nil }
	if materialized(7) {
		t.Fatal("edge 7 materialized before first probe")
	}
	le.Live(3, 7)
	if !materialized(7) {
		t.Fatal("edge 7 not materialized by a probe")
	}
	if materialized(8) {
		t.Fatal("probing edge 7 materialized edge 8")
	}
	spent := le.SpentBytes()
	le.Live(9, 7)
	if le.SpentBytes() != spent {
		t.Fatal("re-probing a materialized edge committed more memory")
	}
	probs := inst.G.Probs()
	for e := uint64(0); e < uint64(inst.G.NumEdges()); e += 3 {
		for w := uint64(0); w < samples; w++ {
			if got, want := le.Live(w, e), le.coin.Live(w, e, probs[e]); got != want {
				t.Fatalf("edge %d world %d: bit %v, coin %v", e, w, got, want)
			}
		}
	}
}

// TestLiveSubstrateAlwaysPresent pins the single-substrate invariant: every
// constructor — NewEstimator, and NewEngineOpts for both models and both
// engines, on edgeless and non-empty graphs, at the default and a 1-byte
// budget, plus WithGraph after WithEdges — yields an estimator whose Live
// substrate is present, matches the model and drives the block kernel. A
// 1-byte budget materializes nothing, and its probes equal the coin's.
func TestLiveSubstrateAlwaysPresent(t *testing.T) {
	const samples, seed = 70, 5
	edgeless, err := graph.FromEdges(6, nil)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		inst *Instance
	}{{"edgeless", unitInstance(edgeless)}, {"edges", liveEdgeInstance(t)}}
	check := func(t *testing.T, est *Estimator, lt bool, budget int64) {
		t.Helper()
		if est.Live == nil {
			t.Fatal("estimator has no liveness substrate")
		}
		if est.Live.lt != lt {
			t.Fatalf("substrate lt=%v, want %v", est.Live.lt, lt)
		}
		n := est.Inst.G.NumNodes()
		d := NewDeployment(n)
		d.AddSeed(0)
		for v := int32(0); v < int32(n); v++ {
			d.SetK(v, est.Inst.G.OutDegree(v))
		}
		before := est.BlockEvals()
		est.Evaluate(d)
		if est.BlockEvals() <= before {
			t.Fatal("Evaluate swept no 64-world blocks")
		}
		if budget != 1 {
			return
		}
		if spent := est.Live.SpentBytes(); spent != 0 {
			t.Fatalf("1-byte budget committed %d bytes", spent)
		}
		coin := rng.NewCoin(seed)
		for e := uint64(0); e < uint64(est.Inst.G.NumEdges()); e++ {
			for w := uint64(0); w < samples; w++ {
				want := false
				if lt {
					want = est.Live.ltChoice(w, est.Live.target(e)) == int32(e)
				} else {
					want = coin.Live(w, e, est.Live.prob(e))
				}
				if got := est.Live.Live(w, e); got != want {
					t.Fatalf("edge %d world %d: substrate %v, coin %v", e, w, got, want)
				}
			}
		}
	}
	for _, gc := range graphs {
		name, inst := gc.name, gc.inst
		t.Run("NewEstimator/"+name, func(t *testing.T) {
			check(t, NewEstimator(inst, samples, seed), false, 0)
		})
		for _, engine := range []string{EngineMC, EngineWorldCache} {
			for _, model := range Models() {
				for _, budget := range []int64{0, 1} {
					t.Run(fmt.Sprintf("%s/%s/%s/budget=%d", engine, model, name, budget), func(t *testing.T) {
						_, est := newTestEngine(t, inst, engine, EngineOptions{
							Model: model, Samples: samples, Seed: seed,
							LiveEdgeMemBudget: budget,
						})
						check(t, est, model == ModelLT, budget)

						// WithGraph after WithEdges keeps the substrate and
						// its model, edgeless origin included.
						batch := []graph.Edge{{From: 0, To: 1, P: 0.3}, {From: 1, To: 2, P: 0.4}}
						if name == "edges" {
							batch = []graph.Edge{{From: 0, To: int32(inst.G.NumNodes()), P: 0.3}}
						}
						g2, err := inst.G.WithEdges(batch)
						if err != nil {
							t.Fatal(err)
						}
						check(t, est.WithGraph(unitInstance(g2), ChurnTargets(batch)), model == ModelLT, budget)
					})
				}
			}
		}
	}
}

// TestLiveEdgesExtendSiblings extends one IC substrate into two siblings
// whose batches give the same free keys different edges, starting inside
// the parent's partial extension page. Each member's rows — read through
// the first child after it filled them, then through the second, then
// through the parent — must equal a cold substrate's over the member's own
// FromEdgesStable graph: a sibling that shared the parent's partial page, or
// a parent that saw a child's slots, reads rows flipped for another edge.
func TestLiveEdgesExtendSiblings(t *testing.T) {
	const samples = 130
	coin := rng.NewCoin(5)
	g, err := gen.ErdosRenyi(80, 500, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	lineage := g.Edges() // FromEdges keys are CSR positions
	taken := map[[2]int32]bool{}
	for _, e := range lineage {
		taken[[2]int32{e.From, e.To}] = true
	}
	src := rng.New(7)
	fresh := func(k int, p float64) []graph.Edge {
		var out []graph.Edge
		for len(out) < k {
			e := graph.Edge{From: int32(src.Intn(80)), To: int32(src.Intn(80)), P: p}
			if e.From != e.To && !taken[[2]int32{e.From, e.To}] {
				taken[[2]int32{e.From, e.To}] = true
				out = append(out, e)
			}
		}
		return out
	}
	type member struct {
		name    string
		g       *graph.Graph
		le      *LiveEdges
		lineage []graph.Edge
	}
	extend := func(m member, name string, batch []graph.Edge) member {
		g2, err := m.g.WithEdges(batch)
		if err != nil {
			t.Fatal(err)
		}
		return member{name, g2, m.le.Extend(g2, nil), slices.Concat(m.lineage, batch)}
	}
	parent := member{"base", g, NewLiveEdges(g, samples, coin, 0), lineage}
	// Past one full extension page, so the parent's last page is partial.
	parent = extend(parent, "parent", fresh(extPage/2, 0.5))
	parent = extend(parent, "parent", fresh(extPage/2+5, 0.5))
	if parent.le.extN%extPage == 0 {
		t.Fatalf("parent's extension covers %d keys: no partial page", parent.le.extN)
	}
	a := extend(parent, "first child", fresh(9, 0.9))
	b := extend(parent, "second child", fresh(9, 0.05))
	rows := func(le *LiveEdges, m int) [][]uint64 {
		out := make([][]uint64, m)
		for k := range out {
			for base := 0; base < samples; base += 64 {
				probe := ^uint64(0) >> uint(max(0, base+64-samples))
				out[k] = append(out[k], le.BlockMask(uint64(base), uint64(k), probe))
			}
		}
		return out
	}
	for _, m := range []member{a, b, parent} {
		cold, err := graph.FromEdgesStable(m.g.NumNodes(), m.lineage)
		if err != nil {
			t.Fatal(err)
		}
		got, want := rows(m.le, m.g.NumEdges()), rows(NewLiveEdges(cold, samples, coin, 0), cold.NumEdges())
		for k := range want {
			if !slices.Equal(got[k], want[k]) {
				t.Fatalf("%s: key %d reads %x, a cold substrate %x", m.name, k, got[k], want[k])
			}
		}
	}
}
