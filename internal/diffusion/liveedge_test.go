package diffusion

import (
	"testing"

	"s3crm/internal/gen"
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
// triggering model over shared possible worlds: under IC the hash side
// probes the coin directly (Live == nil); under LT both sides carry the LT
// substrate, differing only in materialization.
func substratePair(t testing.TB, inst *Instance, model string, samples int, seed uint64, workers int) (hashed, lived *Estimator) {
	t.Helper()
	hashed = NewEstimator(inst, samples, seed)
	hashed.Workers = workers
	lived = NewEstimator(inst, samples, seed)
	lived.Workers = workers
	switch model {
	case ModelIC:
		lived.Live = NewLiveEdges(inst.G, samples, lived.Coin, 0)
	case ModelLT:
		hashed.Live = NewLTLiveEdges(inst.G, samples, hashed.Coin, 0, false)
		lived.Live = NewLTLiveEdges(inst.G, samples, lived.Coin, 0, true)
	default:
		t.Fatalf("unknown model %q", model)
	}
	if lived.Live == nil {
		t.Fatal("live substrate unexpectedly over the default memory budget")
	}
	return hashed, lived
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

// TestLiveEdgeMemCapFallback exercises the memory-cap path: a budget too
// small for even one row makes the constructor decline entirely; a budget
// holding only a few rows makes later probes hash; results are unchanged
// in both regimes.
func TestLiveEdgeMemCapFallback(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 100
	if le := NewLiveEdges(inst.G, samples, rng.NewCoin(3), 8); le != nil {
		t.Fatalf("NewLiveEdges accepted a %d-byte row under an 8-byte budget", (samples+63)/64*8)
	}

	// Budget for exactly three rows: the fourth distinct edge must fall
	// back to hashing, with identical outcomes.
	rowBytes := int64((samples + 63) / 64 * 8)
	tiny := NewLiveEdges(inst.G, samples, rng.NewCoin(3), 3*rowBytes)
	if tiny == nil {
		t.Fatal("NewLiveEdges declined a three-row budget")
	}
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

	// An engine under the tiny budget still evaluates identically to the
	// hash substrate.
	capped, err := NewEngineOpts(inst, EngineOptions{
		Engine: EngineWorldCache, Samples: samples, Seed: 3,
		Diffusion: DiffusionLiveEdge, LiveEdgeMemBudget: 3 * rowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := NewEngineOpts(inst, EngineOptions{
		Engine: EngineWorldCache, Samples: samples, Seed: 3, Diffusion: DiffusionHash,
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
// a capped engine match the hash substrate exactly.
func TestLTLiveEdgeMemCapFallback(t *testing.T) {
	inst := liveEdgeInstance(t)
	const samples = 100
	rowBytes := int64(samples) * 4
	tiny := NewLTLiveEdges(inst.G, samples, rng.NewCoin(3), 3*rowBytes, true)
	ref := NewLTLiveEdges(inst.G, samples, rng.NewCoin(3), 0, false)
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
		Engine: EngineWorldCache, Model: ModelLT, Samples: samples, Seed: 3,
		Diffusion: DiffusionLiveEdge, LiveEdgeMemBudget: 3 * rowBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := NewEngineOpts(inst, EngineOptions{
		Engine: EngineWorldCache, Model: ModelLT, Samples: samples, Seed: 3,
		Diffusion: DiffusionHash,
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

// TestEngineOptsUnknownDiffusionRejected covers the option-validation path.
func TestEngineOptsUnknownDiffusionRejected(t *testing.T) {
	inst := liveEdgeInstance(t)
	if _, err := NewEngineOpts(inst, EngineOptions{Samples: 10, Diffusion: "quantum"}); err == nil {
		t.Fatal("NewEngineOpts accepted an unknown diffusion substrate")
	}
}
