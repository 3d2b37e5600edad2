package core

import (
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/rng"
)

// lazyRandomInstance builds a deterministic random instance with enough
// structure (cycles, hubs, heterogeneous costs) to drive many ID
// iterations.
func lazyRandomInstance(t *testing.T, trial uint64) *diffusion.Instance {
	t.Helper()
	src := rng.New(0xce1f ^ trial)
	g, err := gen.ErdosRenyi(50, 240, src)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   8 + src.Float64()*15,
	}
	for i := 0; i < n; i++ {
		inst.Benefit[i] = 0.5 + src.Float64()*4
		inst.SeedCost[i] = 1 + src.Float64()*8
		inst.SCCost[i] = 0.3 + src.Float64()
	}
	return inst
}

// TestLazyIDMatchesExhaustive pins the CELF loop's contract: on
// deterministic instances the lazy max-heap walks to the same argmax the
// exhaustive sweep computes, so the investment sequence — and therefore the
// final deployment — is identical under every engine. (The ssr engine
// replaces the ID loop with its sketch solver, so there the row pins that
// the exhaustive switch leaves its selection untouched.)
func TestLazyIDMatchesExhaustive(t *testing.T) {
	engines := []string{diffusion.EngineMC, diffusion.EngineWorldCache, diffusion.EngineSSR}
	instances := map[string]*diffusion.Instance{
		"example1":   example1(t, 4),
		"er-trial-1": lazyRandomInstance(t, 1),
		"er-trial-2": lazyRandomInstance(t, 2),
	}
	for name, inst := range instances {
		for _, engine := range engines {
			t.Run(name+"/"+engine, func(t *testing.T) {
				base := Options{Engine: engine, Samples: 200, Seed: 9, DisableGPI: true}
				lazyOpts := base
				exOpts := base
				exOpts.ExhaustiveID = true
				lazy, err := Solve(inst, lazyOpts)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := Solve(inst, exOpts)
				if err != nil {
					t.Fatal(err)
				}
				if !lazy.Deployment.Equal(ex.Deployment) {
					t.Fatalf("deployments diverged:\nlazy       %v\nexhaustive %v",
						lazy.Deployment, ex.Deployment)
				}
				if lazy.RedemptionRate != ex.RedemptionRate {
					t.Fatalf("rates diverged: lazy %v, exhaustive %v",
						lazy.RedemptionRate, ex.RedemptionRate)
				}
				if lazy.Stats.IDIterations != ex.Stats.IDIterations {
					t.Fatalf("iteration counts diverged: lazy %d, exhaustive %d",
						lazy.Stats.IDIterations, ex.Stats.IDIterations)
				}
			})
		}
	}
}

// TestLazyIDFullPipelineMatches runs the complete S3CA pipeline (GPI + SCM
// included) under both ID variants: downstream phases see the same input
// deployment, so the whole solution must match.
func TestLazyIDFullPipelineMatches(t *testing.T) {
	inst := lazyRandomInstance(t, 3)
	lazy, err := Solve(inst, Options{Engine: diffusion.EngineWorldCache, Samples: 200, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Solve(inst, Options{Engine: diffusion.EngineWorldCache, Samples: 200, Seed: 4, ExhaustiveID: true})
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.Deployment.Equal(ex.Deployment) {
		t.Fatalf("deployments diverged:\nlazy       %v\nexhaustive %v", lazy.Deployment, ex.Deployment)
	}
	if lazy.RedemptionRate != ex.RedemptionRate {
		t.Fatalf("rates diverged: lazy %v, exhaustive %v", lazy.RedemptionRate, ex.RedemptionRate)
	}
}

// TestLazyIDEvaluatesFewerCandidates is the perf counter's sanity check:
// CELF must re-evaluate strictly fewer candidates than the exhaustive sweep
// on an instance with a long investment trajectory, and the counters must
// be populated at all.
func TestLazyIDEvaluatesFewerCandidates(t *testing.T) {
	inst := lazyRandomInstance(t, 5)
	inst.Budget = 40 // long trajectory: many iterations over many candidates
	lazy, err := Solve(inst, Options{Engine: diffusion.EngineWorldCache, Samples: 150, Seed: 2, DisableGPI: true})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Solve(inst, Options{Engine: diffusion.EngineWorldCache, Samples: 150, Seed: 2, DisableGPI: true, ExhaustiveID: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Stats.CandidateEvals == 0 || ex.Stats.CandidateEvals == 0 {
		t.Fatalf("candidate-eval counters not populated: lazy %d, exhaustive %d",
			lazy.Stats.CandidateEvals, ex.Stats.CandidateEvals)
	}
	if ex.Stats.HeapRepops != 0 {
		t.Fatalf("exhaustive sweep recorded %d heap re-pops", ex.Stats.HeapRepops)
	}
	if lazy.Stats.CandidateEvals >= ex.Stats.CandidateEvals {
		t.Fatalf("lazy loop evaluated %d candidates, exhaustive %d — no win",
			lazy.Stats.CandidateEvals, ex.Stats.CandidateEvals)
	}
	t.Logf("candidate evals: lazy %d (repops %d) vs exhaustive %d over %d iterations",
		lazy.Stats.CandidateEvals, lazy.Stats.HeapRepops, ex.Stats.CandidateEvals, ex.Stats.IDIterations)
}

// TestLazyIDExploresSameNodes pins that incremental influence marking
// reaches exactly the users the per-iteration BFS reached.
func TestLazyIDExploresSameNodes(t *testing.T) {
	inst := lazyRandomInstance(t, 7)
	lazy, err := Solve(inst, Options{Samples: 150, Seed: 6, DisableGPI: true})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := Solve(inst, Options{Samples: 150, Seed: 6, DisableGPI: true, ExhaustiveID: true})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.Stats.ExploredNodes != ex.Stats.ExploredNodes {
		t.Fatalf("explored-node counts diverged: lazy %d, exhaustive %d",
			lazy.Stats.ExploredNodes, ex.Stats.ExploredNodes)
	}
}
