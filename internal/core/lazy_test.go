package core

import (
	"context"
	"math"
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

// exhaustiveOracle is the ID loop's reference candidate choice, the sweep
// the CELF heap must reproduce: every iteration it re-derives the influenced
// set by BFS, drops capped and unaffordable users, evaluates every remaining
// candidate and returns the argmax marginal redemption, ties to the smaller
// id. It leaves the lazy state's heap alone. evals counts its own candidate
// evaluations; markDiffs counts iterations whose BFS disagreed with the
// loop's incremental influence marks.
type exhaustiveOracle struct {
	evals     int64
	markDiffs int
}

func (o *exhaustiveOracle) best(s *solver, lz *lazyID, d *diffusion.Deployment, curBenefit, spent float64) (int32, float64, float64, float64) {
	in := s.inst
	influenced := influencedSet(in.G, d)
	var candidates []int32
	diff := false
	for i, inf := range influenced {
		diff = diff || inf != lz.mark[i]
		v := int32(i)
		if !inf {
			continue
		}
		s.touch(v)
		if d.K(v) >= in.G.OutDegree(v) || spent+s.marginalSCCost(d, v) > in.Budget {
			continue
		}
		candidates = append(candidates, v)
	}
	if diff {
		o.markDiffs++
	}
	var benefits []float64
	if s.incremental() {
		curBenefit = s.wc.Rebase(d).Benefit
		benefits = s.wc.DeltaBenefits(candidates)
	} else {
		benefits = s.evalCandidates(d, candidates)
	}
	o.evals += int64(len(candidates))
	s.stats.CandidateEvals += int64(len(candidates))
	bestNode, bestMR, bestGain, bestDC := int32(-1), 0.0, 0.0, 0.0
	for i, v := range candidates {
		dc := s.marginalSCCost(d, v)
		gain := benefits[i] - curBenefit
		if mr := safeRatio(gain, dc); mr > bestMR {
			bestNode, bestMR, bestGain, bestDC = v, mr, gain, dc
		}
	}
	return bestNode, bestMR, bestGain, bestDC
}

// solveExhaustive runs Solve with the ID loop choosing candidates through
// the exhaustive oracle.
func solveExhaustive(t *testing.T, inst *diffusion.Instance, opts Options) (*Solution, *exhaustiveOracle) {
	t.Helper()
	o := &exhaustiveOracle{}
	sol, err := solve(context.Background(), inst, opts, o.best)
	if err != nil {
		t.Fatal(err)
	}
	return sol, o
}

// TestLazyIDMatchesExhaustive pins the CELF loop's contract: on
// deterministic instances the lazy max-heap walks to the same argmax the
// exhaustive sweep computes, so the investment sequence — and therefore the
// final deployment — is identical under every engine that runs the ID loop.
func TestLazyIDMatchesExhaustive(t *testing.T) {
	engines := []string{diffusion.EngineMC, diffusion.EngineWorldCache}
	instances := map[string]*diffusion.Instance{
		"example1":   example1(t, 4),
		"er-trial-1": lazyRandomInstance(t, 1),
		"er-trial-2": lazyRandomInstance(t, 2),
	}
	for name, inst := range instances {
		for _, engine := range engines {
			t.Run(name+"/"+engine, func(t *testing.T) {
				opts := Options{Engine: engine, Samples: 200, Seed: 9, DisableGPI: true}
				lazy, err := Solve(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				ex, _ := solveExhaustive(t, inst, opts)
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
// included) under both candidate choices: downstream phases see the same
// input deployment, so the whole solution must match.
func TestLazyIDFullPipelineMatches(t *testing.T) {
	inst := lazyRandomInstance(t, 3)
	opts := Options{Engine: diffusion.EngineWorldCache, Samples: 200, Seed: 4}
	lazy, err := Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, _ := solveExhaustive(t, inst, opts)
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
	opts := Options{Engine: diffusion.EngineWorldCache, Samples: 150, Seed: 2, DisableGPI: true}
	lazy, err := Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, o := solveExhaustive(t, inst, opts)
	if lazy.Stats.CandidateEvals == 0 || o.evals == 0 {
		t.Fatalf("candidate-eval counters not populated: lazy %d, exhaustive %d",
			lazy.Stats.CandidateEvals, o.evals)
	}
	if ex.Stats.HeapRepops != 0 {
		t.Fatalf("exhaustive sweep recorded %d heap re-pops", ex.Stats.HeapRepops)
	}
	if lazy.Stats.CandidateEvals >= o.evals {
		t.Fatalf("lazy loop evaluated %d candidates, exhaustive %d — no win",
			lazy.Stats.CandidateEvals, o.evals)
	}
	t.Logf("candidate evals: lazy %d (repops %d) vs exhaustive %d over %d iterations",
		lazy.Stats.CandidateEvals, lazy.Stats.HeapRepops, o.evals, ex.Stats.IDIterations)
}

// TestLazyIDExploresSameNodes pins that incremental influence marking
// reaches exactly the users the per-iteration BFS reached.
func TestLazyIDExploresSameNodes(t *testing.T) {
	inst := lazyRandomInstance(t, 7)
	opts := Options{Samples: 150, Seed: 6, DisableGPI: true}
	lazy, err := Solve(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	ex, o := solveExhaustive(t, inst, opts)
	if lazy.Stats.ExploredNodes != ex.Stats.ExploredNodes {
		t.Fatalf("explored-node counts diverged: lazy %d, exhaustive %d",
			lazy.Stats.ExploredNodes, ex.Stats.ExploredNodes)
	}
	if o.markDiffs != 0 {
		t.Fatalf("incremental influence marks differed from the BFS on %d of %d iterations",
			o.markDiffs, ex.Stats.IDIterations)
	}
}

// TestEngineParityLazyID runs S3CA under every engine with the CELF and the
// exhaustive candidate choice: both must stay within the same Monte-Carlo
// tolerance of the exhaustive mc reference. The instance is the Facebook
// profile at scale 100, seed 3 (40 users), built as eval.BuildInstance
// builds it.
func TestEngineParityLazyID(t *testing.T) {
	inst := presetInstance(t, gen.Facebook, 100, 3)
	ref, _ := solveExhaustive(t, inst, Options{Engine: diffusion.EngineMC, Samples: 300, Seed: 7})
	tol := 0.15 * ref.RedemptionRate
	for _, engine := range diffusion.Engines() {
		opts := Options{Engine: engine, Samples: 300, Seed: 7}
		lazy, err := Solve(inst, opts)
		if err != nil {
			t.Fatalf("S3CA under %s: %v", engine, err)
		}
		ex, _ := solveExhaustive(t, inst, opts)
		for _, r := range []struct {
			name string
			sol  *Solution
		}{{"lazy", lazy}, {"exhaustive", ex}} {
			if math.Abs(r.sol.RedemptionRate-ref.RedemptionRate) > tol {
				t.Errorf("engine %s %s: rate %v differs from reference %v (tol %v)",
					engine, r.name, r.sol.RedemptionRate, ref.RedemptionRate, tol)
			}
		}
	}
}

// TestSeedStepsRebaseIncrementally solves the Epinions profile at scale 10
// (seed 77) on the world-cache engine and checks the rebase paths: each
// seed step of the ID loop adds one seed, so it takes the world cache's
// seed-add path, and so do the scorer's along the snapshot chain; the only
// full rebases are each cache's first, the engine's and the scorer's.
func TestSeedStepsRebaseIncrementally(t *testing.T) {
	if testing.Short() {
		t.Skip("Epinions-profile solve skipped in -short mode")
	}
	inst := presetInstance(t, gen.Epinions, 10, 77)
	wc := diffusion.NewWorldCache(inst, 1000, 77, 1)
	sol, err := Solve(inst, Options{
		Engine: diffusion.EngineWorldCache, Samples: 1000, Seed: 77, Evaluator: wc,
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := -1 // the first seed is the engine's first, full, rebase
	for _, p := range sol.Trajectory {
		if p.Seed {
			steps++
		}
	}
	if c := wc.Rebases(); steps < 100 || c.SeedAdd != int64(steps) || c.Full != 1 || sol.Stats.FullRebases != 2 {
		t.Fatalf("%d ID seed steps; engine rebases %+v, %d full in all: want a seed add per step, one full rebase "+
			"for each of the engine and the scorer", steps, c, sol.Stats.FullRebases)
	}
}

// TestMarginalSCCostCache pins the solver's cached coupon prices: after
// every move of a random chain of Apply moves — coupon moves, and seed moves
// that can raise a count by more than one — marginalSCCost equals
// NodeSCCost(v, K+1) − NodeSCCost(v, K) bit for bit for every user, both on
// the moving deployment and on the empty one, so a price cached at another
// coupon count is never served.
func TestMarginalSCCostCache(t *testing.T) {
	inst := lazyRandomInstance(t, 3)
	n := inst.G.NumNodes()
	s := &solver{inst: inst, explored: make([]bool, n)}
	d, empty := diffusion.NewDeployment(n), diffusion.NewDeployment(n)
	src := rng.New(5)
	check := func(step int, d *diffusion.Deployment) {
		for v := int32(0); v < int32(n); v++ {
			k := d.K(v)
			want := inst.NodeSCCost(v, k+1) - inst.NodeSCCost(v, k)
			if got := s.marginalSCCost(d, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: marginalSCCost(%d) at K=%d = %v, want %v", step, v, k, got, want)
			}
		}
	}
	for step := 0; step < 120; step++ {
		v := int32(src.Intn(n))
		mv := diffusion.Move{Node: v, K: d.K(v) + 1}
		if src.Intn(4) == 0 {
			mv = diffusion.Move{Node: v, Seed: true, K: d.K(v) + src.Intn(3)}
		}
		if mv.K <= inst.G.OutDegree(v) {
			d.Apply(mv)
		}
		check(step, d)
		if step%10 == 0 {
			check(step, empty)
		}
	}
}
