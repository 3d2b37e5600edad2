package core

import (
	"context"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/rng"
)

// viewCounter is an mc engine that counts the sequential views it hands
// out. The ID loop takes views only to fan a batch of at least four
// candidates out across workers, so a non-zero count proves the parallel
// candidate path ran.
type viewCounter struct {
	*diffusion.Estimator
	views atomic.Int64
}

func (v *viewCounter) View(ctx context.Context, workers int) *diffusion.Estimator {
	v.views.Add(1)
	return v.Estimator.View(ctx, workers)
}

// TestSolveParallelMatchesSequential: Workers changes how a solve fans out —
// candidate batches, delta queries, snapshot scoring, the SSR build — but
// never its answer or its counters. Every Stats field except the SSR
// build's worker cap and wall-clock is identical at every worker count.
func TestSolveParallelMatchesSequential(t *testing.T) {
	inst := lazyRandomInstance(t, 1)
	const samples, seed = 300, 5
	for _, engine := range []string{diffusion.EngineMC, diffusion.EngineWorldCache, diffusion.EngineSSR} {
		t.Run(engine, func(t *testing.T) {
			solve := func(opts Options) *Solution {
				opts.Engine, opts.Samples, opts.Seed = engine, samples, seed
				sol, err := Solve(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				sol.Stats.SketchWorkers, sol.Stats.SketchBuildNs = 0, 0
				return sol
			}
			seq := solve(Options{})
			for _, w := range []int{2, 3, 7} {
				opts := Options{Workers: w}
				var counter *viewCounter
				if engine == diffusion.EngineMC {
					est, err := diffusion.NewEngineOpts(inst, diffusion.EngineOptions{
						Samples: samples, Seed: seed, Workers: w,
					})
					if err != nil {
						t.Fatal(err)
					}
					counter = &viewCounter{Estimator: est}
					opts.Evaluator = counter
				}
				par := solve(opts)
				if !seq.Deployment.Equal(par.Deployment) {
					t.Fatalf("workers=%d: different deployment:\nseq: %v\npar: %v", w, seq.Deployment, par.Deployment)
				}
				if par.RedemptionRate != seq.RedemptionRate || par.Benefit != seq.Benefit {
					t.Fatalf("workers=%d: rate %v benefit %v, sequential %v %v",
						w, par.RedemptionRate, par.Benefit, seq.RedemptionRate, seq.Benefit)
				}
				if !reflect.DeepEqual(par.Stats, seq.Stats) {
					t.Fatalf("workers=%d: stats differ:\n%+v\nvs sequential\n%+v", w, par.Stats, seq.Stats)
				}
				if counter != nil && counter.views.Load() == 0 {
					t.Fatalf("workers=%d: no candidate batch of four or more fanned out", w)
				}
			}
		})
	}
}

// TestPivotQueueParallelMatchesSequential drives the pivot scan past its
// fan-out threshold (2^14 users) with four workers: the sharded scan must
// enqueue exactly the sequential queue and mark the same users explored.
func TestPivotQueueParallelMatchesSequential(t *testing.T) {
	const n = 20000
	src := rng.New(0x9170)
	g, err := gen.ErdosRenyi(n, 4*n, src)
	if err != nil {
		t.Fatal(err)
	}
	inst := &diffusion.Instance{
		G:        g,
		Benefit:  make([]float64, n),
		SeedCost: make([]float64, n),
		SCCost:   make([]float64, n),
		Budget:   6,
	}
	for i := range n {
		inst.Benefit[i] = src.Float64() * 4
		inst.SeedCost[i] = 1 + src.Float64()*8
		inst.SCCost[i] = 0.3 + src.Float64()
	}
	if runtime.GOMAXPROCS(0) < 4 {
		prev := runtime.GOMAXPROCS(4) // the scan caps workers at GOMAXPROCS
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	scan := func(workers int) ([]pivotEntry, Stats) {
		s := &solver{inst: inst, opts: Options{Workers: workers}, explored: make([]bool, n)}
		return s.buildPivotQueue(), s.stats
	}
	seq, seqStats := scan(0)
	par, parStats := scan(4)
	if len(seq) < 1000 {
		t.Fatalf("only %d pivots; the instance does not exercise the scan", len(seq))
	}
	if !reflect.DeepEqual(par, seq) || parStats != seqStats {
		t.Fatalf("sharded pivot scan differs: %d entries %+v, sequential %d entries %+v",
			len(par), parStats, len(seq), seqStats)
	}
}
