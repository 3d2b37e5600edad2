package diffusion_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"s3crm/internal/core"
	"s3crm/internal/diffusion"
	"s3crm/internal/eval"
	"s3crm/internal/gen"
)

// BenchmarkWorldCacheRebase times one full world-cache rebase — every world
// simulated and its snapshot written — against Estimator.Evaluate of the
// same deployment, which simulates every world and writes no snapshot. The
// gap between the two op= cells is the price of the snapshot. The
// op=seedchain cell times the seed steps instead: one op rebases from the
// empty deployment along 160 single-seed additions, the path the ID loop
// and snapshot selection take on each seed step (inert worlds patched, the
// rest resumed from the seeds' recorded scans). Epinions/10 (≈7,600
// users), 1,000 worlds, one worker; the deployments seed the
// highest-out-degree users with min(2, out-degree) coupons each. The
// op=delta cell times one DeltaBenefits instead, the ID loop's candidate
// refresh: its base is the deployment the ID loop of an Epinions/10 solve
// (seed 77) ends on — its whole move log replayed — and its batch the one
// a full refresh re-prices after a seed step there: every user that
// deployment influences and that can take one more coupon.
func BenchmarkWorldCacheRebase(b *testing.B) {
	inst, err := eval.BuildInstance(eval.Setup{Preset: gen.Epinions, Scale: 10, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	const samples = 1000
	order := degreeOrder(inst)
	for _, seeds := range []int{1, 20, 80, 160} {
		d := seededDeployment(inst, order[:seeds])
		// alt swaps d's last seed for the next user in degree order.
		alt := seededDeployment(inst, append(slices.Clone(order[:seeds-1]), order[seeds]))
		b.Run(fmt.Sprintf("seeds=%d/op=rebase", seeds), func(b *testing.B) {
			wc := diffusion.NewWorldCache(inst, samples, 77, 0)
			wc.Rebase(d) // fills the lazily materialized live-edge rows
			wc.Rebase(alt)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// d and alt differ in one seed, so every Rebase is full.
				if i%2 == 0 {
					wc.Rebase(d)
				} else {
					wc.Rebase(alt)
				}
			}
		})
		b.Run(fmt.Sprintf("seeds=%d/op=evaluate", seeds), func(b *testing.B) {
			est := diffusion.NewEstimator(inst, samples, 77)
			est.Evaluate(d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.Evaluate(d)
			}
		})
	}
	b.Run("seeds=160/op=seedchain", func(b *testing.B) {
		chain := make([]*diffusion.Deployment, 161)
		for i := range chain {
			chain[i] = seededDeployment(inst, order[:i])
		}
		wc := diffusion.NewWorldCache(inst, samples, 77, 0)
		for _, d := range chain {
			wc.Rebase(d) // fills the lazily materialized live-edge rows
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, d := range chain {
				wc.Rebase(d)
			}
		}
	})
	b.Run("op=delta", func(b *testing.B) {
		sol, err := core.Solve(inst, core.Options{
			Engine: diffusion.EngineWorldCache, Samples: samples, Seed: 77, DisableGPI: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		d := diffusion.Replay(inst.G.NumNodes(), sol.Trajectory)
		cands := couponPool(inst, d)
		wc := diffusion.NewWorldCache(inst, samples, 77, 0)
		wc.Rebase(d)
		wc.DeltaBenefits(cands) // fills the lazily materialized live-edge rows and the replay scratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			wc.DeltaBenefits(cands)
		}
		b.ReportMetric(float64(len(cands)), "cands")
	})
}

// couponPool returns the ID loop's candidate pool for d, ascending: the
// users d influences — its seeds and every user reachable from them through
// coupon holders' out-edges — that can take one more coupon.
func couponPool(inst *diffusion.Instance, d *diffusion.Deployment) []int32 {
	g := inst.G
	seen := make([]bool, g.NumNodes())
	queue := slices.Clone(d.Seeds())
	for _, v := range queue {
		seen[v] = true
	}
	for head := 0; head < len(queue); head++ {
		if d.K(queue[head]) == 0 {
			continue
		}
		ts, _ := g.OutEdges(queue[head])
		for _, t := range ts {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	var pool []int32
	for v, in := range seen {
		if in && d.K(int32(v)) < g.OutDegree(int32(v)) {
			pool = append(pool, int32(v))
		}
	}
	return pool
}

// degreeOrder returns the users by descending out-degree, ties by id.
func degreeOrder(inst *diffusion.Instance) []int32 {
	g := inst.G
	order := make([]int32, g.NumNodes())
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return g.OutDegree(order[i]) > g.OutDegree(order[j]) })
	return order
}

// seededDeployment seeds users, each with min(2, out-degree) coupons.
func seededDeployment(inst *diffusion.Instance, users []int32) *diffusion.Deployment {
	d := diffusion.NewDeployment(inst.G.NumNodes())
	for _, v := range users {
		d.AddSeed(v)
		d.SetK(v, min(2, inst.G.OutDegree(v)))
	}
	return d
}
