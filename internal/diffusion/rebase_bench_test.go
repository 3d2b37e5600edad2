package diffusion_test

import (
	"fmt"
	"sort"
	"testing"

	"s3crm/internal/diffusion"
	"s3crm/internal/eval"
	"s3crm/internal/gen"
)

// BenchmarkWorldCacheRebase times one full world-cache rebase — every world
// simulated and its snapshot written — against Estimator.Evaluate of the
// same deployment, which simulates every world and writes no snapshot. The
// gap between the two op= cells is the price of the snapshot. Epinions/10
// (≈7,600 users), 1,000 worlds, one worker; the deployment seeds the
// highest-out-degree users with up to two coupons each.
func BenchmarkWorldCacheRebase(b *testing.B) {
	inst, err := eval.BuildInstance(eval.Setup{Preset: gen.Epinions, Scale: 10, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	const samples = 1000
	for _, seeds := range []int{1, 20, 80, 160} {
		d, alt := rebaseBenchDeployments(inst, seeds)
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
}

// rebaseBenchDeployments returns two deployments of `seeds` seeds each: the
// highest-out-degree users (ties by id), and the same set with its last
// seed swapped for the next user in that order. Every seed holds
// min(2, out-degree) coupons.
func rebaseBenchDeployments(inst *diffusion.Instance, seeds int) (d, alt *diffusion.Deployment) {
	g := inst.G
	n := g.NumNodes()
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(i, j int) bool { return g.OutDegree(order[i]) > g.OutDegree(order[j]) })
	build := func(users []int32) *diffusion.Deployment {
		d := diffusion.NewDeployment(n)
		for _, v := range users {
			d.AddSeed(v)
			d.SetK(v, min(2, g.OutDegree(v)))
		}
		return d
	}
	altUsers := append(append([]int32(nil), order[:seeds-1]...), order[seeds])
	return build(order[:seeds]), build(altUsers)
}
