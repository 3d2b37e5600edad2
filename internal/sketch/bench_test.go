package sketch

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"s3crm/internal/costmodel"
	"s3crm/internal/diffusion"
	"s3crm/internal/gen"
	"s3crm/internal/rng"
)

// epinionsBenchInstance mirrors eval.BuildInstance on the Epinions profile
// at the engine benchmarks' scale-400 / seed-77 setting. The eval package
// itself imports core (which imports sketch), so the profile is rebuilt
// here from the same preset and cost-model calls.
func epinionsBenchInstance(b *testing.B) *diffusion.Instance {
	b.Helper()
	p := gen.Epinions.Scaled(400)
	src := rng.New(77 ^ 0x5eed)
	g, err := p.Generate(src)
	if err != nil {
		b.Fatal(err)
	}
	m, err := costmodel.Assign(g, costmodel.Params{Mu: p.Mu, Sigma: p.Sigma}, src)
	if err != nil {
		b.Fatal(err)
	}
	return &diffusion.Instance{
		G: g, Benefit: m.Benefit, SeedCost: m.SeedCost, SCCost: m.SCCost,
		Budget: p.Binv,
	}
}

// BenchmarkSSRBuild isolates the worker-sharded SSR sample build: one full
// store construction — universe closure, gate-DP prefill, sharded reverse
// walks, arena merge, CSR posting index — at a fixed sample count, across
// worker counts 1, 2 and GOMAXPROCS, duplicates dropped — the counts a
// machine can actually run in parallel. The workers=1 cell is the sequential
// baseline the sharded cells are accepted against; the outputs are
// byte-identical by construction (sample-index-keyed streams), so the ratio
// is pure build throughput. Every cell reports GOMAXPROCS next to it.
func BenchmarkSSRBuild(b *testing.B) {
	inst := epinionsBenchInstance(b)
	pivots := standalonePivots(inst)
	const samples = 1 << 14
	procs := runtime.GOMAXPROCS(0)
	sweep := []int{1, 2, procs}
	slices.Sort(sweep)
	for _, w := range slices.Compact(sweep) {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				u := buildUniverse(inst, pivots, universeCap)
				ga := newGates(inst)
				st := newStore(inst, u, ga, 77, false)
				st.extend(samples, w)
			}
			b.ReportMetric(samples, "samples")
			b.ReportMetric(float64(procs), "gomaxprocs")
		})
	}
}
