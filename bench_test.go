// Benchmarks regenerating every table and figure of the paper at reduced
// scale. Each benchmark runs the corresponding experiment driver and logs
// the same rows the paper reports (-v to see them); cmd/experiments runs
// the full-scale versions. Ablation benchmarks isolate the design choices
// called out in DESIGN.md.
package s3crm

import (
	"context"
	"runtime"
	"testing"

	"s3crm/internal/core"
	"s3crm/internal/costmodel"
	"s3crm/internal/diffusion"
	"s3crm/internal/eval"
	"s3crm/internal/gen"
	"s3crm/internal/rng"
)

// benchSetup is a Facebook-like instance small enough for -bench runs.
func benchSetup() eval.Setup {
	return eval.Setup{Preset: gen.Facebook, Scale: 20, Seed: 77} // 200 users
}

func benchParams() eval.RunParams {
	return eval.RunParams{Samples: 100, Seed: 77, CandidateCap: 30}
}

func benchBudgets() []float64 {
	b := gen.Facebook.Scaled(20).Binv
	return []float64{0.6 * b, b, 1.4 * b}
}

func BenchmarkTable2PresetStatistics(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = eval.PresetStatistics()
	}
	b.Log("\n" + out)
}

func BenchmarkFig6InvestmentEfficiency(b *testing.B) {
	var pts []eval.Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = eval.BudgetSweep(benchSetup(), benchBudgets(), eval.Algorithms, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := pts[len(pts)-1]
	b.ReportMetric(last.Measures[len(last.Measures)-1].Redemption, "s3ca-redemption")
	b.Log("\n" + eval.RenderSweep("Fig 6(a) — redemption vs Binv", "Binv", pts, eval.Redemption))
	b.Log("\n" + eval.RenderSweep("Fig 6(b) — benefit vs Binv", "Binv", pts, eval.Benefit))
}

func BenchmarkFig6LambdaSweep(b *testing.B) {
	var pts []eval.Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = eval.LambdaSweep(benchSetup(), []float64{0.5, 1, 2, 4}, eval.Algorithms, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + eval.RenderSweep("Fig 6(c,d) — redemption vs λ", "lambda", pts, eval.Redemption))
}

func BenchmarkFig6RunningTime(b *testing.B) {
	var pts []eval.Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = eval.BudgetSweep(benchSetup(), benchBudgets(), eval.Algorithms, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + eval.RenderSweep("Fig 6(e,f) — running time vs Binv (seconds)", "Binv", pts, eval.Runtime))
}

func BenchmarkFig7SeedSCRate(b *testing.B) {
	var budgetPts, kappaPts []eval.Point
	var err error
	for i := 0; i < b.N; i++ {
		budgetPts, err = eval.BudgetSweep(benchSetup(), benchBudgets(), eval.Algorithms, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		kappaPts, err = eval.KappaSweep(benchSetup(), []float64{5, 10, 20}, eval.Algorithms, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + eval.RenderSweep("Fig 7(a,b) — seed–SC rate vs Binv", "Binv", budgetPts, eval.SeedSCRate))
	b.Log("\n" + eval.RenderSweep("Fig 7(e,f) — seed–SC rate vs κ", "kappa", kappaPts, eval.SeedSCRate))
}

func BenchmarkFig7LambdaSeedSCRate(b *testing.B) {
	var pts []eval.Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = eval.LambdaSweep(benchSetup(), []float64{0.5, 1, 2, 4}, eval.Algorithms, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + eval.RenderSweep("Fig 7(c,d) — seed–SC rate vs λ", "lambda", pts, eval.SeedSCRate))
}

func BenchmarkFig8CaseStudy(b *testing.B) {
	algos := []string{"S3CA", "PM-L", "IM-L"}
	var airbnb, booking []eval.Point
	var err error
	for i := 0; i < b.N; i++ {
		airbnb, err = eval.CaseStudy(benchSetup(), costmodel.Airbnb, []float64{20, 50, 80}, algos, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		booking, err = eval.CaseStudy(benchSetup(), costmodel.Booking, []float64{20, 50, 80}, algos, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + eval.RenderSweep("Fig 8(a) — redemption vs margin (Airbnb)", "margin%", airbnb, eval.Redemption))
	b.Log("\n" + eval.RenderSweep("Fig 8(b) — seed–SC rate vs margin (Airbnb)", "margin%", airbnb, eval.SeedSCRate))
	b.Log("\n" + eval.RenderSweep("Fig 8(c) — redemption vs margin (Booking)", "margin%", booking, eval.Redemption))
	b.Log("\n" + eval.RenderSweep("Fig 8(d) — seed–SC rate vs margin (Booking)", "margin%", booking, eval.SeedSCRate))
}

func BenchmarkFig9Scalability(b *testing.B) {
	cfg := eval.ScalabilityConfig{Seed: 77}
	var bySize, byBudget []eval.ScaleRow
	var err error
	for i := 0; i < b.N; i++ {
		bySize, err = eval.ScalabilityBySize(cfg, []int{100, 200, 400}, 50, benchParams())
		if err != nil {
			b.Fatal(err)
		}
		byBudget, err = eval.ScalabilityByBudget(cfg, 200, []float64{25, 50, 100}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + eval.RenderScale("Fig 9(a,b) — vs network size", bySize))
	b.Log("\n" + eval.RenderScale("Fig 9(c,d) — vs budget", byBudget))
}

func BenchmarkFig10Approximation(b *testing.B) {
	var rows []eval.ApproxRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = eval.Approximation(eval.ScalabilityConfig{Seed: 77}, 10,
			[]float64{20, 50, 80}, eval.RunParams{Samples: 500, Seed: 77})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.S3CA < r.WorstCase {
			b.Fatalf("S3CA %v fell below the worst-case bound %v", r.S3CA, r.WorstCase)
		}
	}
	b.Log("\n" + eval.RenderApprox("Fig 10 — S3CA vs OPT vs worst-case", rows))
}

func BenchmarkTable3FarthestHops(b *testing.B) {
	setups := []eval.Setup{
		{Preset: gen.Facebook, Scale: 20, Seed: 77},
		{Preset: gen.Epinions, Scale: 400, Seed: 77},
	}
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = eval.FarthestHops(setups, []string{"IM-U", "IM-L", "PM-U", "PM-L", "S3CA"}, benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

func BenchmarkTable4RunningTime(b *testing.B) {
	var out string
	var err error
	for i := 0; i < b.N; i++ {
		out, err = eval.RunningTime(benchSetup(), benchBudgets(), benchParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// --- Ablations (DESIGN.md) ---

func ablationInstance(b *testing.B) *diffusion.Instance {
	b.Helper()
	inst, err := eval.BuildInstance(benchSetup())
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func runAblation(b *testing.B, opts core.Options) float64 {
	inst := ablationInstance(b)
	var rate float64
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(inst, opts)
		if err != nil {
			b.Fatal(err)
		}
		rate = sol.RedemptionRate
	}
	b.ReportMetric(rate, "redemption")
	return rate
}

func BenchmarkAblationFullS3CA(b *testing.B) {
	runAblation(b, core.Options{Samples: 100, Seed: 77})
}

func BenchmarkAblationIDOnly(b *testing.B) {
	// No GPI/SCM: how much do the maneuver phases contribute?
	runAblation(b, core.Options{Samples: 100, Seed: 77, DisableGPI: true})
}

func BenchmarkAblationNoSCM(b *testing.B) {
	// GPI runs but coupons are never maneuvered.
	runAblation(b, core.Options{Samples: 100, Seed: 77, DisableSCM: true})
}

func BenchmarkAblationNoPivot(b *testing.B) {
	// The investment trade-off machinery off: SCs always win over seeds.
	runAblation(b, core.Options{Samples: 100, Seed: 77, DisablePivot: true})
}

func BenchmarkAblationSampleCount(b *testing.B) {
	// Estimator accuracy vs time: the paper's ε.
	for _, samples := range []int{50, 200, 800} {
		b.Run(benchName(samples), func(b *testing.B) {
			runAblation(b, core.Options{Samples: samples, Seed: 77})
		})
	}
}

func benchName(samples int) string {
	switch samples {
	case 50:
		return "samples=50"
	case 200:
		return "samples=200"
	default:
		return "samples=800"
	}
}

// --- Engine comparison (the world-cache acceptance benchmarks) ---

// engineBenchInstance is the Epinions-profile instance the engine
// benchmarks run at the paper's 1000-sample setting.
func engineBenchInstance(b *testing.B) *diffusion.Instance {
	b.Helper()
	inst, err := eval.BuildInstance(eval.Setup{Preset: gen.Epinions, Scale: 400, Seed: 77})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func benchSolveEngines(b *testing.B, opts core.Options) {
	variants := []struct {
		name string
		opts func(core.Options) core.Options
	}{
		// Current defaults: CELF-lazy ID loop over materialized live-edge
		// worlds.
		{"engine=" + diffusion.EngineMC, func(o core.Options) core.Options {
			o.Engine = diffusion.EngineMC
			return o
		}},
		{"engine=" + diffusion.EngineWorldCache, func(o core.Options) core.Options {
			o.Engine = diffusion.EngineWorldCache
			return o
		}},
		// The SSR sketch solver: selection runs on reverse-sample cover
		// counts under the adaptive stopping rule instead of forward
		// simulation, so Samples only sizes the final measurement.
		{"engine=" + diffusion.EngineSSR, func(o core.Options) core.Options {
			o.Engine = diffusion.EngineSSR
			return o
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			inst := engineBenchInstance(b)
			o := v.opts(opts)
			var stats core.Stats
			var rate float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(inst, o)
				if err != nil {
					b.Fatal(err)
				}
				rate = sol.RedemptionRate
				stats = sol.Stats
			}
			b.ReportMetric(rate, "redemption")
			b.ReportMetric(float64(stats.Evaluations), "evals")
			b.ReportMetric(float64(stats.CandidateEvals), "candevals")
		})
	}
}

// BenchmarkIDLoop isolates phases 1–2 (the greedy investment loop), the
// dominant cost the world-cache engine turns from O(candidates ×
// full-simulation) into O(candidates × delta).
func BenchmarkIDLoop(b *testing.B) {
	benchSolveEngines(b, core.Options{Samples: 1000, Seed: 77, DisableGPI: true})
}

// BenchmarkSolve runs the full S3CA pipeline under both engines.
func BenchmarkSolve(b *testing.B) {
	benchSolveEngines(b, core.Options{Samples: 1000, Seed: 77})
}

// BenchmarkSolveLT runs the full S3CA pipeline under the linear-threshold
// model on the Epinions profile (whose 1/in-degree weights satisfy the LT
// in-weight bound by construction) — the world-cache profile the triggering-
// model layer is accepted on, with the MC engine alongside for the parity
// of trends.
func BenchmarkSolveLT(b *testing.B) {
	for _, engine := range []string{diffusion.EngineMC, diffusion.EngineWorldCache} {
		b.Run("engine="+engine, func(b *testing.B) {
			inst := engineBenchInstance(b)
			o := core.Options{
				Engine: engine, Model: diffusion.ModelLT,
				Samples: 1000, Seed: 77,
			}
			var rate float64
			var stats core.Stats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sol, err := core.Solve(inst, o)
				if err != nil {
					b.Fatal(err)
				}
				rate = sol.RedemptionRate
				stats = sol.Stats
			}
			b.ReportMetric(rate, "redemption")
			b.ReportMetric(float64(stats.Evaluations), "evals")
		})
	}
}

// --- Campaign serving benchmarks (the PR 3 acceptance benchmark) ---

// BenchmarkCampaignReuse measures what the Campaign session amortizes on
// the Epinions profile at the paper's 1000-sample setting: "cold" builds a
// fresh Campaign per solve — paying engine construction, live-edge row materialization and world-cache snapshot
// allocation every time — while "warm" reuses one Campaign across solves,
// so every call after the first reads materialized rows and rebases a
// pooled snapshot. The solved deployments (and the redemption metric) are
// bit-identical across the two variants; only the amortization differs.
func BenchmarkCampaignReuse(b *testing.B) {
	problem, err := GenerateDataset("Epinions", 400, 77)
	if err != nil {
		b.Fatal(err)
	}
	campaignOpts := func() []Option {
		return []Option{WithEngine("worldcache"), WithSamples(1000), WithSeed(77)}
	}
	ctx := context.Background()
	var rate float64

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := problem.NewCampaign(campaignOpts()...)
			if err != nil {
				b.Fatal(err)
			}
			r, err := c.Solve(ctx, WithSeed(77))
			if err != nil {
				b.Fatal(err)
			}
			rate = r.RedemptionRate
		}
		b.ReportMetric(rate, "redemption")
	})

	b.Run("warm", func(b *testing.B) {
		c, err := problem.NewCampaign(campaignOpts()...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Solve(ctx, WithSeed(77)); err != nil {
			b.Fatal(err) // prime rows and snapshot pool outside the timer
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, err := c.Solve(ctx, WithSeed(77))
			if err != nil {
				b.Fatal(err)
			}
			rate = r.RedemptionRate
		}
		b.ReportMetric(rate, "redemption")
	})
}

// --- Churn re-solve benchmark (the dynamic-graph acceptance run) ---

// BenchmarkChurnResolve measures what the delta-overlay + world-patching
// path buys after 1% edge churn: "cold" pays the full price of a changed
// graph — a fresh campaign over the final edge set (engine construction,
// live-edge materialization, snapshot build) plus a from-scratch solve —
// while "warm" holds a campaign that already solved the pre-churn graph and
// times ApplyEdges (overlay append, per-world patching of the pooled
// snapshot) plus Resolve (adopt, rebase over the affected worlds only,
// bounded greedy repair around the churned endpoints). Both cells report
// their redemption metric; the acceptance bar is warm ≥5× faster than cold
// at parity redemption on the million-node profile. Campaign construction
// and the pre-churn solve run outside the warm timer — that state exists
// before the churn arrives, which is the scenario being measured.
func BenchmarkChurnResolve(b *testing.B) {
	const churnFrac = 0.01
	ctx := context.Background()
	profiles := []struct {
		name    string
		problem func(b *testing.B) *Problem
		opts    []Option
	}{
		{"Epinions", func(b *testing.B) *Problem {
			p, err := GenerateDataset("Epinions", 400, 77)
			if err != nil {
				b.Fatal(err)
			}
			return p
		}, []Option{WithEngine("worldcache"), WithSamples(1000), WithSeed(77)}},
		{"MillionNode", func(b *testing.B) *Problem {
			g, err := gen.WattsStrogatz(1_000_000, 10, 0.1, rng.New(77))
			if err != nil {
				b.Fatal(err)
			}
			m, err := costmodel.Assign(g, costmodel.Params{Mu: 10, Sigma: 2}, rng.New(77))
			if err != nil {
				b.Fatal(err)
			}
			return &Problem{inst: &diffusion.Instance{
				G: g, Benefit: m.Benefit, SeedCost: m.SeedCost, SCCost: m.SCCost,
				Budget: 3000,
			}}
		}, []Option{WithEngine("worldcache"), WithSamples(100), WithSeed(77), WithGPILimit(2000)}},
	}
	for _, pf := range profiles {
		b.Run("profile="+pf.name, func(b *testing.B) {
			problem := pf.problem(b)
			reduced, stream, err := problem.HoldOutEdges(churnFrac, 77)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("phase=cold", func(b *testing.B) {
				var rate float64
				for i := 0; i < b.N; i++ {
					c, err := problem.NewCampaign(pf.opts...)
					if err != nil {
						b.Fatal(err)
					}
					r, err := c.Solve(ctx, WithSeed(77))
					if err != nil {
						b.Fatal(err)
					}
					rate = r.RedemptionRate
				}
				b.ReportMetric(rate, "redemption")
			})
			b.Run("phase=warm", func(b *testing.B) {
				var rate, patched float64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					c, err := reduced.NewCampaign(pf.opts...)
					if err != nil {
						b.Fatal(err)
					}
					prev, err := c.Solve(ctx, WithSeed(77))
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					st, err := c.ApplyEdges(ctx, stream)
					if err != nil {
						b.Fatal(err)
					}
					r, err := c.Resolve(ctx, prev, WithSeed(77))
					if err != nil {
						b.Fatal(err)
					}
					rate = r.RedemptionRate
					patched = float64(st.SnapshotsPatched)
				}
				b.ReportMetric(rate, "redemption")
				b.ReportMetric(patched, "patched")
			})
		})
	}
}

// BenchmarkChurnApply isolates the write path of a churn stream: one op
// replays HoldOutEdges(0.2, 77) of the Epinions profile at scale 10 into an
// IC worldcache campaign as 1,000 ApplyEdges batches. Campaign
// construction, the pre-churn solve and one Resolve run outside the timer.
// That Resolve is part of the cell's definition: it leaves the pooled
// snapshot on the returned deployment, the state a stream that re-solves
// after every batch leaves behind. Solve now pools its snapshot rebased on
// the answer itself, so the Resolve finds it there; it stays so that
// readings remain comparable with those taken when Solve pooled its last
// search trial instead. Two cells:
//   - op=apply times the appends alone — overlay appends, compactions and
//     per-world patching of the pooled snapshot, no Resolve between
//     batches;
//   - op=apply+resolve times one ApplyEdges plus one Resolve from the
//     previous result per batch, the churn-stream workload's op.
//
// Both report ns/batch and B/batch, the bytes allocated per batch. On an IC
// campaign a batch costs O(batch + churned rows + affected worlds), so any
// whole-graph pass or n-sized copy per ApplyEdges shows up here first.
func BenchmarkChurnApply(b *testing.B) {
	const batches = 1000
	ctx := context.Background()
	p, err := GenerateDataset("Epinions", 10, 77)
	if err != nil {
		b.Fatal(err)
	}
	reduced, stream, err := p.HoldOutEdges(0.2, 77)
	if err != nil {
		b.Fatal(err)
	}
	for _, op := range []string{"apply", "apply+resolve"} {
		b.Run("op="+op, func(b *testing.B) {
			var ms runtime.MemStats
			var bytes uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := reduced.NewCampaign(WithEngine("worldcache"), WithSamples(1000), WithWorkers(1), WithSeed(77))
				if err != nil {
					b.Fatal(err)
				}
				res, err := c.Solve(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if res, err = c.Resolve(ctx, res); err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				before := ms.TotalAlloc
				b.StartTimer()
				for j := 0; j < batches; j++ {
					if _, err := c.ApplyEdges(ctx, stream[j*len(stream)/batches:(j+1)*len(stream)/batches]); err != nil {
						b.Fatal(err)
					}
					if op == "apply+resolve" {
						if res, err = c.Resolve(ctx, res); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				bytes += ms.TotalAlloc - before
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batches), "ns/batch")
			b.ReportMetric(float64(bytes)/float64(b.N*batches), "B/batch")
		})
	}
}

// BenchmarkSSRWarmReuse measures what the pooled SSR sample state buys
// after 1% edge churn on the Epinions profile: "cold" pays a fresh campaign
// and a from-scratch sketch solve over the final edge set, while "warm"
// holds a campaign that already solved the pre-churn graph and times
// ApplyEdges (overlay append, NoteChurn on the pooled sketch state) plus
// Resolve (per-edge re-validation of the pooled samples, re-draw of the
// invalidated few, resumed doubling). The warm cell reports the reused and
// redrawn sample counts alongside its redemption metric — the acceptance
// bar is ≥90% of pooled samples reused and warm beating cold by ≥3×.
func BenchmarkSSRWarmReuse(b *testing.B) {
	const churnFrac = 0.01
	ctx := context.Background()
	problem, err := GenerateDataset("Epinions", 400, 77)
	if err != nil {
		b.Fatal(err)
	}
	opts := func() []Option {
		return []Option{WithEngine("ssr"), WithSamples(1000), WithSeed(77)}
	}
	reduced, stream, err := problem.HoldOutEdges(churnFrac, 77)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("phase=cold", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			c, err := problem.NewCampaign(opts()...)
			if err != nil {
				b.Fatal(err)
			}
			r, err := c.Solve(ctx, WithSeed(77))
			if err != nil {
				b.Fatal(err)
			}
			rate = r.RedemptionRate
		}
		b.ReportMetric(rate, "redemption")
	})
	b.Run("phase=warm", func(b *testing.B) {
		var rate, reused, redrawn float64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c, err := reduced.NewCampaign(opts()...)
			if err != nil {
				b.Fatal(err)
			}
			prev, err := c.Solve(ctx, WithSeed(77))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if _, err := c.ApplyEdges(ctx, stream); err != nil {
				b.Fatal(err)
			}
			r, err := c.Resolve(ctx, prev, WithSeed(77))
			if err != nil {
				b.Fatal(err)
			}
			rate = r.RedemptionRate
			reused = float64(r.SketchReused)
			redrawn = float64(r.SketchRedrawn)
		}
		b.ReportMetric(rate, "redemption")
		b.ReportMetric(reused, "reused")
		b.ReportMetric(redrawn, "redrawn")
	})
}

// --- Million-node bench profile (the graph-substrate acceptance run) ---

// BenchmarkMillionNodeSolve runs the full S3CA pipeline on a million-node
// Watts–Strogatz small world (10M directed edges, 1/in-degree weights) —
// the large-scale profile EXPERIMENTS.md ("Large-graph scaling") documents.
// The GPI visit cap trims the guaranteed-path enumeration to the strongest
// 2,000 visits per seed. The world-cache engine finds affected worlds
// through its CSR inverted index and sweeps its delta queries world by
// world. Reported metrics: the
// redemption rate and the end-of-solve heap (the documented memory budget
// is 2 GiB).
func BenchmarkMillionNodeSolve(b *testing.B) {
	g, err := gen.WattsStrogatz(1_000_000, 10, 0.1, rng.New(77))
	if err != nil {
		b.Fatal(err)
	}
	m, err := costmodel.Assign(g, costmodel.Params{Mu: 10, Sigma: 2}, rng.New(77))
	if err != nil {
		b.Fatal(err)
	}
	inst := &diffusion.Instance{
		G: g, Benefit: m.Benefit, SeedCost: m.SeedCost, SCCost: m.SCCost,
		Budget: 3000,
	}
	b.Run("engine="+diffusion.EngineWorldCache, func(b *testing.B) {
		var rate float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := core.Solve(inst, core.Options{
				Engine: diffusion.EngineWorldCache, Samples: 100, Seed: 77,
				GPILimit: 2000,
			})
			if err != nil {
				b.Fatal(err)
			}
			rate = sol.RedemptionRate
		}
		b.StopTimer()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(rate, "redemption")
		b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heapMiB")
	})
	// The SSR sketch solver at the same scale: seed/coupon selection never
	// forward-simulates (only the final snapshot scoring and the end-of-
	// solve measurement do), which is the cell this engine is accepted on —
	// it must beat the worldcache time above within the same heap budget.
	// Workers opts the sharded sample build, the gate-DP prefill and the
	// snapshot scoring fan into every available core; the selected
	// deployment is bit-identical for any worker count.
	b.Run("engine="+diffusion.EngineSSR, func(b *testing.B) {
		var rate float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sol, err := core.Solve(inst, core.Options{
				Engine: diffusion.EngineSSR, Samples: 100, Seed: 77,
				GPILimit: 2000, Workers: runtime.NumCPU(),
			})
			if err != nil {
				b.Fatal(err)
			}
			rate = sol.RedemptionRate
		}
		b.StopTimer()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(rate, "redemption")
		b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heapMiB")
	})
}

// BenchmarkMillionNodeSolveLT is the million-node profile under the
// linear-threshold model: the same Watts–Strogatz small world (1/in-degree
// weights, which satisfy the LT in-weight bound exactly), solved through
// the world-cache engine at a reduced 50-sample count — the LT substrate
// materializes per-node chosen-in-edge rows (4 bytes per world per touched
// node, budget-capped) instead of per-edge bit rows, and the smoke pins
// that the whole solve still fits the documented 2 GiB heap budget.
func BenchmarkMillionNodeSolveLT(b *testing.B) {
	g, err := gen.WattsStrogatz(1_000_000, 10, 0.1, rng.New(77))
	if err != nil {
		b.Fatal(err)
	}
	m, err := costmodel.Assign(g, costmodel.Params{Mu: 10, Sigma: 2}, rng.New(77))
	if err != nil {
		b.Fatal(err)
	}
	inst := &diffusion.Instance{
		G: g, Benefit: m.Benefit, SeedCost: m.SeedCost, SCCost: m.SCCost,
		Budget: 3000,
	}
	var rate float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := core.Solve(inst, core.Options{
			Engine: diffusion.EngineWorldCache, Model: diffusion.ModelLT,
			Samples: 50, Seed: 77, GPILimit: 2000,
		})
		if err != nil {
			b.Fatal(err)
		}
		rate = sol.RedemptionRate
	}
	b.StopTimer()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(rate, "redemption")
	b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heapMiB")
}

// --- Micro-benchmarks of the substrate hot paths ---

func BenchmarkEstimatorEvaluate(b *testing.B) {
	inst := ablationInstance(b)
	d := diffusion.NewDeployment(inst.G.NumNodes())
	d.AddSeed(0)
	d.SetK(0, 3)
	est := diffusion.NewEstimator(inst, 1000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Evaluate(d)
	}
}

func BenchmarkRedeemProbs(b *testing.B) {
	probs := make([]float64, 64)
	src := rng.New(1)
	for i := range probs {
		probs[i] = src.Float64()
	}
	out := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		diffusion.RedeemProbsInto(out, probs, 16)
	}
}

func BenchmarkGeneratePreset(b *testing.B) {
	p := gen.Facebook.Scaled(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Generate(rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
