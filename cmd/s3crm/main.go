// Command s3crm runs one algorithm on one S3CRM instance and prints the
// resulting campaign.
//
// The instance is either a generated dataset profile:
//
//	s3crm -dataset Facebook -scale 20 -algo S3CA
//
// or a SNAP-style edge list — plain or gzip, self-loops and duplicate arcs
// handled, node ids re-mapped — plus cost parameters:
//
//	s3crm -graph soc-Epinions1.txt.gz -budget 5000 -algo IM-U
//	s3crm -graph edges.txt -probmodel trivalency -budget 5000
//
// Influence probabilities follow -probmodel: the file's own column when it
// has one, else the paper's weighted cascade (1/in-degree); "uniform" and
// "trivalency" are available explicitly.
//
// The evaluation engine follows -engine, defaulting to "auto": the SSR
// sketch solver at or above 200k users / 2M edges, the incremental world
// cache below — pass a concrete name (mc, worldcache, ssr) to pin
// one. Propagation follows -model: "ic" (independent cascade, the default)
// or "lt" (linear threshold — in-weights must sum to ≤ 1 per user, which the
// weighted-cascade probabilities guarantee and -ltnorm establishes for any
// other weighting):
//
//	s3crm -dataset Epinions -scale 400 -model lt -engine worldcache
//	s3crm -graph edges.txt -probmodel uniform -ltnorm -model lt -budget 5000
//
// Supported algorithms: S3CA (default), IM-U, IM-L, PM-U, PM-L, IM-S.
// With -progress the solver renders a live per-iteration progress line on
// stderr (phase, iteration, spent budget, current redemption rate) — the
// Campaign API's event stream. Interrupting with Ctrl-C cancels the solve
// mid-iteration.
//
// With -churn f the command runs the churn replay mode instead: a fraction
// f of the edges is held out, the reduced network solved, and the held-out
// edges replayed in -churn-batches append batches (Campaign.ApplyEdges, the
// warm engine state patched in place) with an incremental re-solve
// (Campaign.Resolve) after each — then one cold solve of the full network
// for comparison:
//
//	s3crm -dataset Epinions -scale 400 -engine worldcache -churn 0.01
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"s3crm"
)

func main() {
	var (
		dataset  = flag.String("dataset", "", "dataset profile to generate (Facebook, Epinions, Google+, Douban)")
		scale    = flag.Int("scale", 1, "down-scale divisor for the dataset profile")
		graphF   = flag.String("graph", "", "SNAP-style edge list file, plain or gzip (alternative to -dataset)")
		probmod  = flag.String("probmodel", "", "influence probabilities for -graph: file, uniform, wc, trivalency (default: file column if present, else wc)")
		uniformP = flag.Float64("p", 0.1, "edge probability for -probmodel uniform")
		scenario = flag.String("scenario", "", "saved scenario JSON (alternative to -dataset/-graph)")
		saveF    = flag.String("save", "", "write the solved instance as scenario JSON")
		mu       = flag.Float64("mu", 10, "benefit mean for -graph instances")
		sigma    = flag.Float64("sigma", 2, "benefit standard deviation for -graph instances")
		lambda   = flag.Float64("lambda", 1, "total benefit / total SC cost ratio")
		kappa    = flag.Float64("kappa", 10, "total seed cost / total benefit ratio")
		budget   = flag.Float64("budget", 0, "investment budget Binv (0 = dataset default)")
		algo     = flag.String("algo", "S3CA", "algorithm: S3CA, IM-U, IM-L, PM-U, PM-L, IM-S")
		engine   = flag.String("engine", "auto", "evaluation engine: "+s3crm.EngineUsage())
		epsilon  = flag.Float64("epsilon", 0.1, "ssr engine approximation slack ε in (0,1): certify within (1−1/e−ε)")
		delta    = flag.Float64("delta", 0.01, "ssr engine failure probability δ in (0,1)")
		model    = flag.String("model", "ic", "triggering model: ic (independent cascade), lt (linear threshold)")
		ltnorm   = flag.Bool("ltnorm", false, "scale -graph in-weights to sum ≤ 1 (the -model lt precondition; wc weights already satisfy it)")
		gpilimit = flag.Int("gpilimit", 0, "cap guaranteed-path DFS visits per seed (0 = unlimited; set ~2000 for million-node graphs)")
		samples  = flag.Int("samples", 1000, "Monte-Carlo samples per evaluation")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "parallel Monte-Carlo workers (0 = sequential)")
		cap      = flag.Int("candidates", 0, "baseline greedy candidate cap (0 = all)")
		topN     = flag.Int("top", 10, "coupon holders to print")
		progress = flag.Bool("progress", false, "render a live solver progress line on stderr")
		churn    = flag.Float64("churn", 0, "churn replay mode: hold out this fraction of edges, solve, then replay them as appends with warm re-solves (0 = off)")
		churnB   = flag.Int("churn-batches", 10, "append batches the held-out edges are replayed in")
		timeout  = flag.Duration("timeout", 0, "abort the solve after this duration (0 = none)")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the solve to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile after the solve to this file")
	)
	flag.Parse()

	problem, err := buildProblem(*dataset, *scale, *graphF, *scenario, *probmod, *uniformP, *mu, *sigma, *lambda, *kappa, *budget, *seed, *ltnorm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3crm:", err)
		os.Exit(1)
	}
	fmt.Printf("instance: %d users, %d edges, budget %.4g\n",
		problem.Users(), problem.Edges(), problem.Budget())
	if *saveF != "" {
		if err := saveScenario(*saveF, problem); err != nil {
			fmt.Fprintln(os.Stderr, "s3crm:", err)
			os.Exit(1)
		}
	}

	opts := []s3crm.Option{
		s3crm.WithEngine(*engine),
		s3crm.WithModel(*model),
		s3crm.WithGPILimit(*gpilimit),
		s3crm.WithSamples(*samples),
		s3crm.WithSeed(*seed),
		s3crm.WithWorkers(*workers),
		s3crm.WithCandidateCap(*cap),
		s3crm.WithEpsilon(*epsilon),
		s3crm.WithDelta(*delta),
	}
	if *progress {
		opts = append(opts, s3crm.WithProgress(renderProgress))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *churn > 0 {
		if err := runChurn(ctx, problem, opts, *churn, *churnB, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "s3crm:", err)
			os.Exit(1)
		}
		return
	}

	campaign, err := problem.NewCampaign(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3crm:", err)
		os.Exit(1)
	}

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "s3crm:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "s3crm:", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	start := time.Now()
	// The call-level seed pins the run: output for a given -seed is
	// bit-identical to earlier releases, independent of the campaign's
	// call counter.
	var result *s3crm.Result
	if *algo == "S3CA" {
		result, err = campaign.Solve(ctx, s3crm.WithSeed(*seed))
	} else {
		result, err = campaign.RunBaseline(ctx, *algo, s3crm.WithSeed(*seed))
	}
	elapsed := time.Since(start)
	if *progress {
		fmt.Fprintln(os.Stderr) // terminate the live line
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "s3crm:", err)
		os.Exit(1)
	}
	if *memprof != "" {
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "s3crm:", err)
			os.Exit(1)
		}
		runtime.GC() // profile retained allocations, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "s3crm:", err)
			os.Exit(1)
		}
		f.Close()
	}

	fmt.Printf("\n%s finished in %v\n", result.Algorithm, elapsed.Round(time.Millisecond))
	fmt.Printf("redemption rate: %.4f\n", result.RedemptionRate)
	fmt.Printf("expected benefit: %.4g\n", result.Benefit)
	fmt.Printf("cost: %.4g (seeds %.4g + coupons %.4g) of budget %.4g\n",
		result.TotalCost, result.SeedCost, result.CouponCost, problem.Budget())
	fmt.Printf("seeds (%d): %v\n", len(result.Seeds), head(result.Seeds, *topN))
	type alloc struct{ user, k int }
	var allocs []alloc
	for u, k := range result.Coupons {
		allocs = append(allocs, alloc{u, k})
	}
	sort.Slice(allocs, func(i, j int) bool {
		if allocs[i].k != allocs[j].k {
			return allocs[i].k > allocs[j].k
		}
		return allocs[i].user < allocs[j].user
	})
	fmt.Printf("coupon holders (%d):", len(allocs))
	for i, a := range allocs {
		if i == *topN {
			fmt.Printf(" …")
			break
		}
		fmt.Printf(" %d×%d", a.user, a.k)
	}
	fmt.Println()
}

// runChurn is the churn replay mode: hold out a fraction of the instance's
// edges, solve the reduced network, then replay the held-out edges in
// batches through Campaign.ApplyEdges with a warm Resolve after each —
// finally running one cold solve on the full network for the comparison the
// dynamic-graph design is benchmarked by (EXPERIMENTS.md, "Churn re-solve").
func runChurn(ctx context.Context, problem *s3crm.Problem, opts []s3crm.Option, frac float64, batches int, seed uint64) error {
	if batches < 1 {
		batches = 1
	}
	reduced, stream, err := problem.HoldOutEdges(frac, seed)
	if err != nil {
		return err
	}
	fmt.Printf("churn replay: held out %d of %d edges (%.2f%%), %d batches\n",
		len(stream), problem.Edges(), 100*frac, batches)

	campaign, err := reduced.NewCampaign(opts...)
	if err != nil {
		return err
	}
	start := time.Now()
	result, err := campaign.Solve(ctx, s3crm.WithSeed(seed))
	if err != nil {
		return err
	}
	fmt.Printf("initial solve (reduced graph): rate %.4f in %v\n",
		result.RedemptionRate, time.Since(start).Round(time.Millisecond))

	var warm time.Duration
	per := (len(stream) + batches - 1) / batches
	for b := 0; b < batches && len(stream) > 0; b++ {
		k := per
		if k > len(stream) {
			k = len(stream)
		}
		batch := stream[:k]
		stream = stream[k:]
		t0 := time.Now()
		st, err := campaign.ApplyEdges(ctx, batch)
		if err != nil {
			return err
		}
		applied := time.Since(t0)
		result, err = campaign.Resolve(ctx, result)
		if err != nil {
			return err
		}
		step := time.Since(t0)
		warm += step
		fmt.Printf("batch %2d: +%d edges (apply %v, re-solve %v)  rate %.4f  patched %d snapshots%s\n",
			b+1, st.EdgesAdded, applied.Round(time.Millisecond),
			(step - applied).Round(time.Millisecond), result.RedemptionRate,
			st.SnapshotsPatched, churnNotes(st))
	}

	start = time.Now()
	cold, err := problem.NewCampaign(opts...)
	if err != nil {
		return err
	}
	coldResult, err := cold.Solve(ctx, s3crm.WithSeed(seed))
	if err != nil {
		return err
	}
	coldTime := time.Since(start)
	fmt.Printf("\nwarm replay total: %v (rate %.4f) — cold full solve: %v (rate %.4f) — %.1fx\n",
		warm.Round(time.Millisecond), result.RedemptionRate,
		coldTime.Round(time.Millisecond), coldResult.RedemptionRate,
		float64(coldTime)/float64(warm))
	return nil
}

func churnNotes(st s3crm.ChurnStats) string {
	s := ""
	if st.Compacted {
		s += ", compacted"
	}
	if st.LTRescaled {
		s += ", lt-rescaled"
	}
	return s
}

// renderProgress rewrites one stderr line per solver event — a cheap sink,
// as the event contract requires.
func renderProgress(e s3crm.Event) {
	fmt.Fprintf(os.Stderr, "\r[%s/%s] iter %d  spent %.4g  rate %.4f  evals %d        ",
		e.Algorithm, e.Phase, e.Iteration, e.Spent, e.Rate, e.Evaluations)
}

func head(xs []int, n int) []int {
	if len(xs) <= n {
		return xs
	}
	return xs[:n]
}

func saveScenario(path string, p *s3crm.Problem) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return p.SaveScenario(f)
}

func buildProblem(dataset string, scale int, graphFile, scenarioFile, probModel string,
	uniformP, mu, sigma, lambda, kappa, budget float64, seed uint64, ltnorm bool) (*s3crm.Problem, error) {

	if scenarioFile != "" {
		f, err := os.Open(scenarioFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return s3crm.LoadScenario(f)
	}
	if dataset != "" {
		return s3crm.GenerateDataset(dataset, scale, seed)
	}
	if graphFile == "" {
		return nil, fmt.Errorf("need -dataset, -graph or -scenario")
	}
	if budget <= 0 {
		return nil, fmt.Errorf("-graph instances need an explicit -budget")
	}
	problem, stats, err := s3crm.LoadGraphProblem(graphFile, s3crm.GraphConfig{
		Model: probModel, UniformP: uniformP,
		Mu: mu, Sigma: sigma, Lambda: lambda, Kappa: kappa,
		Budget: budget, Seed: seed, NormalizeLT: ltnorm,
	})
	if err != nil {
		return nil, err
	}
	fmt.Printf("loaded %s: %d users, %d edges (probmodel %s; dropped %d self-loops, %d duplicates)\n",
		graphFile, stats.Nodes, stats.Edges, stats.Model, stats.SelfLoops, stats.Duplicates)
	return problem, nil
}
