// Command experiments regenerates every table and figure of the paper's
// evaluation (Section VI) on synthetic stand-ins for the Table II datasets
// and prints them as plain-text tables.
//
//	experiments                  # everything at the default scale
//	experiments -only fig6,tab4  # a subset
//	experiments -scale 8 -samples 200 -workers 4   # faster, noisier
//
// Scale divides every dataset profile (nodes, edges, budget); per-dataset
// base divisors keep the big profiles tractable (see -help). Budget sweeps
// use 0.6×..1.4× of each scaled budget, the proportions of the paper's
// Table IV.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"s3crm/internal/costmodel"
	"s3crm/internal/diffusion"
	"s3crm/internal/eval"
	"s3crm/internal/gen"
)

// baseScale keeps each profile tractable at -scale 1; the -scale flag
// multiplies these.
var baseScale = map[string]int{
	"Facebook": 4,    // 1000 users
	"Epinions": 80,   // 950 users
	"Google+":  120,  // 900 users
	"Douban":   5500, // 1000 users
}

func main() {
	var (
		scale   = flag.Int("scale", 1, "extra down-scale multiplier on every dataset")
		engine  = flag.String("engine", "mc", "evaluation engine: "+diffusion.EngineUsage())
		samples = flag.Int("samples", 300, "Monte-Carlo samples per evaluation")
		seed    = flag.Uint64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "parallel Monte-Carlo workers")
		cap     = flag.Int("candidates", 100, "baseline greedy candidate cap")
		only    = flag.String("only", "", "comma-separated subset: tab2,fig6,fig7,fig8,fig9,fig10,tab3,tab4")
		outFile = flag.String("out", "", "also write the report to this file")
	)
	flag.Parse()

	var sinks []io.Writer = []io.Writer{os.Stdout}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		sinks = append(sinks, f)
	}
	w := io.MultiWriter(sinks...)

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	run := func(key string) bool { return len(want) == 0 || want[key] }

	// SpendBudget mirrors the paper's evaluation regime where every
	// algorithm's total cost ≈ Binv (see core.Options.SpendBudget); the
	// Fig. 10 approximation check below uses the strict argmax variant.
	params := eval.RunParams{Samples: *samples, Seed: *seed, Workers: *workers, Engine: *engine, CandidateCap: *cap, SpendBudget: true}
	setup := func(name string) eval.Setup {
		p, err := gen.PresetByName(name)
		if err != nil {
			panic(err)
		}
		return eval.Setup{Preset: p, Scale: baseScale[name] * *scale, Seed: *seed}
	}
	budgets := func(s eval.Setup) []float64 {
		b := s.Preset.Scaled(s.Scale).Binv
		return []float64{0.6 * b, 0.8 * b, b, 1.2 * b, 1.4 * b}
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	if run("tab2") {
		fmt.Fprintln(w, eval.PresetStatistics())
	}

	if run("fig6") {
		douban := setup("Douban")
		pts, err := eval.BudgetSweep(douban, budgets(douban), eval.Algorithms, params)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, eval.RenderSweep("Fig 6(a) — redemption rate vs Binv (Douban)", "Binv", pts, eval.Redemption))
		fmt.Fprintln(w, eval.RenderSweep("Fig 6(b) — total benefit vs Binv (Douban)", "Binv", pts, eval.Benefit))
		fmt.Fprintln(w, eval.RenderSweep("Fig 6(e,f) — running time vs Binv (Douban, seconds)", "Binv", pts, eval.Runtime))

		lams := []float64{0.5, 1, 2, 4}
		ptsD, err := eval.LambdaSweep(douban, lams, eval.Algorithms, params)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, eval.RenderSweep("Fig 6(c) — redemption rate vs λ (Douban)", "lambda", ptsD, eval.Redemption))
		ptsF, err := eval.LambdaSweep(setup("Facebook"), lams, eval.Algorithms, params)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, eval.RenderSweep("Fig 6(d) — redemption rate vs λ (Facebook)", "lambda", ptsF, eval.Redemption))
	}

	if run("fig7") {
		for _, name := range []string{"Facebook", "Epinions"} {
			s := setup(name)
			pts, err := eval.BudgetSweep(s, budgets(s), eval.Algorithms, params)
			if err != nil {
				fail(err)
			}
			fmt.Fprintln(w, eval.RenderSweep(
				fmt.Sprintf("Fig 7(a,b) — seed–SC rate vs Binv (%s)", name), "Binv", pts, eval.SeedSCRate))
		}
		lams := []float64{0.5, 1, 2, 4}
		for _, name := range []string{"Facebook", "Google+"} {
			pts, err := eval.LambdaSweep(setup(name), lams, eval.Algorithms, params)
			if err != nil {
				fail(err)
			}
			fmt.Fprintln(w, eval.RenderSweep(
				fmt.Sprintf("Fig 7(c,d) — seed–SC rate vs λ (%s)", name), "lambda", pts, eval.SeedSCRate))
		}
		kaps := []float64{5, 10, 20, 40}
		for _, name := range []string{"Facebook", "Douban"} {
			pts, err := eval.KappaSweep(setup(name), kaps, eval.Algorithms, params)
			if err != nil {
				fail(err)
			}
			fmt.Fprintln(w, eval.RenderSweep(
				fmt.Sprintf("Fig 7(e,f) — seed–SC rate vs κ (%s)", name), "kappa", pts, eval.SeedSCRate))
		}
	}

	if run("fig8") {
		margins := []float64{20, 40, 60, 80}
		algos := []string{"S3CA", "PM-U", "PM-L", "IM-U", "IM-L"}
		for _, pol := range []costmodel.Policy{costmodel.Airbnb, costmodel.Booking} {
			pts, err := eval.CaseStudy(setup("Facebook"), pol, margins, algos, params)
			if err != nil {
				fail(err)
			}
			fmt.Fprintln(w, eval.RenderSweep(
				fmt.Sprintf("Fig 8(a,c) — redemption rate vs gross margin (%s)", pol.Name), "margin%", pts, eval.Redemption))
			fmt.Fprintln(w, eval.RenderSweep(
				fmt.Sprintf("Fig 8(b,d) — seed–SC rate vs gross margin (%s)", pol.Name), "margin%", pts, eval.SeedSCRate))
		}
	}

	if run("fig9") {
		cfg := eval.ScalabilityConfig{Seed: *seed}
		sizes := []int{250, 500, 1000, 2000}
		rows, err := eval.ScalabilityBySize(cfg, sizes, 100, params)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, eval.RenderScale("Fig 9(a,b) — running time and explored ratio vs network size (Binv=100)", rows))
		rows, err = eval.ScalabilityByBudget(cfg, 1000, []float64{50, 100, 200, 400}, params)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, eval.RenderScale("Fig 9(c,d) — running time and explored ratio vs Binv (1000 users)", rows))
	}

	if run("fig10") {
		rows, err := eval.Approximation(eval.ScalabilityConfig{Seed: *seed}, 12,
			[]float64{20, 40, 60, 80}, eval.RunParams{Samples: 2000, Seed: *seed, Workers: *workers})
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, eval.RenderApprox("Fig 10 — S3CA vs OPT vs worst-case bound (12-user PPGG substitute)", rows))
	}

	if run("tab3") {
		var setups []eval.Setup
		for _, name := range []string{"Facebook", "Epinions", "Google+", "Douban"} {
			setups = append(setups, setup(name))
		}
		algos := []string{"IM-U", "IM-L", "PM-U", "PM-L", "S3CA"}
		out, err := eval.FarthestHops(setups, algos, params)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, out)
	}

	if run("tab4") {
		for _, name := range []string{"Facebook", "Epinions", "Douban", "Google+"} {
			s := setup(name)
			out, err := eval.RunningTime(s, budgets(s), params)
			if err != nil {
				fail(err)
			}
			fmt.Fprintln(w, out)
		}
	}

	if run("ablation") {
		out, err := eval.Ablations(setup("Facebook"), params)
		if err != nil {
			fail(err)
		}
		fmt.Fprintln(w, out)
	}
}
