// Command trace prints S3CA's Investment Deployment trajectory — the
// iteration-by-iteration view of Fig. 3 — on a generated dataset or a saved
// scenario, along with where the strict-argmax and spend-budget selections
// land on it.
//
//	trace -dataset Facebook -scale 20
//	trace -scenario instance.json -samples 500
package main

import (
	"flag"
	"fmt"
	"os"

	"s3crm/internal/core"
	"s3crm/internal/diffusion"
	"s3crm/internal/eval"
	"s3crm/internal/gen"
	"s3crm/internal/gio"
)

func main() {
	var (
		dataset  = flag.String("dataset", "Facebook", "dataset profile to generate")
		scale    = flag.Int("scale", 20, "down-scale divisor")
		scenario = flag.String("scenario", "", "saved scenario JSON (overrides -dataset)")
		samples  = flag.Int("samples", 400, "Monte-Carlo samples per evaluation")
		seed     = flag.Uint64("seed", 1, "random seed")
		workers  = flag.Int("workers", 0, "parallel workers")
		every    = flag.Int("every", 1, "print every n-th step")
	)
	flag.Parse()

	inst, err := buildInstance(*dataset, *scale, *scenario, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Printf("instance: %d users, %d edges, budget %.4g\n\n",
		inst.G.NumNodes(), inst.G.NumEdges(), inst.Budget)

	sol, err := core.Solve(inst, core.Options{
		Samples: *samples, Seed: *seed, Workers: *workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Println("step  action  node    benefit       cost       rate")
	fmt.Println("----  ------  ----  ---------  ---------  ---------")
	for i, p := range sol.Trajectory {
		if *every > 1 && i%*every != 0 && i != len(sol.Trajectory)-1 {
			continue
		}
		action, rate := "coupon", 0.0
		if p.Seed {
			action = "seed"
		}
		if p.Cost > 0 {
			rate = p.Benefit / p.Cost
		}
		fmt.Printf("%4d  %-6s  %4d  %9.3f  %9.3f  %9.4f\n",
			i, action, p.Node, p.Benefit, p.Cost, rate)
	}
	fmt.Printf("\nstrict argmax selection: rate %.4f at cost %.4g (%d coupons, %d seeds)\n",
		sol.RedemptionRate, sol.TotalCost, sol.Deployment.TotalK(), sol.Deployment.NumSeeds())

	full, err := core.Solve(inst, core.Options{
		Samples: *samples, Seed: *seed, Workers: *workers, SpendBudget: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
	fmt.Printf("spend-budget selection:  rate %.4f at cost %.4g (%d coupons, %d seeds)\n",
		full.RedemptionRate, full.TotalCost, full.Deployment.TotalK(), full.Deployment.NumSeeds())
}

func buildInstance(dataset string, scale int, scenario string, seed uint64) (*diffusion.Instance, error) {
	if scenario != "" {
		f, err := os.Open(scenario)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		s, err := gio.ReadScenario(f)
		if err != nil {
			return nil, err
		}
		g, err := s.Graph()
		if err != nil {
			return nil, err
		}
		return &diffusion.Instance{
			G: g, Benefit: s.Benefit, SeedCost: s.SeedCost, SCCost: s.SCCost, Budget: s.Budget,
		}, nil
	}
	preset, err := gen.PresetByName(dataset)
	if err != nil {
		return nil, err
	}
	return eval.BuildInstance(eval.Setup{Preset: preset, Scale: scale, Seed: seed})
}
