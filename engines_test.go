// Engine-parity tests: every evaluation engine must agree on the reported
// redemption rates. Full evaluations share the simulation kernel across
// engines, so baselines agree exactly; S3CA under the world-cache engine
// ranks ID candidates with frontier replays (a slightly different greedy
// guidance signal), so its agreement is within Monte-Carlo noise.
package s3crm

import (
	"bytes"
	"context"
	"math"
	"slices"
	"strings"
	"testing"

	"s3crm/internal/baselines"
	"s3crm/internal/core"
	"s3crm/internal/diffusion"
)

func parityProblem(t *testing.T) *Problem {
	t.Helper()
	p, err := GenerateDataset("Facebook", 100, 3) // 40 users
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runPinned runs algo — "S3CA" or a baseline name — as one call pinned to
// seed on a fresh campaign built with opts.
func runPinned(p *Problem, algo string, seed uint64, opts ...Option) (*Result, error) {
	c, err := p.NewCampaign(opts...)
	if err != nil {
		return nil, err
	}
	if algo == "S3CA" {
		return c.Solve(context.Background(), WithSeed(seed))
	}
	return c.RunBaseline(context.Background(), algo, WithSeed(seed))
}

// substrateEngine builds the named concrete engine under the triggering
// model over an estimator whose live-edge substrate runs on the given
// memory budget: 0 materializes worlds within the default budget, 1 byte
// materializes nothing and hashes every probe.
func substrateEngine(t *testing.T, inst *diffusion.Instance, engine, model string, samples int, seed uint64, budget int64) diffusion.Evaluator {
	t.Helper()
	est, err := diffusion.NewEngineOpts(inst, diffusion.EngineOptions{
		Model: model, Samples: samples, Seed: seed, LiveEdgeMemBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	if engine == diffusion.EngineWorldCache {
		return &diffusion.WorldCache{Est: est}
	}
	return est
}

// runBaseline runs the named baseline (see Baselines) with cfg.
func runBaseline(name string, inst *diffusion.Instance, cfg baselines.Config) (*baselines.Outcome, error) {
	ctx := context.Background()
	if strings.HasSuffix(name, "-L") {
		cfg.Strategy = baselines.Limited
	}
	switch {
	case name == "IM-S":
		return baselines.IMS(ctx, inst, cfg)
	case strings.HasPrefix(name, "IM-"):
		return baselines.IM(ctx, inst, cfg)
	default:
		return baselines.PM(ctx, inst, cfg)
	}
}

func TestEngineParity(t *testing.T) {
	p := parityProblem(t)
	algos := append([]string{"S3CA"}, Baselines()...)
	for _, algo := range algos {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			rates := make(map[string]float64, len(Engines()))
			var mcRate float64
			for _, engine := range Engines() {
				r, err := runPinned(p, algo, 7, WithEngine(engine), WithSamples(300))
				if err != nil {
					t.Fatalf("%s under %s: %v", algo, engine, err)
				}
				if r.RedemptionRate <= 0 {
					t.Fatalf("%s under %s: non-positive redemption rate %v", algo, engine, r.RedemptionRate)
				}
				rates[engine] = r.RedemptionRate
				if engine == "mc" {
					mcRate = r.RedemptionRate
				}
			}
			for engine, rate := range rates {
				// The baselines have no incremental search paths, so every
				// engine drives them to the same deployment; S3CA's greedy
				// may diverge on near-tie investments under the world-cache
				// ranking signal — and selects on reverse-sample cover counts
				// outright under ssr — hence the MC-noise tolerance.
				tol := 1e-9
				if algo == "S3CA" && (engine == "worldcache" || engine == "ssr") {
					tol = 0.15 * mcRate
				}
				if math.Abs(rate-mcRate) > tol {
					t.Errorf("%s: engine %s rate %v differs from mc rate %v (tol %v)",
						algo, engine, rate, mcRate, tol)
				}
			}
		})
	}
}

// TestDiffusionSubstrateParity pins that materialized live-edge worlds and
// the over-budget hash fallback are interchangeable bit for bit: the
// materialized worlds hold exactly the draws the hash recomputes — per-edge
// coins under IC, per-node in-edge selections under LT — so solver runs are
// identical, not merely close, across the two, for S3CA and every baseline
// under every engine name and both triggering models. The substrates are
// injected: S3CA takes them through core.Options.Evaluator and Scorer, the
// baselines through baselines.Config.Evaluator.
func TestDiffusionSubstrateParity(t *testing.T) {
	inst := parityProblem(t).inst
	const samples, seed = 200, 7
	for _, model := range Models() {
		for _, engine := range Engines() {
			concrete, err := diffusion.ResolveEngine(engine, inst.G.NumNodes(), inst.G.NumEdges())
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range append([]string{"S3CA"}, Baselines()...) {
				var rates []float64
				var seeds [][]int32
				for _, budget := range []int64{0, 1} {
					var d *diffusion.Deployment
					var rate float64
					if algo == "S3CA" {
						sol, err := core.Solve(inst, core.Options{
							Engine: engine, Model: model, Samples: samples, Seed: seed,
							Evaluator: substrateEngine(t, inst, concrete, model, samples, seed, budget),
							Scorer:    substrateEngine(t, inst, concrete, model, samples, seed^0x5c04e, budget),
						})
						if err != nil {
							t.Fatalf("%s under %s/%s (budget %d): %v", algo, engine, model, budget, err)
						}
						d, rate = sol.Deployment, sol.RedemptionRate
					} else {
						est := substrateEngine(t, inst, diffusion.EngineMC, model, samples, seed, budget).(*diffusion.Estimator)
						o, err := runBaseline(algo, inst, baselines.Config{
							Engine: engine, Model: model, Samples: samples, Seed: seed, Evaluator: est,
						})
						if err != nil {
							t.Fatalf("%s under %s/%s (budget %d): %v", algo, engine, model, budget, err)
						}
						d, rate = o.Deployment, o.RedemptionRate
					}
					rates = append(rates, rate)
					seeds = append(seeds, d.Seeds())
				}
				if rates[0] != rates[1] {
					t.Errorf("%s under %s/%s: substrates disagree: %v vs %v", algo, engine, model, rates[0], rates[1])
				}
				if !slices.Equal(seeds[0], seeds[1]) {
					t.Errorf("%s under %s/%s: seed sets differ: %v vs %v", algo, engine, model, seeds[0], seeds[1])
				}
			}
		}
	}
}

// TestInjectedEngineNamesChecked: a caller that injects a pre-built engine
// still names the engine and the triggering model, and the solver and the
// baselines validate both names exactly as they do when they build the
// engine themselves.
func TestInjectedEngineNamesChecked(t *testing.T) {
	inst := parityProblem(t).inst
	est := diffusion.NewEstimator(inst, 50, 1)
	solve := func(engine, model string) error {
		_, err := core.Solve(inst, core.Options{
			Engine: engine, Model: model, Samples: 50, Seed: 1, Evaluator: est,
		})
		return err
	}
	im := func(engine, model string) error {
		_, err := baselines.IM(context.Background(), inst, baselines.Config{
			Engine: engine, Model: model, Samples: 50, Seed: 1, Evaluator: est,
		})
		return err
	}
	for _, tc := range []struct {
		name          string
		run           func(engine, model string) error
		engine, model string
	}{
		{"solve/engine", solve, "quantum", ""},
		{"solve/model", solve, "", "bogus"},
		{"IM/engine", im, "quantum", ""},
		{"IM/model", im, "", "bogus"},
	} {
		if err := tc.run(tc.engine, tc.model); err == nil {
			t.Errorf("%s: injected engine accepted engine %q, model %q", tc.name, tc.engine, tc.model)
		}
	}
	if err := solve(diffusion.EngineMC, diffusion.ModelIC); err != nil {
		t.Fatalf("solve with valid names: %v", err)
	}
}

func TestEngineUnknownRejected(t *testing.T) {
	p := parityProblem(t)
	if _, err := runPinned(p, "S3CA", 1, WithEngine("quantum"), WithSamples(50)); err == nil {
		t.Fatal("NewCampaign accepted an unknown engine")
	}
	if _, err := runPinned(p, "S3CA", 1, WithEngine("sketch"), WithSamples(50)); err == nil {
		t.Fatal("NewCampaign accepted the retired sketch engine")
	}
	c, err := p.NewCampaign(WithSamples(50))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := c.Solve(ctx, WithEngine("quantum")); err == nil {
		t.Fatal("Solve accepted an unknown engine")
	}
	if _, err := c.RunBaseline(ctx, "IM-U", WithEngine("quantum")); err == nil {
		t.Fatal("RunBaseline accepted an unknown engine")
	}
	if _, err := c.Evaluate(ctx, Deployment{Seeds: []int{0}}, WithEngine("quantum")); err == nil {
		t.Fatal("Evaluate accepted an unknown engine")
	}
}

// TestScenarioRoundTripResolves saves a problem, loads it back and
// re-solves both: the loaded problem must describe the identical instance,
// so the deterministic solver must return the identical campaign.
func TestScenarioRoundTripResolves(t *testing.T) {
	orig := parityProblem(t)
	var buf bytes.Buffer
	if err := orig.SaveScenario(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadScenario(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Users() != orig.Users() || loaded.Edges() != orig.Edges() || loaded.Budget() != orig.Budget() {
		t.Fatalf("round trip changed the instance: %d/%d/%v vs %d/%d/%v",
			loaded.Users(), loaded.Edges(), loaded.Budget(),
			orig.Users(), orig.Edges(), orig.Budget())
	}
	a, err := runPinned(orig, "S3CA", 5, WithEngine("worldcache"), WithSamples(200))
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPinned(loaded, "S3CA", 5, WithEngine("worldcache"), WithSamples(200))
	if err != nil {
		t.Fatal(err)
	}
	if a.RedemptionRate != b.RedemptionRate {
		t.Fatalf("re-solving the loaded scenario gave rate %v, original %v", b.RedemptionRate, a.RedemptionRate)
	}
	if len(a.Seeds) != len(b.Seeds) {
		t.Fatalf("seed sets differ: %v vs %v", a.Seeds, b.Seeds)
	}
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatalf("seed sets differ: %v vs %v", a.Seeds, b.Seeds)
		}
	}
	if len(a.Coupons) != len(b.Coupons) {
		t.Fatalf("allocations differ: %v vs %v", a.Coupons, b.Coupons)
	}
	for v, k := range a.Coupons {
		if b.Coupons[v] != k {
			t.Fatalf("allocations differ at %d: %d vs %d", v, k, b.Coupons[v])
		}
	}
}
