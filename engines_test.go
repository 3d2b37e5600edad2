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
	"testing"
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

// hashProbes reaches per-probe hashing through a Campaign: a one-byte
// live-edge budget materializes nothing, so every liveness probe takes the
// substrate's over-budget fallback and recomputes its coin. The budget is
// not a public option; the campaign's config carries it to the engine key.
var hashProbes Option = func(c *config) error {
	c.memBudget = 1
	return nil
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
// materialized worlds hold exactly the flips the hash recomputes, so solver
// runs are identical — not merely close — across the two, for S3CA and
// every baseline.
func TestDiffusionSubstrateParity(t *testing.T) {
	p := parityProblem(t)
	algos := append([]string{"S3CA"}, Baselines()...)
	for _, algo := range algos {
		for _, engine := range Engines() {
			var rates []float64
			var seeds [][]int
			for _, substrate := range []Option{nil, hashProbes} {
				r, err := runPinned(p, algo, 7, WithEngine(engine), WithSamples(200), substrate)
				if err != nil {
					t.Fatalf("%s under %s (hash=%v): %v", algo, engine, substrate != nil, err)
				}
				rates = append(rates, r.RedemptionRate)
				seeds = append(seeds, r.Seeds)
			}
			if rates[0] != rates[1] {
				t.Errorf("%s under %s: substrates disagree: %v vs %v", algo, engine, rates[0], rates[1])
			}
			if len(seeds[0]) != len(seeds[1]) {
				t.Errorf("%s under %s: seed sets differ: %v vs %v", algo, engine, seeds[0], seeds[1])
			} else {
				for i := range seeds[0] {
					if seeds[0][i] != seeds[1][i] {
						t.Errorf("%s under %s: seed sets differ: %v vs %v", algo, engine, seeds[0], seeds[1])
						break
					}
				}
			}
		}
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
