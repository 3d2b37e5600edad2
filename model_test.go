// End-to-end triggering-model tests: WithModel("lt") must serve every
// engine, on materialized and hashed liveness alike, through the public
// Campaign surface, with the same
// agreement guarantees the IC engines enjoy.
package s3crm

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestModelLTEndToEnd solves the parity problem under the linear-threshold
// model across every engine, on materialized chosen-in-edge rows and on the
// over-budget hash walk: the two must agree bit for bit per engine (they
// read the same per-world selections), full
// evaluations must agree across engines exactly, and S3CA's world-cache
// guidance stays within Monte-Carlo tolerance of the MC reference — the
// same contract the IC matrix pins.
func TestModelLTEndToEnd(t *testing.T) {
	p := parityProblem(t)
	algos := []string{"S3CA", "IM-U", "PM-L"}
	for _, algo := range algos {
		t.Run(algo, func(t *testing.T) {
			rates := map[string]float64{}
			var mcRate float64
			for _, engine := range Engines() {
				var perDiffusion []float64
				for _, substrate := range []Option{nil, hashProbes} {
					r, err := runPinned(p, algo, 7, WithModel("lt"), WithEngine(engine),
						WithSamples(300), substrate)
					if err != nil {
						t.Fatalf("%s under %s (hash=%v): %v", algo, engine, substrate != nil, err)
					}
					if r.RedemptionRate <= 0 {
						t.Fatalf("%s under %s (hash=%v): non-positive redemption rate", algo, engine, substrate != nil)
					}
					perDiffusion = append(perDiffusion, r.RedemptionRate)
				}
				if perDiffusion[0] != perDiffusion[1] {
					t.Errorf("%s under %s: liveedge rate %v != hash rate %v",
						algo, engine, perDiffusion[0], perDiffusion[1])
				}
				rates[engine] = perDiffusion[0]
				if engine == "mc" {
					mcRate = perDiffusion[0]
				}
			}
			for engine, rate := range rates {
				tol := 1e-9
				if algo == "S3CA" && (engine == "worldcache" || engine == "ssr") {
					tol = 0.15 * mcRate
				}
				if math.Abs(rate-mcRate) > tol {
					t.Errorf("%s: engine %s LT rate %v differs from mc %v (tol %v)",
						algo, engine, rate, mcRate, tol)
				}
			}
		})
	}
}

// TestModelLTDiffersFromIC guards against the model option silently falling
// through to IC: on the parity problem the two models must measure a fixed
// deployment differently (the LT selection redistributes liveness mass).
func TestModelLTDiffersFromIC(t *testing.T) {
	p := parityProblem(t)
	ctx := context.Background()
	dep := Deployment{Seeds: []int{0}, Coupons: map[int]int{0: 2, 1: 1}}
	measure := func(model string) float64 {
		c, err := p.NewCampaign(WithModel(model), WithSamples(2000), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.Evaluate(ctx, dep, WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		return r.Benefit
	}
	ic, lt := measure("ic"), measure("lt")
	if ic == lt {
		t.Fatalf("IC and LT measured the deployment identically (%v): the model seam is inert", ic)
	}
}

// TestModelLTPinnedReplayDeterminism: a pinned-seed LT solve must be
// reproducible call over call and across warm campaign reuse, like the IC
// serving guarantees.
func TestModelLTPinnedReplayDeterminism(t *testing.T) {
	p := parityProblem(t)
	ctx := context.Background()
	c, err := p.NewCampaign(WithModel("lt"), WithEngine("worldcache"),
		WithSamples(200), WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Solve(ctx, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	again, err := c.Solve(ctx, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	if first.RedemptionRate != again.RedemptionRate || first.Benefit != again.Benefit {
		t.Fatalf("warm LT replay drifted: %v vs %v", first, again)
	}
	fresh, err := runPinned(p, "S3CA", 11, WithModel("lt"), WithEngine("worldcache"), WithSamples(200))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.RedemptionRate != first.RedemptionRate {
		t.Fatalf("pinned LT solve on a fresh campaign %v differs from the warm campaign's %v",
			fresh.RedemptionRate, first.RedemptionRate)
	}
}

// TestWithModelValidation: the option layer rejects unknown models eagerly
// with the shared "want one of" shape, and NewCampaign surfaces the LT
// precondition violation at construction.
func TestWithModelValidation(t *testing.T) {
	p := parityProblem(t)
	if _, err := p.NewCampaign(WithModel("voter")); err == nil ||
		!strings.Contains(err.Error(), "want one of") {
		t.Fatalf("WithModel(\"voter\"): %v", err)
	}
	// In-weights over the LT bound fail at NewCampaign, not mid-solve.
	over, err := NewProblem(3).
		AddEdge(0, 2, 0.8).AddEdge(1, 2, 0.7).
		Budget(10).Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := over.NewCampaign(WithModel("lt")); err == nil ||
		!strings.Contains(err.Error(), "in-weights") {
		t.Fatalf("NewCampaign accepted LT on overweight instance: %v", err)
	}
}
