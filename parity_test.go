package s3crm

import (
	"testing"

	"s3crm/internal/core"
	"s3crm/internal/diffusion"
	"s3crm/internal/eval"
	"s3crm/internal/gen"
)

// TestCSRGoldenParity pins the solver's redemption rate on the existing
// dataset profiles to the exact float64 values produced before the CSR
// migration (int32 offsets, shared reverse adjacency, streaming builders,
// GPI caches). Everything the substrate touches — adjacency order, global
// edge indexes, coin flips, summation order — must leave these bits alone;
// a 1-ulp drift here means a representation change leaked into results.
// The hash rows run the solver over engines on a 1-byte live-edge budget —
// nothing materialized, every probe hashed — injected through
// core.Options.Evaluator and Scorer.
func TestCSRGoldenParity(t *testing.T) {
	cases := []struct {
		name    string
		preset  gen.Preset
		scale   int
		engine  string
		hash    bool
		rate    float64
		slowish bool
	}{
		{"facebook20-mc-hash", gen.Facebook, 20, diffusion.EngineMC, true, 0.43138959694774442, false},
		{"facebook20-wc-live", gen.Facebook, 20, diffusion.EngineWorldCache, false, 0.43138959694774442, false},
		{"epinions400-wc-live", gen.Epinions, 400, diffusion.EngineWorldCache, false, 0.47337202259135702, true},
		{"epinions400-mc-live", gen.Epinions, 400, diffusion.EngineMC, false, 0.47337202259135702, true},
		{"epinions400-mc-hash", gen.Epinions, 400, diffusion.EngineMC, true, 0.47337202259135702, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slowish && testing.Short() {
				t.Skip("Epinions-profile parity pin skipped in -short mode")
			}
			inst, err := eval.BuildInstance(eval.Setup{Preset: tc.preset, Scale: tc.scale, Seed: 77})
			if err != nil {
				t.Fatal(err)
			}
			opts := core.Options{Samples: 200, Seed: 77, Engine: tc.engine}
			if tc.hash {
				oracle := func(seed uint64) diffusion.Evaluator {
					ev, err := diffusion.NewEngineOpts(inst, diffusion.EngineOptions{
						Engine: tc.engine, Samples: 200, Seed: seed, LiveEdgeMemBudget: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					return ev
				}
				opts.Evaluator = oracle(77)
				opts.Scorer = oracle(77 ^ 0x5c04e)
			}
			sol, err := core.Solve(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sol.RedemptionRate != tc.rate {
				t.Fatalf("redemption rate = %.17g, want the pre-migration %.17g (drift %g)",
					sol.RedemptionRate, tc.rate, sol.RedemptionRate-tc.rate)
			}
		})
	}
}
