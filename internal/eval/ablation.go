package eval

import (
	"fmt"
	"time"

	"s3crm/internal/core"
)

// Ablations isolates the S3CA design choices DESIGN.md calls out: the GPI
// and SCM phases, the pivot-source comparison, and the Monte-Carlo sample
// count. It renders one table comparing redemption rate, cost usage and
// runtime per variant on one instance.
func Ablations(s Setup, p RunParams) (string, error) {
	p = p.withDefaults()
	inst, err := BuildInstance(s)
	if err != nil {
		return "", err
	}
	variants := []struct {
		name string
		opts core.Options
	}{
		{"full S3CA", core.Options{Samples: p.Samples, Seed: p.Seed, Workers: p.Workers}},
		{"ID only (no GPI/SCM)", core.Options{Samples: p.Samples, Seed: p.Seed, Workers: p.Workers, DisableGPI: true}},
		{"no SCM", core.Options{Samples: p.Samples, Seed: p.Seed, Workers: p.Workers, DisableSCM: true}},
		{"no pivot comparison", core.Options{Samples: p.Samples, Seed: p.Seed, Workers: p.Workers, DisablePivot: true}},
		{"samples/4", core.Options{Samples: max(p.Samples/4, 10), Seed: p.Seed, Workers: p.Workers}},
		{"samples×4", core.Options{Samples: p.Samples * 4, Seed: p.Seed, Workers: p.Workers}},
	}
	headers := []string{"variant", "redemption", "benefit", "cost", "seconds"}
	var rows [][]string
	for _, v := range variants {
		start := time.Now()
		sol, err := core.Solve(inst, v.opts)
		if err != nil {
			return "", fmt.Errorf("eval: ablation %q: %w", v.name, err)
		}
		rows = append(rows, []string{
			v.name,
			fmt.Sprintf("%.4g", sol.RedemptionRate),
			fmt.Sprintf("%.4g", sol.Benefit),
			fmt.Sprintf("%.4g", sol.TotalCost),
			fmt.Sprintf("%.3f", time.Since(start).Seconds()),
		})
	}
	title := fmt.Sprintf("Ablations — S3CA design choices (%s, scale 1/%d)", s.Preset.Name, s.Scale)
	return RenderTable(title, headers, rows), nil
}
