package diffusion

import (
	"fmt"

	"s3crm/internal/graph"
)

// Instance bundles one S3CRM problem: the weighted graph, the per-user
// benefit and costs, and the investment budget Binv.
type Instance struct {
	G        *graph.Graph
	Benefit  []float64
	SeedCost []float64
	SCCost   []float64
	Budget   float64
}

// Validate checks the arrays are consistent with the graph.
func (in *Instance) Validate() error {
	if in.G == nil {
		return fmt.Errorf("diffusion: instance has nil graph")
	}
	n := in.G.NumNodes()
	if len(in.Benefit) != n || len(in.SeedCost) != n || len(in.SCCost) != n {
		return fmt.Errorf("diffusion: instance arrays (%d,%d,%d) do not match %d nodes",
			len(in.Benefit), len(in.SeedCost), len(in.SCCost), n)
	}
	// The !(x >= 0) form rejects NaN along with negatives.
	for v := 0; v < n; v++ {
		if !(in.Benefit[v] >= 0 && in.SeedCost[v] >= 0 && in.SCCost[v] >= 0) {
			return fmt.Errorf("diffusion: negative or NaN benefit or cost at user %d", v)
		}
	}
	if !(in.Budget >= 0) {
		return fmt.Errorf("diffusion: negative or NaN budget %v", in.Budget)
	}
	return nil
}

// BenefitRatio returns b0 = max benefit / min benefit, the constant in the
// paper's approximation bound. Returns 0 for an empty instance.
func (in *Instance) BenefitRatio() float64 {
	return ratio(in.Benefit)
}

// CostRatio returns c0 = max cost / min cost over the union of seed and SC
// costs, the second constant in the approximation bound.
func (in *Instance) CostRatio() float64 {
	all := make([]float64, 0, len(in.SeedCost)+len(in.SCCost))
	all = append(all, in.SeedCost...)
	all = append(all, in.SCCost...)
	return ratio(all)
}

func ratio(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if min <= 0 {
		return 0 // unbounded ratio; the bound degenerates
	}
	return max / min
}
