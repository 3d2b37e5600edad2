package diffusion

import (
	"fmt"

	"s3crm/internal/graph"
)

// Triggering-model names accepted by EngineOptions.Model and threaded
// through core.Options, baselines.Config, eval.RunParams and the public
// s3crm.WithModel.
//
// Both models are served through the shared live-edge view (Kempe, Kleinberg
// and Tardos' triggering-model equivalence): a possible world is a fixed
// assignment of live/blocked to every edge, and propagation — including the
// coupon-capacity scans — is the same reachability sweep whatever
// distribution produced the assignment. What a model owns is exactly that
// distribution:
//
//   - Independent cascade flips one independent coin per edge, so liveness
//     is a per-(world, edge) hash and common random numbers hold per edge.
//   - Linear threshold has every node select at most one live in-edge, edge
//     (u, v) with probability equal to its weight w(u, v) (requiring
//     Σ_u w(u, v) ≤ 1, see ValidateLTWeights), so liveness is a
//     per-(world, node) categorical draw over the node's in-row and common
//     random numbers hold per node.
const (
	// ModelIC is the independent-cascade model (the paper's setting and
	// the default): every edge is live independently with its influence
	// probability.
	ModelIC = "ic"
	// ModelLT is the linear-threshold model under its live-edge
	// equivalence: each node picks at most one live in-edge, with
	// probability proportional to (equal to) the in-edge's weight.
	ModelLT = "lt"
)

// Models lists the triggering models in documentation order.
func Models() []string { return []string{ModelIC, ModelLT} }

// normalizeModel maps the empty name to the default and rejects unknowns
// with the same "want one of" shape as the engine and diffusion validators.
func normalizeModel(name string) (string, error) {
	switch name {
	case "":
		return ModelIC, nil
	case ModelIC, ModelLT:
		return name, nil
	}
	return "", fmt.Errorf("diffusion: unknown triggering model %q (want one of %v)", name, Models())
}

// ltWeightTolerance absorbs the ulp-level excess floating-point in-weight
// sums can carry (d additions of a rounded 1/d may land just above 1).
const ltWeightTolerance = 1e-9

// inWeightSums returns Σ_u w(u, v) per node v in one sweep over the merged
// adjacency (overlay rows included).
func inWeightSums(g *graph.Graph) []float64 {
	sums := make([]float64, g.NumNodes())
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		targets, probs := g.OutEdges(v)
		for i, t := range targets {
			sums[t] += probs[i]
		}
	}
	return sums
}

// ValidateLTWeights checks the linear-threshold precondition: every node's
// in-weights must sum to at most 1, or the live-edge selection could never
// reach the tail of the node's in-row and the model would silently deviate
// from LT semantics. The paper-standard weighted cascade (1/in-degree)
// satisfies the bound by construction; arbitrary weightings can be brought
// into range with graph.CapInWeights or gio's NormalizeLT ingestion option.
func ValidateLTWeights(g *graph.Graph) error {
	for v, s := range inWeightSums(g) {
		if s > 1+ltWeightTolerance {
			return fmt.Errorf("diffusion: node %d in-weights sum to %v > 1, violating the linear-threshold precondition Σ w(u,v) ≤ 1 (re-weight with the \"wc\" model or normalize via graph.CapInWeights)", v, s)
		}
	}
	return nil
}

// InWeightExcess reports which of the given nodes violate the
// linear-threshold in-weight bound Σ_u w(u, v) ≤ 1 (beyond floating-point
// tolerance). Edge appends can only push the bound past 1 at the appended
// edges' targets, so churn handlers pass exactly those and re-normalize with
// graph.CapInWeights when the result is non-empty.
func InWeightExcess(g *graph.Graph, nodes []int32) []int32 {
	if len(nodes) == 0 {
		return nil
	}
	sums := inWeightSums(g)
	var out []int32
	for _, v := range nodes {
		if sums[v] > 1+ltWeightTolerance {
			out = append(out, v)
		}
	}
	return out
}
