package baselines

import (
	"sort"

	"s3crm/internal/diffusion"
	"s3crm/internal/graph"
	"s3crm/internal/ris"
	"s3crm/internal/rng"
)

// sketchPrune ranks the affordable candidates by estimated influence — the
// RR-set cover count of reverse-influence sampling under the configured
// triggering model — and keeps the top CandidateCap, ties to the smaller
// id. This is the EngineSSR candidate-pruning backend: on
// skewed-probability graphs a raw degree cap keeps hubs with weak edges,
// while the sketch cap keeps the users that actually spread. It draws 200
// RR sets per user, capped at 200,000.
func sketchPrune(in *diffusion.Instance, cfg Config, affordable []int32) []int32 {
	covers := coverCounts(in.G, cfg.Model, min(200*in.G.NumNodes(), 200000), cfg.Seed^0x515)
	ranked := append([]int32(nil), affordable...)
	sort.Slice(ranked, func(a, b int) bool {
		ca, cb := covers[ranked[a]], covers[ranked[b]]
		if ca != cb {
			return ca > cb
		}
		return ranked[a] < ranked[b]
	})
	return ranked[:cfg.CandidateCap]
}

// coverCounts draws count RR sets over g and returns, per node, how many of
// them contain it. Set i is rooted at the i-th draw of rng.New(seed) and
// walks world i of rng.NewCoin(seed) straight off the coin: under IC an
// in-edge is crossed when its coin is live, under LT a node follows the
// in-edge its uniform at diffusion.LTItemKey selects — exactly the draws
// the forward engines' live-edge substrate makes for the same seed and
// world. g must have at least one node.
func coverCounts(g *graph.Graph, model string, count int, seed uint64) []int32 {
	coin := rng.NewCoin(seed)
	roots := rng.New(seed)
	wk := ris.NewWalker(g)
	n := g.NumNodes()
	covers := make([]int32, n)
	var set []int32
	for i := 0; i < count; i++ {
		root := int32(roots.Intn(n))
		if model == diffusion.ModelLT {
			set = wk.DrawLT(set[:0], root, uint64(i), coin, diffusion.LTItemBase)
		} else {
			set = wk.Draw(set[:0], root, uint64(i), coin)
		}
		for _, v := range set {
			covers[v]++
		}
	}
	return covers
}
