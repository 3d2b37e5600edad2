package core

import (
	"s3crm/internal/diffusion"
	"s3crm/internal/par"
	"s3crm/internal/progress"
	"s3crm/internal/sketch"
)

// sketchSolve runs the SSR sketch engine over phase 1's pivot queue: the
// queue (already rate-ordered) seeds the cover maximizer exactly as it
// seeds the forward ID loop, the sample schedule is sized by the
// Epsilon/Delta stopping rule, and the selected deployment comes back for
// one honest forward evaluation in finish. Each doubling round emits one
// "sketch" progress event carrying the sample count, the certification
// bound gap, and the build parallelism counters.
func (s *solver) sketchSolve(queue []pivotEntry) (*diffusion.Deployment, error) {
	pivots := make([]sketch.Pivot, len(queue))
	for i, e := range queue {
		pivots[i] = sketch.Pivot{Node: e.node, K: e.k, Rate: e.rate}
	}
	workers := s.opts.Workers
	if workers < 1 {
		workers = 1
	}
	s.stats.SketchWorkers = workers

	// Snapshots score on sequential views: see estimatorViewer.
	scoreWorkers := workers
	if _, ok := s.est.(estimatorViewer); !ok {
		scoreWorkers = 1
	}

	res, err := sketch.Solve(sketch.Config{
		Inst:        s.inst,
		Model:       s.opts.Model,
		Pivots:      pivots,
		Seed:        s.opts.Seed,
		Epsilon:     s.opts.Epsilon,
		Delta:       s.opts.Delta,
		SpendBudget: s.opts.SpendBudget,
		Workers:     workers,
		Warm:        s.opts.SketchWarm,
		WarmApprox:  s.opts.SketchWarmApprox,
		Ctx:         s.ctx,
		// Snapshot selection runs on forward-measured rates: the sketch
		// relaxation overestimates coupon marginals, so its own estimates
		// would stop the trajectory too late (see sketch.Config.ScoreBatch).
		ScoreBatch: func(ds []*diffusion.Deployment) []float64 {
			out := make([]float64, len(ds))
			par.Each(len(ds), scoreWorkers, func() func(int) {
				view := s.seqView()
				return func(i int) {
					d := ds[i]
					out[i] = safeRatio(s.benefitOn(view, d), s.inst.SeedCostOf(d)+s.inst.SCCostOf(d))
				}
			})
			return out
		},
		OnRound: func(round, samples int, gap float64, buildNs int64) {
			s.stats.SketchRounds, s.stats.SketchSamples = round, samples
			s.stats.SketchBuildNs = buildNs
			if s.opts.Progress != nil {
				s.opts.Progress(progress.Event{
					Phase:         s.phase,
					Iteration:     round,
					Samples:       samples,
					BoundGap:      gap,
					Evaluations:   s.evaluations(),
					SketchWorkers: workers,
					SketchBuildNs: buildNs,
				})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	s.stats.SketchRounds = res.Rounds
	s.stats.SketchSamples = res.Samples
	s.stats.SketchLB, s.stats.SketchUB = res.LB, res.UB
	s.stats.SketchCertified = res.Certified
	s.stats.SketchBuildNs = res.BuildNs
	s.stats.SketchReused, s.stats.SketchRedrawn = res.Reused, res.Redrawn
	if s.opts.SketchPool {
		s.sketchWarm = res.Warm
	}
	s.trajectory = res.Steps
	return res.Deployment, nil
}
