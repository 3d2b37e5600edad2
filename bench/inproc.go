package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"s3crm"
	"s3crm/internal/gen"
	"s3crm/internal/rng"
)

// instanceSeed generates every workload's graph and costs. The instance is
// fixed so that runs at different seeds measure the same problem: across
// four Epinions-profile graphs the S3CA redemption spans 1.13–1.24, more
// than any useful regression bound. -seed drives everything drawn on top of
// the instance: campaign seeds (the sampled worlds), held-out edges, the
// request mix and the evaluated deployments.
const instanceSeed = 77

// midOptions is the CLI's default path on a mid-size graph: auto resolves
// to worldcache below 200k users, and one worker keeps it the
// single-threaded baseline.
func midOptions(seed uint64) []s3crm.Option {
	return []s3crm.Option{s3crm.WithEngine("auto"), s3crm.WithSamples(1000), s3crm.WithWorkers(1), s3crm.WithSeed(seed)}
}

// largeOptions is the large-graph path: auto resolves to ssr at 200k users,
// and the sample build uses every core.
func largeOptions(seed uint64) []s3crm.Option {
	return []s3crm.Option{s3crm.WithEngine("auto"), s3crm.WithSamples(100), s3crm.WithGPILimit(2000),
		s3crm.WithWorkers(runtime.NumCPU()), s3crm.WithSeed(seed)}
}

const (
	midSamples   = 1000
	largeSamples = 100
	largeUsers   = 200_000 // the smallest size auto sends to ssr
)

func midDataset(step stepFn) (p *s3crm.Problem, err error) {
	err = step("graph.dataset", func() error {
		p, err = s3crm.GenerateDataset("Epinions", 10, instanceSeed)
		return err
	})
	return p, err
}

// solveMid runs cold solves — a fresh campaign each, campaign seeds seed,
// seed+1, … — on the Epinions profile at scale 10 (7,600 users).
func (r *run) solveMid() error {
	var p *s3crm.Problem
	if err := r.setup(func(step stepFn) (err error) {
		p, err = midDataset(step)
		return err
	}); err != nil {
		return err
	}
	r.startWindow()
	var c *s3crm.Campaign
	var res *s3crm.Result
	for i := uint64(0); r.more(); i++ {
		if c, res = r.coldSolve("solve", true, p, midSamples, midOptions(r.seed+i)); res != nil {
			r.quality(c, res)
		}
	}
	r.traceEvaluate(c, res, 20)
	return nil
}

// churnStream replays 20% of the Epinions scale-10 edges into a solved
// campaign in 1000 batches, each ApplyEdges followed by Resolve from the
// previous result, and repeats with a fresh campaign while the window lasts.
func (r *run) churnStream() error {
	var reduced *s3crm.Problem
	var stream []s3crm.EdgeAdd
	if err := r.setup(func(step stepFn) error {
		p, err := midDataset(step)
		if err != nil {
			return err
		}
		return step("graph.holdout", func() (err error) {
			reduced, stream, err = p.HoldOutEdges(0.2, r.seed)
			return err
		})
	}); err != nil {
		return err
	}
	r.startWindow()
	batches := split(stream, 1000)
	var c *s3crm.Campaign
	var res *s3crm.Result
	for round := uint64(0); r.more(); round++ {
		if c, res = r.coldSolve("round-solve", false, reduced, midSamples, midOptions(r.seed+round)); res == nil {
			return errors.New("round solve failed")
		}
		res = r.replay(c, res, batches, midSamples, replayMode{measured: true})
	}
	if r.tr != nil && c != nil {
		// The warm result against a from-scratch solve on the same churned
		// campaign: same graph, same sampled worlds.
		var cold *s3crm.Result
		r.op("cold-solve", false, func(o *opCtx) (err error) {
			cold, err = c.Solve(r.ctx, o.progress()...)
			return err
		})
		if cold != nil && cold.RedemptionRate > 0 {
			r.rp.set("s3crm.warm_cold_gap", (cold.RedemptionRate-res.RedemptionRate)/cold.RedemptionRate, 1)
		}
	}
	r.traceEvaluate(c, res, 20)
	return nil
}

// ssrSolve holds out 1% of the edges of a 200k-user small world ingested
// from a SNAP edge list and runs cold solves on the rest. A traced run then
// appends the held-out edges to the last campaign in three batches, each
// ApplyEdges followed by a warm SSR Resolve, for the sketch warm-patch
// metrics; a batch takes about half as long as a cold solve, so untraced
// runs spend the window on the solves alone.
func (r *run) ssrSolve() error {
	path, err := r.writeSmallWorld()
	if err != nil {
		return err
	}
	defer os.Remove(path)
	var reduced *s3crm.Problem
	var stream []s3crm.EdgeAdd
	if err := r.setup(func(step stepFn) error {
		p, err := loadSmallWorld(step, path)
		if err != nil {
			return err
		}
		return step("graph.holdout", func() (err error) {
			reduced, stream, err = p.HoldOutEdges(0.01, r.seed)
			return err
		})
	}); err != nil {
		return err
	}
	r.startWindow()
	var c *s3crm.Campaign
	var res *s3crm.Result
	for i := uint64(0); r.more(); i++ {
		if c, res = r.coldSolve("solve", true, reduced, largeSamples, largeOptions(r.seed+i)); res != nil {
			r.quality(c, res)
			if res.SketchBuildNs == 0 {
				r.rp.fail("solve: auto did not resolve to ssr on %d users", reduced.Users())
			}
		}
	}
	if r.tr != nil && res != nil {
		res = r.replay(c, res, split(stream, 3), largeSamples, replayMode{collect: true, minReuse: 0.9})
	}
	r.traceEvaluate(c, res, 5)
	return nil
}

// coldSolve times a fresh NewCampaign plus its first Solve as one op and
// checks the result. The previous op's garbage is collected first, outside
// the timer, so that every solve starts from the same heap.
func (r *run) coldSolve(name string, measured bool, p *s3crm.Problem, samples int, opts []s3crm.Option) (*s3crm.Campaign, *s3crm.Result) {
	runtime.GC()
	var c *s3crm.Campaign
	var res *s3crm.Result
	r.op(name, measured, func(o *opCtx) error {
		t := time.Now()
		var err error
		if c, err = p.NewCampaign(opts...); err != nil {
			return err
		}
		o.count("new_ns", float64(time.Since(t)))
		if res, err = c.Solve(r.ctx, o.progress()...); err != nil {
			return err
		}
		o.countResult(res)
		return checkResult(res, p.Budget(), samples)
	})
	return c, res
}

// replayMode is how replay runs its batches.
type replayMode struct {
	measured bool    // each batch is a sample of the workload's op metrics
	collect  bool    // collect garbage before each batch, outside the timer
	minReuse float64 // > 0: each warm SSR re-solve must keep this share of its samples
}

// replay appends batches to c, timing each ApplyEdges plus Resolve(prev) as
// one op, and checks afterwards that the campaign holds exactly the starting
// edges plus the appended ones.
func (r *run) replay(c *s3crm.Campaign, prev *s3crm.Result, batches [][]s3crm.EdgeAdd, samples int, mode replayMode) *s3crm.Result {
	start, appended := c.Edges(), 0
	budget := c.Problem().Budget()
	for _, b := range batches {
		if mode.collect {
			runtime.GC()
		}
		r.op("update", mode.measured, func(o *opCtx) error {
			t := time.Now()
			st, err := c.ApplyEdges(r.ctx, b)
			if err != nil {
				return err
			}
			appended += len(b)
			o.count("apply_ns", float64(time.Since(t)))
			o.count("patched", float64(st.SnapshotsPatched))
			o.count("pools_dropped", float64(st.PoolsDropped))
			if st.Compacted {
				o.count("compacted", 1)
			}
			t = time.Now()
			res, err := c.Resolve(r.ctx, prev, o.progress()...)
			if err != nil {
				return err
			}
			o.count("resolve_ns", float64(time.Since(t)))
			o.countResult(res)
			prev = res
			if kept := reuseFrac(res); kept < mode.minReuse {
				return fmt.Errorf("warm re-solve reused %.3f of its samples, want ≥ %.2f", kept, mode.minReuse)
			}
			return checkResult(res, budget, samples)
		})
	}
	r.rp.check(c.Edges() == start+appended, "campaign holds %d edges after appending %d to %d", c.Edges(), appended, start)
	r.quality(c, prev)
	return prev
}

// traceEvaluate, in a traced run, times n Campaign.Evaluate calls on the
// run's final deployment for the diffusion layer's metrics, and checks that
// evaluating the deployment reproduces the redemption its call reported.
func (r *run) traceEvaluate(c *s3crm.Campaign, res *s3crm.Result, n int) {
	if r.tr == nil || c == nil || res == nil {
		return
	}
	dep := s3crm.Deployment{Seeds: res.Seeds, Coupons: res.Coupons}
	runtime.GC()
	for i := 0; i < n; i++ {
		r.op("evaluate", false, func(o *opCtx) error {
			got, err := c.Evaluate(r.ctx, dep)
			if err != nil {
				return err
			}
			if !sameRate(got.RedemptionRate, res.RedemptionRate) {
				return fmt.Errorf("evaluating the final deployment gives redemption %v, its call reported %v", got.RedemptionRate, res.RedemptionRate)
			}
			return nil
		})
	}
}

// qualitySamples is the world count redemption is measured on.
const qualitySamples = 1000

// quality measures a final deployment's redemption on one fixed set of
// qualitySamples worlds (drawn from instanceSeed) of its campaign's graph, so
// that the redemption metric varies with the deployments the system chose,
// not with each call's own sample draw. It runs between ops, outside any
// timer.
func (r *run) quality(c *s3crm.Campaign, res *s3crm.Result) {
	got, err := c.Evaluate(r.ctx, s3crm.Deployment{Seeds: res.Seeds, Coupons: res.Coupons},
		s3crm.WithSamples(qualitySamples), s3crm.WithSeed(instanceSeed))
	r.rp.check(err == nil, "measuring a final deployment: %v", err)
	if err == nil {
		r.rates = append(r.rates, got.RedemptionRate)
	}
}

// countResult records a result's sketch counters on the op span.
func (o *opCtx) countResult(res *s3crm.Result) {
	o.count("sketch_build_ns", float64(res.SketchBuildNs))
	o.count("sketch_reused", float64(res.SketchReused))
	o.count("sketch_redrawn", float64(res.SketchRedrawn))
}

// checkResult checks the guarantees every result must keep: the full
// requested sample count, no degradation and a deployment within budget.
func checkResult(res *s3crm.Result, budget float64, samples int) error {
	switch {
	case res.Degraded || res.EffectiveSamples != samples:
		return fmt.Errorf("result degraded to %d samples, requested %d", res.EffectiveSamples, samples)
	case res.TotalCost > budget*(1+1e-9):
		return fmt.Errorf("deployment costs %v, over the budget %v", res.TotalCost, budget)
	}
	return nil
}

func reuseFrac(res *s3crm.Result) float64 {
	total := res.SketchReused + res.SketchRedrawn
	if total == 0 {
		return 0
	}
	return float64(res.SketchReused) / float64(total)
}

// sameRate reports whether two measurements agree to floating-point rounding.
func sameRate(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b)) }

// split cuts edges into n batches of near-equal size, in order.
func split(edges []s3crm.EdgeAdd, n int) [][]s3crm.EdgeAdd {
	n = min(n, len(edges))
	out := make([][]s3crm.EdgeAdd, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, edges[i*len(edges)/n:(i+1)*len(edges)/n])
	}
	return out
}

// writeSmallWorld writes the large workloads' graph — a Watts–Strogatz small
// world, 200k users with ten neighbours each and rewiring β = 0.1, two
// million arcs — as a plain SNAP edge list, outside any timer.
func (r *run) writeSmallWorld() (path string, err error) {
	g, err := gen.WattsStrogatz(largeUsers, 10, 0.1, rng.New(instanceSeed))
	if err != nil {
		return "", err
	}
	path = filepath.Join(r.work, fmt.Sprintf("smallworld-%d.txt", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for u := 0; u < g.NumNodes(); u++ {
		ts, _ := g.OutEdges(int32(u))
		for _, t := range ts {
			line = strconv.AppendInt(line[:0], int64(u), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(t), 10)
			line = append(line, '\n')
			w.Write(line) // a failed write resurfaces from Flush
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

func loadSmallWorld(step stepFn, path string) (p *s3crm.Problem, err error) {
	err = step("gio.load", func() error {
		p, _, err = s3crm.LoadGraphProblem(path, s3crm.GraphConfig{Model: "wc", Budget: 3000, Seed: instanceSeed})
		return err
	})
	return p, err
}
