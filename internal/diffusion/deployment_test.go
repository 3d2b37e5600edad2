package diffusion

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"s3crm/internal/graph"
)

// weightEdges draws count duplicate-free random arcs among the first n
// nodes, extending the taken set. Half the weights come from a small set so
// rows hold ties; the rest are arbitrary floats, whose sums depend on the
// addition order.
func weightEdges(r *rand.Rand, n, count int, taken map[int64]bool) []graph.Edge {
	ties := []float64{0.1, 0.25, 1.0 / 3, 0.7}
	var out []graph.Edge
	for tries := 0; len(out) < count && tries < 50*count; tries++ {
		from, to := int32(r.Intn(n)), int32(r.Intn(n))
		if from == to || taken[arcKey(from, to)] {
			continue
		}
		taken[arcKey(from, to)] = true
		p := ties[r.Intn(len(ties))]
		if r.Intn(2) == 0 {
			p = 0.6 * r.Float64()
		}
		out = append(out, graph.Edge{From: from, To: to, P: p})
	}
	return out
}

// denseSCCostOf is the pre-holder-list SCCostOf: a scan over every user of
// the instance, skipping those without coupons. Kept as the oracle the
// holder-list version must match bit for bit.
func denseSCCostOf(in *Instance, d *Deployment) float64 {
	total := 0.0
	for v := int32(0); v < int32(in.G.NumNodes()); v++ {
		k := d.K(v)
		if k == 0 {
			continue
		}
		targets, probs := in.G.OutEdges(v)
		rp := RedeemProbs(probs, k)
		for j, t := range targets {
			total += in.SCCost[t] * rp[j]
		}
	}
	return total
}

// denseCouponDiff is the pre-holder-list couponDiff: it compares every
// user's coupon count, giving up past maxAdvanceChanged differences.
func denseCouponDiff(base, d *Deployment) ([]int32, bool) {
	if !slices.Equal(base.Seeds(), d.Seeds()) {
		return nil, false
	}
	var changed []int32
	for v := int32(0); v < int32(d.NumUsers()); v++ {
		if base.K(v) != d.K(v) {
			if len(changed) >= maxAdvanceChanged {
				return nil, false
			}
			changed = append(changed, v)
		}
	}
	return changed, true
}

// denseRef is the dense reference a deployment is checked against.
type denseRef struct {
	seed []bool
	k    []int
}

func (r *denseRef) holders() []int32 {
	var out []int32
	for v, k := range r.k {
		if k > 0 {
			out = append(out, int32(v))
		}
	}
	return out
}

// build rebuilds the reference as a fresh deployment, coupons set in a
// random order so the holder list grows by out-of-order inserts.
func (r *denseRef) build(rnd *rand.Rand) *Deployment {
	d := NewDeployment(len(r.k))
	for _, v := range rnd.Perm(len(r.k)) {
		if r.seed[v] {
			d.AddSeed(int32(v))
		}
		if r.k[v] > 0 {
			d.SetK(int32(v), r.k[v])
		}
	}
	return d
}

// TestDeploymentHolderListMatchesDense drives a random sequence of seed and
// coupon edits, pads and clones against a dense reference. After every step
// the holder list is exactly the users with K > 0, ascending; TotalK,
// Allocated and Equal agree with the reference; SCCostOf is bit-equal to
// the dense scan on instances both shorter than and as long as the
// deployment; the world cache's coupon diff and seed-add test against the
// previous step equal the dense scans', maxAdvanceChanged cut-off
// included; and a copy reused through every step (CopyFrom) equals d.
func TestDeploymentHolderListMatchesDense(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	const n0, nMax = 60, 90
	taken := make(map[int64]bool)
	full, err := graph.FromEdges(nMax, weightEdges(rnd, nMax, 6*nMax, taken))
	if err != nil {
		t.Fatal(err)
	}
	var head []graph.Edge
	for _, e := range full.Edges() {
		if e.From < n0 && e.To < n0 {
			head = append(head, e)
		}
	}
	short, err := graph.FromEdges(n0, head)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, nMax)
	for i := range costs {
		costs[i] = 0.5 + rnd.Float64()
	}
	shortInst := &Instance{G: short, SCCost: costs[:n0]}
	fullInst := &Instance{G: full, SCCost: costs}

	d := NewDeployment(n0)
	ref := &denseRef{seed: make([]bool, n0), k: make([]int, n0)}
	copied := &Deployment{}
	cutoffs, diffs, seedAdds := 0, 0, 0
	for step := 0; step < 3000; step++ {
		prev := d.Clone()
		n := len(ref.k)
		v := int32(rnd.Intn(n))
		switch op := rnd.Intn(20); {
		case op < 2:
			d.AddSeed(v)
			ref.seed[v] = true
		case op < 3:
			d.RemoveSeed(v)
			ref.seed[v] = false
		case op < 8:
			k := rnd.Intn(4) // 0 included: drops v from the holders
			d.SetK(v, k)
			ref.k[v] = k
		case op < 15:
			delta := rnd.Intn(7) - 4 // negative deltas clamp at zero
			d.AddK(v, delta)
			ref.k[v] = max(ref.k[v]+delta, 0)
		case op < 16:
			if m := n + rnd.Intn(4); m <= nMax {
				d.Pad(m)
				ref.seed = append(ref.seed, make([]bool, m-n)...)
				ref.k = append(ref.k, make([]int, m-n)...)
			}
		case op < 18:
			// A wide move: enough changed users to straddle the cut-off.
			for i, w := 0, 20+rnd.Intn(30); i < w; i++ {
				u := int32(rnd.Intn(n))
				k := (ref.k[u] + 1 + rnd.Intn(3)) % 4 // always a change
				d.SetK(u, k)
				ref.k[u] = k
			}
		default:
			c := d.Clone()
			d.SetK(v, 7) // the clone must not see this
			if c.K(v) != ref.k[v] {
				t.Fatalf("step %d: clone shares coupon state", step)
			}
			d = c
		}

		want := ref.holders()
		if !slices.Equal(d.holders, want) {
			t.Fatalf("step %d: holders %v, want %v", step, d.holders, want)
		}
		if got := d.Allocated(); !slices.Equal(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("step %d: Allocated %v, want %v", step, got, want)
		}
		total := 0
		for _, k := range ref.k {
			total += k
		}
		if d.TotalK() != total {
			t.Fatalf("step %d: TotalK %d, want %d", step, d.TotalK(), total)
		}
		rebuilt := ref.build(rnd)
		if !d.Equal(rebuilt) || !rebuilt.Equal(d) {
			t.Fatalf("step %d: deployment not Equal to its dense rebuild", step)
		}
		if len(want) > 0 {
			u := want[rnd.Intn(len(want))]
			rebuilt.AddK(u, 1)
			if d.Equal(rebuilt) || rebuilt.Equal(d) {
				t.Fatalf("step %d: Equal missed a coupon change at %d", step, u)
			}
		}
		if got, want := shortInst.SCCostOf(d), denseSCCostOf(shortInst, d); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: SCCostOf %v, dense %v (instance of %d users)", step, got, want, n0)
		}
		if d.NumUsers() == nMax {
			if got, want := fullInst.SCCostOf(d), denseSCCostOf(fullInst, d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d: SCCostOf %v, dense %v (instance of %d users)", step, got, want, nMax)
			}
		}

		prev.Pad(d.NumUsers()) // as PatchEdges pads the base on node growth
		wc := &WorldCache{base: prev}
		got, gotOK := wc.couponDiff(d)
		dense, denseOK := denseCouponDiff(prev, d)
		if gotOK != denseOK || !slices.Equal(got, dense) {
			t.Fatalf("step %d: couponDiff (%v, %v), dense (%v, %v)", step, got, gotOK, dense, denseOK)
		}
		s, sOK := wc.seedAdded(d)
		denseS, denseSOK := denseSeedAdded(prev, d)
		if sOK != denseSOK || sOK && s != denseS {
			t.Fatalf("step %d: seedAdded (%d, %v), dense (%d, %v)", step, s, sOK, denseS, denseSOK)
		}
		if sOK {
			seedAdds++
		}
		// One reused copy follows d through every size and edit.
		copied.CopyFrom(d)
		if !copied.Equal(d) || !d.Equal(copied) || copied.NumUsers() != d.NumUsers() {
			t.Fatalf("step %d: CopyFrom gave %v, want %v", step, copied, d)
		}
		if slices.Equal(prev.Seeds(), d.Seeds()) {
			if denseOK {
				diffs++
			} else {
				cutoffs++
			}
		}
	}
	if cutoffs == 0 || diffs == 0 || seedAdds == 0 {
		t.Fatalf("degenerate sequence: %d cut-offs, %d diffs under the cap, %d seed adds", cutoffs, diffs, seedAdds)
	}
}

// denseSeedAdded is the reference for WorldCache.seedAdded: d holds base's
// seeds plus exactly one more, s, and every coupon count but s's equals
// base's.
func denseSeedAdded(base, d *Deployment) (int32, bool) {
	s := int32(-1)
	for v := int32(0); int(v) < d.n; v++ {
		switch {
		case base.seed[v] && !d.seed[v]:
			return 0, false
		case d.seed[v] && !base.seed[v]:
			if s >= 0 {
				return 0, false
			}
			s = v
		}
	}
	if s < 0 {
		return 0, false
	}
	for v := int32(0); int(v) < d.n; v++ {
		if v != s && base.k[v] != d.k[v] {
			return 0, false
		}
	}
	return s, true
}

// TestDeploymentApply pins Move's semantics row by row: a seed move makes
// its node a seed and raises its coupon count to K but never lowers it, a
// coupon move raises the count to K (one more than before), and a repeated
// seed move changes nothing.
func TestDeploymentApply(t *testing.T) {
	type state struct {
		seed bool
		k    int
	}
	rows := []struct {
		name  string
		pre   []Move
		mv    Move
		want  state
		seeds int
		noop  bool // the move must leave d unchanged
	}{
		{"seed raises K", nil, Move{Node: 3, Seed: true, K: 2}, state{true, 2}, 1, false},
		{"seed below K keeps K", []Move{{Node: 3, K: 1}, {Node: 3, K: 2}, {Node: 3, K: 3}},
			Move{Node: 3, Seed: true, K: 1}, state{true, 3}, 1, false},
		{"coupon", []Move{{Node: 3, Seed: true, K: 1}}, Move{Node: 3, K: 2}, state{true, 2}, 1, false},
		{"coupon on non-seed", []Move{{Node: 1, Seed: true, K: 1}}, Move{Node: 3, K: 1}, state{false, 1}, 1, false},
		{"repeated seed", []Move{{Node: 3, Seed: true, K: 2}}, Move{Node: 3, Seed: true, K: 2}, state{true, 2}, 1, true},
	}
	for _, r := range rows {
		d := NewDeployment(5)
		for _, mv := range r.pre {
			d.Apply(mv)
		}
		before := d.Clone()
		d.Apply(r.mv)
		if got := (state{d.IsSeed(r.mv.Node), d.K(r.mv.Node)}); got != r.want || d.NumSeeds() != r.seeds {
			t.Fatalf("%s: node %d is %+v with %d seeds, want %+v with %d", r.name, r.mv.Node, got, d.NumSeeds(), r.want, r.seeds)
		}
		if r.noop && !d.Equal(before) {
			t.Fatalf("%s: %v, want unchanged %v", r.name, d, before)
		}
		log := make([]TrajectoryPoint, 0, len(r.pre)+1)
		for _, mv := range append(r.pre, r.mv) {
			log = append(log, TrajectoryPoint{Move: mv})
		}
		if got := Replay(5, log); !got.Equal(d) {
			t.Fatalf("%s: Replay gives %v, want %v", r.name, got, d)
		}
	}
}
