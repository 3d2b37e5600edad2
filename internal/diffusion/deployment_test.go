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
// deployment; and the world cache's coupon diff against the previous step
// equals the dense scan's, maxAdvanceChanged cut-off included.
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
	cutoffs, diffs := 0, 0
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
		if slices.Equal(prev.Seeds(), d.Seeds()) {
			if denseOK {
				diffs++
			} else {
				cutoffs++
			}
		}
	}
	if cutoffs == 0 || diffs == 0 {
		t.Fatalf("degenerate sequence: %d cut-offs, %d diffs under the cap", cutoffs, diffs)
	}
}
