package diffusion

import (
	"fmt"
	"slices"
	"sort"
)

// Deployment is a candidate solution: the seed set S and the SC allocation
// K. The internal node set I of the paper is implicit — it is exactly the
// users with K > 0 (plus the seeds).
//
// Both halves are kept dense for O(1) lookups by the simulation kernels and
// as sorted lists for O(|S|) and O(|I|) iteration: seeds next to seed, and
// holders — the users with K > 0 — next to k. Cost accounting, Equal and
// the world cache's coupon diff walk the lists, so they cost the size of
// the deployment rather than the size of the network.
//
// Deployments are mutable scratch objects: the search algorithms apply a
// change, evaluate, and either keep or revert it. Use Clone to snapshot.
type Deployment struct {
	n       int
	seed    []bool
	seeds   []int32 // sorted list, kept in sync with seed
	k       []int32
	holders []int32 // sorted list of users with k > 0, kept in sync with k
}

// NewDeployment returns an empty deployment over n users.
func NewDeployment(n int) *Deployment {
	return &Deployment{n: n, seed: make([]bool, n), k: make([]int32, n)}
}

// NumUsers returns the instance size the deployment was created for.
func (d *Deployment) NumUsers() int { return d.n }

// Pad grows the deployment to n users — appended users are non-seeds with
// zero coupons, so every existing evaluation is unchanged. A no-op when the
// deployment already covers n. Graph churn that introduces new nodes pads
// the warm deployments through this before re-evaluating.
func (d *Deployment) Pad(n int) {
	if n <= d.n {
		return
	}
	d.seed = append(d.seed, make([]bool, n-d.n)...)
	d.k = append(d.k, make([]int32, n-d.n)...)
	d.n = n
}

// AddSeed marks v as a seed. Adding an existing seed is a no-op.
func (d *Deployment) AddSeed(v int32) {
	if d.seed[v] {
		return
	}
	d.seed[v] = true
	i := sort.Search(len(d.seeds), func(i int) bool { return d.seeds[i] >= v })
	d.seeds = append(d.seeds, 0)
	copy(d.seeds[i+1:], d.seeds[i:])
	d.seeds[i] = v
}

// RemoveSeed unmarks v. Removing a non-seed is a no-op.
func (d *Deployment) RemoveSeed(v int32) {
	if !d.seed[v] {
		return
	}
	d.seed[v] = false
	i := sort.Search(len(d.seeds), func(i int) bool { return d.seeds[i] >= v })
	d.seeds = append(d.seeds[:i], d.seeds[i+1:]...)
}

// IsSeed reports whether v is a seed.
func (d *Deployment) IsSeed(v int32) bool { return d.seed[v] }

// Seeds returns the sorted seed list. The slice aliases internal state and
// must not be modified; it is invalidated by AddSeed/RemoveSeed.
func (d *Deployment) Seeds() []int32 { return d.seeds }

// NumSeeds returns |S|.
func (d *Deployment) NumSeeds() int { return len(d.seeds) }

// K returns the coupon allocation of v.
func (d *Deployment) K(v int32) int { return int(d.k[v]) }

// SetK sets the coupon allocation of v. Negative values are rejected.
func (d *Deployment) SetK(v int32, k int) {
	if k < 0 {
		panic(fmt.Sprintf("diffusion: SetK(%d, %d) with negative k", v, k))
	}
	d.setK(v, int32(k))
}

// AddK adds delta coupons to v (delta may be negative); the result is
// clamped at zero.
func (d *Deployment) AddK(v int32, delta int) {
	nk := int(d.k[v]) + delta
	if nk < 0 {
		nk = 0
	}
	d.setK(v, int32(nk))
}

// setK stores v's allocation and keeps holders in sync when v gains its
// first coupon or loses its last.
func (d *Deployment) setK(v, k int32) {
	was := d.k[v]
	d.k[v] = k
	if (was > 0) == (k > 0) {
		return
	}
	i, _ := slices.BinarySearch(d.holders, v)
	if k > 0 {
		d.holders = slices.Insert(d.holders, i, v)
	} else {
		d.holders = slices.Delete(d.holders, i, i+1)
	}
}

// TotalK returns the total number of allocated coupons.
func (d *Deployment) TotalK() int {
	t := 0
	for _, v := range d.holders {
		t += int(d.k[v])
	}
	return t
}

// Allocated returns the users with at least one coupon, ascending, as a
// fresh slice (nil when there are none).
func (d *Deployment) Allocated() []int32 {
	return append([]int32(nil), d.holders...)
}

// Clone returns an independent copy.
func (d *Deployment) Clone() *Deployment {
	c := &Deployment{
		n:       d.n,
		seed:    append([]bool(nil), d.seed...),
		seeds:   append([]int32(nil), d.seeds...),
		k:       append([]int32(nil), d.k...),
		holders: append([]int32(nil), d.holders...),
	}
	return c
}

// reset makes d the empty deployment over n users, reusing its arrays:
// clearing d's seeds and holders costs O(|S| + |I|), not the network size,
// and only growth past the arrays' length allocates.
func (d *Deployment) reset(n int) {
	for _, v := range d.seeds {
		d.seed[v] = false
	}
	for _, v := range d.holders {
		d.k[v] = 0
	}
	if len(d.seed) < n {
		d.seed = append(d.seed, make([]bool, n-len(d.seed))...)
		d.k = append(d.k, make([]int32, n-len(d.k))...)
	}
	d.n, d.seed, d.k = n, d.seed[:n], d.k[:n]
	d.seeds, d.holders = d.seeds[:0], d.holders[:0]
}

// CopyFrom makes d an independent copy of o, reusing d's arrays: clearing
// d's own seeds and holders and setting o's costs O(|S| + |I|) of both, not
// the network size.
func (d *Deployment) CopyFrom(o *Deployment) {
	if d == o {
		return
	}
	d.reset(o.n)
	for _, v := range o.seeds {
		d.seed[v] = true
	}
	for _, v := range o.holders {
		d.k[v] = o.k[v]
	}
	d.seeds = append(d.seeds, o.seeds...)
	d.holders = append(d.holders, o.holders...)
}

// Equal reports whether two deployments select the same seeds and
// allocation.
func (d *Deployment) Equal(o *Deployment) bool {
	if d.n != o.n || !slices.Equal(d.seeds, o.seeds) || !slices.Equal(d.holders, o.holders) {
		return false
	}
	for _, v := range d.holders {
		if d.k[v] != o.k[v] {
			return false
		}
	}
	return true
}

// String renders a compact human-readable description.
func (d *Deployment) String() string {
	return fmt.Sprintf("Deployment{seeds: %v, coupons: %d}", d.seeds, d.TotalK())
}

// SeedCostOf returns Cseed(S) under the instance's seed costs.
func (in *Instance) SeedCostOf(d *Deployment) float64 {
	t := 0.0
	for _, s := range d.Seeds() {
		t += in.SeedCost[s]
	}
	return t
}
