package diffusion

// RedeemProbs computes, for an active user with k coupons whose
// out-neighbours have influence probabilities probs (descending, the
// adjacency order), the probability that the neighbour at each position
// redeems an SC.
//
// The redemption process walks positions in order; position j redeems with
// probability probs[j] provided fewer than k earlier positions redeemed.
// Hence for j < k the result is exactly probs[j] (independent edge) and for
// j >= k it is probs[j] · P(k̄) with P(k̄) the probability that at most k-1
// of the first j positions redeemed (dependent edge). P(k̄) is computed by a
// dynamic program over the distribution of the redeemed count, truncated at
// k (states >= k are absorbing: no further redemption can occur).
//
// The returned slice has len(probs) entries. k <= 0 yields all zeros.
func RedeemProbs(probs []float64, k int) []float64 {
	out := make([]float64, len(probs))
	RedeemProbsInto(out, probs, k)
	return out
}

// RedeemProbsInto is RedeemProbs writing into out, which must have
// len(probs) entries. It exists so hot paths can reuse buffers.
func RedeemProbsInto(out []float64, probs []float64, k int) {
	if len(out) != len(probs) {
		panic("diffusion: RedeemProbsInto length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	if k <= 0 || len(probs) == 0 {
		return
	}
	if k > len(probs) {
		k = len(probs)
	}
	// dist[c] = probability that exactly c coupons were redeemed so far,
	// c in [0, k]; k is absorbing. Small k — every coupon count the solvers
	// probe in their hot loops — keeps the row on the stack.
	var small [16]float64
	var dist []float64
	if k < len(small) {
		dist = small[:k+1]
	} else {
		dist = make([]float64, k+1)
	}
	dist[0] = 1
	for j, p := range probs {
		// P(redeem at j) = p · P(count < k)
		notFull := 0.0
		for c := 0; c < k; c++ {
			notFull += dist[c]
		}
		out[j] = p * notFull
		// advance the count distribution
		for c := k; c >= 1; c-- {
			dist[c] += dist[c-1] * p
			dist[c-1] *= 1 - p
		}
	}
}

// dependentFactor returns P(k̄): the probability that a user with k coupons
// still has one left when reaching position j (0-based), i.e. that at most
// k-1 of the first j neighbours redeemed. For j < k it is 1.
func dependentFactor(probs []float64, k, j int) float64 {
	if k <= 0 {
		return 0
	}
	if j < k {
		return 1
	}
	dist := make([]float64, k+1)
	dist[0] = 1
	for m := 0; m < j; m++ {
		p := probs[m]
		for c := k; c >= 1; c-- {
			dist[c] += dist[c-1] * p
			dist[c-1] *= 1 - p
		}
	}
	notFull := 0.0
	for c := 0; c < k; c++ {
		notFull += dist[c]
	}
	return notFull
}

// SCCostOf computes the paper's closed-form expected SC cost
// Csc(K(I)) = Σ_{vi ∈ I} Σ_{vj ∈ N(vi)} E[ki, csc(vj)], where
// E[ki, csc(vj)] = csc(vj)·P(e(i,j)) for independent positions and
// csc(vj)·P(e(i,j))·P(k̄i) for dependent ones. Per the paper's worked
// examples the sum is NOT scaled by the allocator's own activation
// probability (DESIGN.md fidelity note 1). The outer sum walks the
// deployment's holder list, so pricing costs O(|I|) row scans rather than a
// pass over every user; holders ascend, the order a dense scan adds them in.
func (in *Instance) SCCostOf(d *Deployment) float64 {
	total := 0.0
	scratch := make([]float64, 0, 64)
	n := int32(in.G.NumNodes())
	for _, v := range d.holders {
		if v >= n {
			break // past the instance's users, which a dense scan never reaches
		}
		k := d.K(v)
		targets, probs := in.G.OutEdges(v)
		if len(targets) == 0 {
			continue
		}
		if cap(scratch) < len(probs) {
			scratch = make([]float64, len(probs))
		}
		rp := scratch[:len(probs)]
		RedeemProbsInto(rp, probs, k)
		for j, t := range targets {
			total += in.SCCost[t] * rp[j]
		}
	}
	return total
}

// NodeSCCost returns the expected SC cost contributed by a single user
// holding k coupons — the inner sum of SCCostOf. Useful for marginal
// computations.
func (in *Instance) NodeSCCost(v int32, k int) float64 {
	if k == 0 {
		return 0
	}
	targets, probs := in.G.OutEdges(v)
	if len(targets) == 0 {
		return 0
	}
	return in.RowSCCost(v, RedeemProbs(probs, k))
}

// RowSCCost returns the expected SC cost of v's adjacency under the
// redeem-probability row rp (one entry per out-neighbour, as RedeemProbs
// returns it): NodeSCCost for a row the caller already holds.
func (in *Instance) RowSCCost(v int32, rp []float64) float64 {
	targets, _ := in.G.OutEdges(v)
	total := 0.0
	for j, t := range targets {
		total += in.SCCost[t] * rp[j]
	}
	return total
}

// TotalCost returns Cseed(S) + Csc(K) for a deployment.
func (in *Instance) TotalCost(d *Deployment) float64 {
	return in.SeedCostOf(d) + in.SCCostOf(d)
}

// StandaloneBenefit returns the exact expected benefit of deploying v as a
// lone seed with k coupons: v's own benefit plus the redemption-weighted
// benefit of its direct neighbours. Because no neighbour holds coupons the
// spread has depth one and the expectation is closed-form; the S3CA pivot
// queue is built from this quantity without Monte Carlo.
func (in *Instance) StandaloneBenefit(v int32, k int) float64 {
	b := in.Benefit[v]
	if k <= 0 {
		return b
	}
	targets, probs := in.G.OutEdges(v)
	if len(targets) == 0 {
		return b
	}
	rp := RedeemProbs(probs, k)
	for j, t := range targets {
		b += in.Benefit[t] * rp[j]
	}
	return b
}
