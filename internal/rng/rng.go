// Package rng provides deterministic pseudo-random number generation for
// the simulator.
//
// Two kinds of randomness are needed by the reproduction:
//
//  1. Sequential streams (graph generation, benefit sampling) — provided by
//     a xoshiro256++ generator seeded through splitmix64, so that every
//     experiment is reproducible from a single uint64 seed.
//  2. Stateless coin flips for Monte-Carlo possible worlds — provided by
//     Coin, which hashes (seed, world, edge) into a uniform [0,1) value.
//     Because the flip for a given (world, edge) pair never depends on the
//     order of evaluation, all candidate deployments evaluated against the
//     same estimator share common random numbers, dramatically reducing the
//     variance of marginal-gain comparisons (the ΔB terms in the paper's
//     marginal redemption).
package rng

import "math"

// splitmix64 advances the state and returns the next splitmix64 output.
// It is used both for seeding xoshiro and as the mixing core of Coin.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Source is a xoshiro256++ pseudo-random generator. The zero value is not
// usable; construct with New.
type Source struct {
	s0, s1, s2, s3 uint64

	// Box–Muller generates normals in pairs; the second of a pair is
	// stashed here for the next NormFloat64 call.
	spare    float64
	hasSpare bool
}

// New returns a Source deterministically derived from seed. Distinct seeds
// yield statistically independent streams.
func New(seed uint64) *Source {
	s := &Source{}
	x := seed
	x = splitmix64(x)
	s.s0 = x
	x = splitmix64(x)
	s.s1 = x
	x = splitmix64(x)
	s.s2 = x
	x = splitmix64(x)
	s.s3 = x
	// xoshiro must not start at the all-zero state.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
	return s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform value in [0,1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill
	// here; modulo bias is negligible for n << 2^64 and the simulator only
	// draws indices bounded by graph size.
	return int(s.Uint64() % uint64(n))
}

// NormFloat64 returns a standard-normal variate using the Box–Muller
// transform. Successive calls alternate between the two values of a pair.
func (s *Source) NormFloat64() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	// Draw u1 in (0,1] to keep Log finite.
	u1 := 1.0 - s.Float64()
	u2 := s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	s.spare = r * math.Sin(theta)
	s.hasSpare = true
	return r * math.Cos(theta)
}

// Perm returns a pseudo-random permutation of [0,n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the elements addressed by swap, Fisher–Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Split derives a new independent Source; useful for giving each worker
// goroutine its own stream.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

// DeriveStream maps (seed, stream) to a new seed statistically independent
// of the input seed and of every other stream index — the serving layer's
// per-call RNG derivation: stream n of a campaign seeded s is
// DeriveStream(s, n), deterministic across runs yet decorrelated between
// calls. Distinct (seed, stream) pairs yield distinct streams with
// overwhelming probability (one splitmix64 round per word, as in New).
func DeriveStream(seed, stream uint64) uint64 {
	return splitmix64(splitmix64(seed) ^ splitmix64(stream^0xa5a5a5a55a5a5a5a))
}

// Coin is a stateless hash-based coin flipper. Flip(world, item) returns the
// same uniform value no matter how many times or in what order it is called,
// which makes Monte-Carlo evaluations of different deployments comparable
// under common random numbers.
type Coin struct {
	seed uint64
}

// NewCoin returns a Coin for the given seed.
func NewCoin(seed uint64) Coin { return Coin{seed: splitmix64(seed)} }

// Flip returns a uniform float64 in [0,1) determined by (seed, world, item).
func (c Coin) Flip(world uint64, item uint64) float64 { return c.World(world).Flip(item) }

// Live reports whether the coin for (world, item) lands below p — i.e.
// whether an edge with influence probability p is live in the given world.
func (c Coin) Live(world uint64, item uint64, p float64) bool { return c.World(world).Live(item, p) }

// WorldCoin is a Coin fixed to one world: the seed and world-mixing rounds
// of Flip are folded into one word up front, so each flip pays a single
// item round plus the final mix. Coin.Flip and Coin.Live are wrappers over
// it, so a walk that draws many items in one world gets outcomes
// bit-identical to per-call flips.
type WorldCoin struct {
	mix uint64
}

// World returns the coin of the given world.
func (c Coin) World(world uint64) WorldCoin {
	return WorldCoin{mix: c.seed ^ splitmix64(world^0xd1342543de82ef95)}
}

// Flip returns the uniform float64 in [0,1) of item in this world.
func (wc WorldCoin) Flip(item uint64) float64 {
	return float64(splitmix64(wc.mix^splitmix64(item))>>11) / (1 << 53)
}

// Live reports whether item's coin in this world lands below p. A flip
// lies in [0,1), so p ≥ 1 is always live and p ≤ 0 never is; the latter
// skips the hash. The one-expression form keeps Live within the inliner's
// budget, so a walk's per-edge draw costs no call.
func (wc WorldCoin) Live(item uint64, p float64) bool {
	return p > 0 && wc.Flip(item) < p
}

// WorldMix precomputes the per-world mixing term of Flip for worlds
// [0, n) — the factor shared by every item, hoisted so batch row fills pay
// one splitmix64 round per flip instead of three. FillRow consumes it.
func WorldMix(n int) []uint64 {
	mix := make([]uint64, n)
	for w := range mix {
		mix[w] = splitmix64(uint64(w) ^ 0xd1342543de82ef95)
	}
	return mix
}

// FillRow sets bit w of row for every world w in [0, len(worldMix)) where
// Live(w, item, p) holds. Outcomes are bit-identical to per-probe Live
// calls: the decomposition only hoists the world- and item-mixing rounds
// out of the loop. row must hold at least ⌈len(worldMix)/64⌉ words.
func (c Coin) FillRow(row []uint64, worldMix []uint64, item uint64, p float64) {
	if p <= 0 {
		return
	}
	if p >= 1 {
		for w := range worldMix {
			row[w>>6] |= 1 << (uint(w) & 63)
		}
		return
	}
	itemMix := splitmix64(item)
	for w, wm := range worldMix {
		x := splitmix64(c.seed ^ wm ^ itemMix)
		if float64(x>>11)/(1<<53) < p {
			row[w>>6] |= 1 << (uint(w) & 63)
		}
	}
}
