package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d vs %d", i, got, want)
		}
	}
}

func TestNewDistinctSeeds(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for distinct seeds collided %d/100 times", same)
	}
}

func TestZeroSeedUsable(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 95 {
		t.Fatalf("seed 0 stream looks degenerate: %d distinct of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(7)
	for i := 0; i < 100000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn(10) value %d frequency %d far from uniform", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(5)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	s := New(13)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("shuffle changed contents: sum %d -> %d", sum, got)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(21)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split stream collided %d/100 times", same)
	}
}

func TestCoinDeterministic(t *testing.T) {
	c := NewCoin(99)
	f := func(world, item uint64) bool {
		return c.Flip(world, item) == c.Flip(world, item)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinRange(t *testing.T) {
	c := NewCoin(123)
	f := func(world, item uint64) bool {
		v := c.Flip(world, item)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCoinUniform(t *testing.T) {
	c := NewCoin(7)
	const n = 100000
	hits := 0
	for i := uint64(0); i < n; i++ {
		if c.Flip(i, i*31+7) < 0.3 {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Coin hit rate %v, want ~0.3", frac)
	}
}

func TestCoinLiveBoundaries(t *testing.T) {
	c := NewCoin(1)
	for w := uint64(0); w < 100; w++ {
		if c.Live(w, 5, 0) {
			t.Fatal("Live with p=0 returned true")
		}
		if !c.Live(w, 5, 1) {
			t.Fatal("Live with p=1 returned false")
		}
		if c.Live(w, 5, -0.5) {
			t.Fatal("Live with negative p returned true")
		}
		if !c.Live(w, 5, 1.5) {
			t.Fatal("Live with p>1 returned false")
		}
	}
}

func TestCoinSeedsDiffer(t *testing.T) {
	a, b := NewCoin(1), NewCoin(2)
	same := 0
	for i := uint64(0); i < 1000; i++ {
		if a.Flip(0, i) == b.Flip(0, i) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("coins for distinct seeds agreed %d/1000 times", same)
	}
}

func TestCoinWorldsDiffer(t *testing.T) {
	c := NewCoin(5)
	// The flip for the same item across worlds must vary: count how often
	// item 3 is live at p=0.5 across many worlds.
	live := 0
	for w := uint64(0); w < 10000; w++ {
		if c.Live(w, 3, 0.5) {
			live++
		}
	}
	if live < 4500 || live > 5500 {
		t.Fatalf("item liveness across worlds = %d/10000, want ~5000", live)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkCoinFlip(b *testing.B) {
	c := NewCoin(1)
	for i := 0; i < b.N; i++ {
		_ = c.Flip(uint64(i), uint64(i*7))
	}
}

// TestWorldCoinMatchesCoin checks the per-world coin against Coin.Flip,
// Coin.Live and the coin hash spelled out round by round, over random
// (world, item, p) — p drawn from [-0.5, 1.5) so both clamps are hit.
func TestWorldCoinMatchesCoin(t *testing.T) {
	src := New(17)
	for _, seed := range []uint64{0, 1, 77, 1 << 63} {
		c := NewCoin(seed)
		for i := 0; i < 20000; i++ {
			world, item := src.Uint64()>>src.Intn(64), src.Uint64()>>src.Intn(64)
			p := 2*src.Float64() - 0.5
			if i%97 == 0 {
				p = float64(i%3) / 2 // exact 0, 0.5 and 1
			}
			x := splitmix64(splitmix64(seed) ^ splitmix64(world^0xd1342543de82ef95) ^ splitmix64(item))
			ref := float64(x>>11) / (1 << 53)
			wc := c.World(world)
			if got := wc.Flip(item); got != ref || c.Flip(world, item) != ref {
				t.Fatalf("seed %d world %d item %d: World.Flip %v, Flip %v, reference %v",
					seed, world, item, got, c.Flip(world, item), ref)
			}
			want := p >= 1 || (p > 0 && ref < p)
			if got := wc.Live(item, p); got != want || c.Live(world, item, p) != want {
				t.Fatalf("seed %d world %d item %d p %v: World.Live %v, Live %v, reference %v",
					seed, world, item, p, got, c.Live(world, item, p), want)
			}
		}
	}
}
