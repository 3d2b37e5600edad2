package pq

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"s3crm/internal/rng"
)

func TestHeapOrdering(t *testing.T) {
	var h Heap[string]
	h.Push("c", 3)
	h.Push("a", 1)
	h.Push("b", 2)
	want := []string{"a", "b", "c"}
	for _, w := range want {
		v, _, ok := h.Pop()
		if !ok || v != w {
			t.Fatalf("pop = %q, want %q", v, w)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("pop from empty heap succeeded")
	}
}

func TestHeapPropertySortsLikeSort(t *testing.T) {
	src := rng.New(5)
	f := func(seed uint64) bool {
		local := rng.New(seed)
		n := 1 + local.Intn(200)
		var h Heap[int]
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			vals[i] = local.Float64()
			h.Push(i, vals[i])
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		for i := 0; i < n; i++ {
			_, p, ok := h.Pop()
			if !ok || p != sorted[i] {
				return false
			}
		}
		return true
	}
	for i := 0; i < 50; i++ {
		if !f(src.Uint64()) {
			t.Fatalf("heap order property failed at iteration %d", i)
		}
	}
}

func TestIndexedBasics(t *testing.T) {
	h := NewIndexed(5)
	h.DecreaseKey(3, 3.0)
	h.DecreaseKey(1, 1.0)
	h.DecreaseKey(4, 4.0)
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	for _, want := range []int32{1, 3, 4} {
		k, p, ok := h.Pop()
		if !ok || k != want || p != float64(want) {
			t.Fatalf("pop = %d/%v, want %d", k, p, want)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Fatal("pop from drained heap succeeded")
	}
}

func TestIndexedDecreaseKey(t *testing.T) {
	h := NewIndexed(3)
	h.DecreaseKey(0, 10)
	h.DecreaseKey(1, 5)
	if !h.DecreaseKey(0, 1) {
		t.Fatal("decrease rejected")
	}
	if h.DecreaseKey(0, 50) {
		t.Fatal("increase accepted")
	}
	k, p, _ := h.Pop()
	if k != 0 || p != 1 {
		t.Fatalf("pop after decrease = %d/%v, want 0/1", k, p)
	}
}

func TestIndexedPropertyMatchesReference(t *testing.T) {
	src := rng.New(9)
	f := func(seed uint64) bool {
		local := rng.New(seed)
		n := 2 + local.Intn(100)
		h := NewIndexed(n)
		best := make(map[int32]float64)
		// Random sequence of decrease-key operations.
		for op := 0; op < n*3; op++ {
			k := int32(local.Intn(n))
			p := local.Float64()
			h.DecreaseKey(k, p)
			if cur, ok := best[k]; !ok || p < cur {
				best[k] = p
			}
		}
		// Popping must yield every key exactly once in priority order.
		prev := -1.0
		seen := map[int32]bool{}
		for h.Len() > 0 {
			k, p, ok := h.Pop()
			if !ok || seen[k] {
				return false
			}
			seen[k] = true
			if p < prev || p != best[k] {
				return false
			}
			prev = p
		}
		return len(seen) == len(best)
	}
	if err := quickCheck(f, 40, src); err != "" {
		t.Fatal(err)
	}
}

// quickCheck runs f over derived seeds; kept local because quick.Check
// cannot feed a custom generator without reflection gymnastics.
func quickCheck(f func(uint64) bool, n int, src *rng.Source) string {
	for i := 0; i < n; i++ {
		seed := src.Uint64()
		if !f(seed) {
			return "property failed for seed"
		}
	}
	return ""
}

// Also exercise testing/quick on the basic heap to satisfy the
// push-then-pop identity for arbitrary float slices.
func TestHeapQuickPushPop(t *testing.T) {
	f := func(vals []float64) bool {
		var h Heap[int]
		finite := vals[:0]
		for _, v := range vals {
			if v == v && v > -1e308 && v < 1e308 { // drop NaN/Inf
				finite = append(finite, v)
			}
		}
		for i, v := range finite {
			h.Push(i, v)
		}
		if h.Len() != len(finite) {
			return false
		}
		prev := math.Inf(-1)
		for range finite {
			_, p, ok := h.Pop()
			if !ok || p < prev {
				return false
			}
			prev = p
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
