package par

import (
	"bytes"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

var (
	sizes   = []int{0, 1, 2, 3, 7, 64, 1000}
	workers = []int{-1, 0, 1, 2, 3, 7, 2000}
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// fanOut is the number of goroutines a pass over n indices with w workers
// may use: one, run inline, unless both exceed one.
func fanOut(n, w int) int { return max(1, min(n, w)) }

func TestRanges(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			type span struct{ w, lo, hi int }
			var mu sync.Mutex
			var spans []span
			visits := make([]atomic.Int32, n)
			caller, inline := goid(), true
			Ranges(n, w, func(k, lo, hi int) {
				for i := lo; i < hi; i++ {
					visits[i].Add(1)
				}
				mu.Lock()
				spans = append(spans, span{k, lo, hi})
				inline = inline && goid() == caller
				mu.Unlock()
			})
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, w, i, c)
				}
			}
			if n == 0 {
				if len(spans) != 0 {
					t.Fatalf("n=0 workers=%d: fn ran %d times", w, len(spans))
				}
				continue
			}
			ws := fanOut(n, w)
			if len(spans) != ws {
				t.Fatalf("n=%d workers=%d: %d ranges, want %d", n, w, len(spans), ws)
			}
			slices.SortFunc(spans, func(a, b span) int { return a.w - b.w })
			for k, s := range spans {
				if s.w != k || s.lo != n*k/ws || s.hi != n*(k+1)/ws {
					t.Fatalf("n=%d workers=%d: range %d is w=%d [%d,%d), want [%d,%d)",
						n, w, k, s.w, s.lo, s.hi, n*k/ws, n*(k+1)/ws)
				}
				if s.hi <= s.lo {
					t.Fatalf("n=%d workers=%d: range %d empty", n, w, k)
				}
				if d := (s.hi - s.lo) - (spans[0].hi - spans[0].lo); d < -1 || d > 1 {
					t.Fatalf("n=%d workers=%d: range lengths %d and %d differ by more than one",
						n, w, spans[0].hi-spans[0].lo, s.hi-s.lo)
				}
			}
			if ws == 1 && !inline {
				t.Fatalf("n=%d workers=%d: fn left the caller's goroutine", n, w)
			}
		}
	}
}

func TestEach(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			visits := make([]atomic.Int32, n)
			var built atomic.Int32
			var offCaller atomic.Bool
			caller := goid()
			Each(n, w, func() func(int) {
				built.Add(1)
				return func(i int) {
					visits[i].Add(1)
					if goid() != caller {
						offCaller.Store(true)
					}
				}
			})
			for i := range visits {
				if c := visits[i].Load(); c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, w, i, c)
				}
			}
			limit := 0
			if n > 0 {
				limit = fanOut(n, w)
			}
			if b := int(built.Load()); b > limit {
				t.Fatalf("n=%d workers=%d: newWorker ran %d times, at most %d allowed", n, w, b, limit)
			}
			if limit == 1 && offCaller.Load() {
				t.Fatalf("n=%d workers=%d: an index ran off the caller's goroutine", n, w)
			}
		}
	}
}
