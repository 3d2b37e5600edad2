// Package par runs the library's index-parallel passes. Every fan-out —
// the graph's row sorts, the forward world sweep, the world cache's
// candidate batches, the pivot scan, the SSR sample build and index, and
// the solver's and campaign's candidate scoring — splits its work through
// Ranges or Each, so how work spreads over goroutines is decided here once.
// Callers write only per-index or per-range slots and merge them in index
// order, which is what keeps every result identical at any worker count;
// each caller keeps its own rule for how many workers a pass is worth.
package par

import (
	"sync"
	"sync/atomic"
)

// Ranges splits [0, n) into W = min(workers, n) contiguous ranges, the w-th
// being [n·w/W, n·(w+1)/W), and calls fn(w, lo, hi) once per range on its
// own goroutine, returning when every call has. The ranges ascend with w,
// are never empty and differ in length by at most one. When W <= 1, fn runs
// once on the caller's goroutine with the whole range; when n <= 0 it does
// not run.
func Ranges(n, workers int, fn func(w, lo, hi int)) {
	if n <= 0 {
		return
	}
	ws := min(workers, n)
	if ws <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	wg.Add(ws)
	for w := range ws {
		go func() {
			defer wg.Done()
			fn(w, n*w/ws, n*(w+1)/ws)
		}()
	}
	wg.Wait()
}

// Each handles every index in [0, n) exactly once, handing indices from a
// shared counter to W = min(workers, n) goroutines, and returns when all
// are done. newWorker runs once per goroutine, before its first index, to
// build that worker's scratch; the function it returns handles one index.
// Which worker gets an index is unspecified, so that function may write
// only state owned by its index or its worker. When W <= 1, newWorker runs
// once and every index runs in ascending order on the caller's goroutine;
// when n <= 0 nothing runs.
func Each(n, workers int, newWorker func() func(i int)) {
	if n <= 0 {
		return
	}
	ws := min(workers, n)
	if ws <= 1 {
		fn := newWorker()
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(ws)
	for range ws {
		go func() {
			defer wg.Done()
			fn := newWorker()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
