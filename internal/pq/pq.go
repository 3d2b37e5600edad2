// Package pq provides small typed priority queues used across the
// reproduction: a generic binary heap keyed by float64 priority and an
// indexed variant supporting decrease-key, the shape Dijkstra and lazy
// greedy (CELF) loops need.
package pq

// Heap is a binary heap of items ordered by ascending priority (use
// negated priorities for max-heap behaviour). The zero value is ready to
// use.
type Heap[T any] struct {
	items []entry[T]
}

type entry[T any] struct {
	value    T
	priority float64
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts value with the given priority.
func (h *Heap[T]) Push(value T, priority float64) {
	h.items = append(h.items, entry[T]{value: value, priority: priority})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the item with the smallest priority. The boolean
// is false when the heap is empty.
func (h *Heap[T]) Pop() (T, float64, bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, 0, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if len(h.items) > 0 {
		h.down(0)
	}
	return top.value, top.priority, true
}

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].priority <= h.items[i].priority {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.items[left].priority < h.items[smallest].priority {
			smallest = left
		}
		if right < n && h.items[right].priority < h.items[smallest].priority {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// Indexed is a min-heap over int32 keys in [0, n) with decrease-key — the
// shape Dijkstra and lazy greedy (CELF) loops need. Each key may appear at
// most once. Equal priorities order by ascending key, so pop order is fully
// deterministic — the CELF ID loop relies on this to reproduce the
// exhaustive sweep's lowest-id tie-break.
type Indexed struct {
	keys     []int32   // heap order
	priority []float64 // by key
	pos      []int32   // key → heap index, -1 when absent
}

// NewIndexed returns an indexed heap over keys [0, n).
func NewIndexed(n int) *Indexed {
	pos := make([]int32, n)
	for i := range pos {
		pos[i] = -1
	}
	return &Indexed{priority: make([]float64, n), pos: pos}
}

// Len returns the number of queued keys.
func (h *Indexed) Len() int { return len(h.keys) }

// DecreaseKey inserts key with the given priority, or lowers its existing
// priority. Raising an existing priority is ignored (Dijkstra never needs
// it); the boolean reports whether the queue changed.
func (h *Indexed) DecreaseKey(key int32, priority float64) bool {
	if h.pos[key] < 0 {
		h.priority[key] = priority
		h.pos[key] = int32(len(h.keys))
		h.keys = append(h.keys, key)
		h.up(len(h.keys) - 1)
		return true
	}
	if priority >= h.priority[key] {
		return false
	}
	h.priority[key] = priority
	h.up(int(h.pos[key]))
	return true
}

// Pop removes and returns the key with the smallest priority.
func (h *Indexed) Pop() (int32, float64, bool) {
	if len(h.keys) == 0 {
		return 0, 0, false
	}
	top := h.keys[0]
	p := h.priority[top]
	last := len(h.keys) - 1
	h.swap(0, last)
	h.keys = h.keys[:last]
	h.pos[top] = -1
	if len(h.keys) > 0 {
		h.down(0)
	}
	return top, p, true
}

func (h *Indexed) less(i, j int) bool {
	a, b := h.keys[i], h.keys[j]
	if h.priority[a] != h.priority[b] {
		return h.priority[a] < h.priority[b]
	}
	return a < b
}

func (h *Indexed) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i]] = int32(i)
	h.pos[h.keys[j]] = int32(j)
}

func (h *Indexed) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Indexed) down(i int) {
	n := len(h.keys)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && h.less(left, smallest) {
			smallest = left
		}
		if right < n && h.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
