package operators

import "specqp/internal/kg"

// arenaChunkEntries is the number of bindings each arena slab holds. Large
// enough to amortise slab allocation to noise, small enough that a scan over
// a short list does not over-allocate.
const arenaChunkEntries = 256

// bindingArena hands out Binding clones backed by shared slabs, replacing
// the per-emitted-entry heap allocation with one allocation per
// arenaChunkEntries entries. Arenas are never rewound or recycled: the
// bindings they hand out flow into query answers, which outlive the
// operator tree.
type bindingArena struct {
	chunks [][]kg.ID // every slab allocated so far
	ci     int       // slab currently being filled
	off    int       // filled prefix of chunks[ci]
}

// clone copies b into the arena and returns the copy, capacity-clamped so a
// caller's append can never clobber a neighbouring binding.
func (a *bindingArena) clone(b kg.Binding) kg.Binding {
	n := len(b)
	if n == 0 {
		return kg.Binding{}
	}
	if len(a.chunks) == 0 {
		a.chunks = append(a.chunks, make([]kg.ID, n*arenaChunkEntries))
	}
	if a.off+n > len(a.chunks[a.ci]) {
		a.ci++
		a.off = 0
		if a.ci == len(a.chunks) {
			a.chunks = append(a.chunks, make([]kg.ID, n*arenaChunkEntries))
		}
	}
	dst := a.chunks[a.ci][a.off : a.off+n : a.off+n]
	copy(dst, b)
	a.off += n
	return kg.Binding(dst)
}

// merge clones l and overlays r's bound positions — Binding.Merge without
// the per-call allocation.
func (a *bindingArena) merge(l, r kg.Binding) kg.Binding {
	m := a.clone(l)
	for i, v := range r {
		if v != kg.NoID {
			m[i] = v
		}
	}
	return m
}

// bytes reports the arena's total slab footprint — the traced execution's
// arena-bytes statistic. Only the owning operator's goroutine calls it.
func (a *bindingArena) bytes() int64 {
	var n int64
	for _, ch := range a.chunks {
		n += int64(len(ch))
	}
	return n * 8
}

// The operator queues are hand-rolled binary max-heaps rather than
// container/heap adapters because heap.Push/Pop box every element in an
// interface{} — one heap allocation per buffered join result — and the
// interface indirection defeats inlining of the comparison. One generic
// implementation serves both element types (join-result Entries and k-way
// merge heads); ordering comes from the element's heapLess method.

// heapLesser orders heap elements; x.heapLess(y) means x sorts strictly
// before (above) y.
type heapLesser[T any] interface{ heapLess(T) bool }

// heapLess orders entries by score descending, with Binding.Compare as the
// deterministic tie-break.
func (e Entry) heapLess(o Entry) bool {
	if e.Score != o.Score {
		return e.Score > o.Score
	}
	return e.Binding.Compare(o.Binding) < 0
}

// heapPush adds x, sifting it up to its heap position.
func heapPush[T heapLesser[T]](h *[]T, x T) {
	*h = append(*h, x)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !q[i].heapLess(q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// heapFixRoot restores the heap property after the root was replaced in
// place (the k-way merge's advance-the-winning-input step).
func heapFixRoot[T heapLesser[T]](q []T) {
	n := len(q)
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && q[l].heapLess(q[s]) {
			s = l
		}
		if r < n && q[r].heapLess(q[s]) {
			s = r
		}
		if s == i {
			return
		}
		q[i], q[s] = q[s], q[i]
		i = s
	}
}

// heapPop removes and returns the best element, zeroing the vacated slot so
// no binding is retained through the slice's spare capacity.
func heapPop[T heapLesser[T]](h *[]T) T {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	var zero T
	q[n] = zero
	q = q[:n]
	*h = q
	heapFixRoot(q)
	return top
}
