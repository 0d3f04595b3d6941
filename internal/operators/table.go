package operators

import (
	"math/bits"
	"sync"

	"specqp/internal/kg"
)

// This file holds the operators' per-query join and dedup state: two small
// open-addressed, linear-probing tables over kg.BindingKeys (uint64s) —
// keySet for the dedup sets, joinTable for the rank join's hash tables — and
// the capacity-class pools that recycle them, together with the rank-join
// queues, once a query's drain ends (Release). Nothing here is presized: a
// table draws its first slots on its first key and doubles through the pools
// as it fills, so a warm engine answers a repeated query without allocating
// join state at all.

// minSlots is the capacity a table or queue draws on first use.
const minSlots = 16

// slotFor spreads a key over a table of 2^(64-shift) slots by Fibonacci
// hashing: the multiplier's high product bits depend on every key bit, so
// packed (id, id) keys, whose entropy sits in two 32-bit halves, spread as
// evenly as dense interned identities.
func slotFor(k kg.BindingKey, shift uint8) int {
	return int((uint64(k) * 0x9E3779B97F4A7C15) >> shift)
}

// shiftFor is the slotFor shift of an n-slot table (n a power of two).
func shiftFor(n int) uint8 { return uint8(64 - bits.TrailingZeros(uint(n))) }

// classPool recycles slices of T by power-of-two capacity class, so a small
// query draws a small slice and never pays to clear a big query's. Slices
// travel as *[]T so that returning one to the pool allocates nothing. Every
// pooled slice is zeroed across its whole capacity.
type classPool[T any] struct {
	classes [64]sync.Pool
}

// get returns an empty slice with capacity at least n (n ≥ 1): a recycled
// one from n's class when available, a fresh power-of-two slice otherwise.
func (p *classPool[T]) get(n int) *[]T {
	c := bits.Len(uint(n - 1))
	if v := p.classes[c].Get(); v != nil {
		return v.(*[]T)
	}
	s := make([]T, 0, 1<<c)
	return &s
}

// put zeroes b — dropping every reference it holds, so a pooled slab never
// keeps a finished query's bindings alive — and files it under the largest
// class its capacity covers.
func (p *classPool[T]) put(b *[]T) {
	s := (*b)[:cap(*b)]
	clear(s)
	*b = s[:0]
	p.classes[bits.Len(uint(cap(s)))-1].Put(b)
}

// grow moves b's contents into a recycled slice of twice the capacity and
// returns b to its pool.
func (p *classPool[T]) grow(b *[]T) *[]T {
	nb := p.get(2 * cap(*b))
	*nb = append(*nb, *b...)
	p.put(b)
	return nb
}

var (
	keySlots   classPool[kg.BindingKey]
	joinSlots  classPool[joinSlot]
	joinNodes  classPool[joinNode]
	entrySlabs classPool[Entry]
)

// keySet is a set of binding keys: the dedup sets of ListScan,
// ShardedListScan, IncrementalMerge and RankJoin's emitted bindings. A zero
// slot is empty, so the zero key — a real key: the packed binding of term
// ID 0, and the first wide tuple a Keyer interns — is held out of band in
// hasZero. The zero value is an empty set that draws its slots from the pool
// on the first non-zero key; release returns them and leaves the zero value.
type keySet struct {
	slots   *[]kg.BindingKey // nil until the first non-zero key
	n       int              // non-zero keys held
	shift   uint8
	hasZero bool
}

// add inserts k and reports whether it was absent.
func (s *keySet) add(k kg.BindingKey) bool {
	if k == 0 {
		if s.hasZero {
			return false
		}
		s.hasZero = true
		return true
	}
	if s.slots == nil || 2*(s.n+1) > len(*s.slots) {
		s.grow()
	}
	slots := *s.slots
	mask := len(slots) - 1
	for i := slotFor(k, s.shift); ; i = (i + 1) & mask {
		switch slots[i] {
		case 0:
			slots[i] = k
			s.n++
			return true
		case k:
			return false
		}
	}
}

// grow rehashes into a recycled slot array of twice the size (minSlots on
// first use), keeping the load factor at most one half.
func (s *keySet) grow() {
	n := minSlots
	if s.slots != nil {
		n = 2 * len(*s.slots)
	}
	nb := keySlots.get(n)
	*nb = (*nb)[:n]
	old := s.slots
	s.slots, s.shift = nb, shiftFor(n)
	if old == nil {
		return
	}
	slots, mask := *nb, n-1
	for _, k := range *old {
		if k == 0 {
			continue
		}
		i := slotFor(k, s.shift)
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = k
	}
	keySlots.put(old)
}

// release returns the slot array to the pool and empties the set.
func (s *keySet) release() {
	if s.slots != nil {
		keySlots.put(s.slots)
	}
	*s = keySet{}
}

// joinTable is one side of a rank join's hash table: an open-addressed
// key → (first, last) slot array over a single entry slab, each key's
// entries chained through the slab by next index. Chains keep insertion
// order, so a probe visits a key's entries in exactly the order they
// arrived — the order join results are enqueued in, which fixes heap push
// order and hence every tie, answer and Relaxed mask. Node indexes are
// 1-based so that a zero slot is empty and the zero key needs no special
// case. The zero value is an empty table; release returns it to it.
type joinTable struct {
	slots *[]joinSlot // nil until the first add
	nodes *[]joinNode // the entry slab, in arrival order
	n     int         // distinct keys
	shift uint8
}

type joinSlot struct {
	key         kg.BindingKey
	first, last int32 // 1-based node indexes; first == 0 marks an empty slot
}

type joinNode struct {
	e    Entry
	next int32 // 1-based index of the key's next entry; 0 ends the chain
}

// add appends e to key's chain.
func (t *joinTable) add(key kg.BindingKey, e Entry) {
	if t.nodes == nil {
		t.nodes = joinNodes.get(minSlots)
	} else if len(*t.nodes) == cap(*t.nodes) {
		t.nodes = joinNodes.grow(t.nodes)
	}
	*t.nodes = append(*t.nodes, joinNode{e: e})
	idx := int32(len(*t.nodes))
	if t.slots == nil || 2*(t.n+1) > len(*t.slots) {
		t.grow()
	}
	slots := *t.slots
	mask := len(slots) - 1
	for i := slotFor(key, t.shift); ; i = (i + 1) & mask {
		sl := &slots[i]
		if sl.first == 0 {
			*sl = joinSlot{key: key, first: idx, last: idx}
			t.n++
			return
		}
		if sl.key == key {
			(*t.nodes)[sl.last-1].next = idx
			sl.last = idx
			return
		}
	}
}

// first returns the index of key's first entry, or 0 when the key is absent.
// Walk the chain with node(i).next.
func (t *joinTable) first(key kg.BindingKey) int32 {
	if t.slots == nil {
		return 0
	}
	slots := *t.slots
	mask := len(slots) - 1
	for i := slotFor(key, t.shift); ; i = (i + 1) & mask {
		sl := &slots[i]
		if sl.first == 0 {
			return 0
		}
		if sl.key == key {
			return sl.first
		}
	}
}

// node returns the entry slab's node at 1-based index i.
func (t *joinTable) node(i int32) *joinNode { return &(*t.nodes)[i-1] }

// grow rehashes the slot array into a recycled one of twice the size
// (minSlots on first use). The slab is untouched: chains are index-linked.
func (t *joinTable) grow() {
	n := minSlots
	if t.slots != nil {
		n = 2 * len(*t.slots)
	}
	nb := joinSlots.get(n)
	*nb = (*nb)[:n]
	old := t.slots
	t.slots, t.shift = nb, shiftFor(n)
	if old == nil {
		return
	}
	slots, mask := *nb, n-1
	for _, sl := range *old {
		if sl.first == 0 {
			continue
		}
		i := slotFor(sl.key, t.shift)
		for slots[i].first != 0 {
			i = (i + 1) & mask
		}
		slots[i] = sl
	}
	joinSlots.put(old)
}

// release returns the slot array and the slab to their pools and empties
// the table.
func (t *joinTable) release() {
	if t.slots != nil {
		joinSlots.put(t.slots)
	}
	if t.nodes != nil {
		joinNodes.put(t.nodes)
	}
	*t = joinTable{}
}

// Release returns the join and dedup state of the operator tree rooted at s
// — hash tables, dedup sets and rank-join queues — to the package pools, for
// the next query to reuse. Call it once the drain has ended (and after
// TraceTree, on traced runs); the tree must not be pulled again. Bindings
// are not recycled: answers alias the operators' arenas, so every entry the
// tree already emitted stays valid.
//
// A Prefetch owns the leg it wraps — its producer goroutine may still be
// pulling — so Release stops at the seam and the producer releases the leg
// itself when it exits.
func Release(s Stream) {
	switch v := s.(type) {
	case *ListScan:
		if v.seen != nil {
			v.seen.release()
		}
	case *ShardedListScan:
		for _, sub := range v.subs {
			Release(sub)
		}
		if v.seen != nil {
			v.seen.release()
		}
	case *IncrementalMerge:
		for _, in := range v.inputs {
			Release(in)
		}
		v.seen.release()
	case *RankJoin:
		Release(v.left)
		Release(v.right)
		v.leftTab.release()
		v.rightTab.release()
		v.emitted.release()
		if v.queue != nil {
			entrySlabs.put(v.queue)
			v.queue = nil
		}
	}
}
