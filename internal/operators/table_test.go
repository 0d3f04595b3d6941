package operators

import (
	"math/rand"
	"testing"

	"specqp/internal/kg"
)

// TestKeySetZeroKey pins the out-of-band zero key — a real key: the packed
// binding of term ID 0 and the first wide tuple a Keyer interns — through
// every state a set passes: empty with no slots, first allocation, growth,
// and release followed by reuse.
func TestKeySetZeroKey(t *testing.T) {
	var s keySet
	if !s.add(0) {
		t.Fatal("zero key into a slotless set: reported present")
	}
	if s.slots != nil {
		t.Fatal("zero key must not draw slots")
	}
	if s.add(0) {
		t.Fatal("zero key added twice")
	}
	// First non-zero key draws the slots; the zero key must survive it.
	if !s.add(7) || s.add(0) || s.add(7) {
		t.Fatal("first allocation lost a key")
	}
	// Grow through several doublings; neither the zero key nor any earlier
	// key may be forgotten by a rehash.
	for k := kg.BindingKey(1); k <= 10*minSlots; k++ {
		s.add(k << 32)
	}
	if s.add(0) || s.add(7) {
		t.Fatal("growth lost a key")
	}
	for k := kg.BindingKey(1); k <= 10*minSlots; k++ {
		if s.add(k << 32) {
			t.Fatalf("growth lost key %d<<32", k)
		}
	}
	s.release()
	if s != (keySet{}) {
		t.Fatalf("released set is not empty: %+v", s)
	}
	// Reuse after release must see an empty set, even though its recycled
	// slots held keys a moment ago.
	for _, k := range []kg.BindingKey{0, 7, 1 << 32} {
		if !s.add(k) {
			t.Fatalf("key %#x survived release", k)
		}
	}
	s.release()
}

// TestKeySetMatchesMap is the property test against a map reference: random
// key streams — dense, sparse, packed-pair shaped and zero-heavy — across
// repeated release/reuse cycles report exactly the map's membership answers.
func TestKeySetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gens := []func() kg.BindingKey{
		func() kg.BindingKey { return kg.BindingKey(rng.Intn(64)) },
		func() kg.BindingKey { return kg.BindingKey(rng.Uint64()) },
		func() kg.BindingKey { return kg.BindingKey(rng.Intn(40)) | kg.BindingKey(rng.Intn(40))<<32 },
		func() kg.BindingKey { return kg.BindingKey(rng.Intn(3)) << 32 },
	}
	var s keySet
	for trial := 0; trial < 200; trial++ {
		gen := gens[trial%len(gens)]
		ref := map[uint64]bool{} // the reference
		for i, n := 0, rng.Intn(2000); i < n; i++ {
			k := gen()
			if got, want := s.add(k), !ref[uint64(k)]; got != want {
				t.Fatalf("trial %d op %d key %#x: add=%v, map says absent=%v", trial, i, k, got, want)
			}
			ref[uint64(k)] = true
		}
		s.release()
	}
}

// chain returns key's entries in chain order.
func chain(t *joinTable, key kg.BindingKey) []Entry {
	var out []Entry
	for i := t.first(key); i != 0; {
		n := t.node(i)
		out = append(out, n.e)
		i = n.next
	}
	return out
}

// TestJoinTableMatchesMap checks the join table against the map[key][]Entry
// it replaces: interleaved appends under random keys (the zero key among
// them), through slot and slab growth and across release/reuse, leave every
// key's chain equal to the reference slice, in insertion order.
func TestJoinTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var tab joinTable
	for trial := 0; trial < 100; trial++ {
		ref := map[uint64][]Entry{} // the reference
		keys := 1 + rng.Intn(200)
		for i, n := 0, rng.Intn(3000); i < n; i++ {
			k := kg.BindingKey(rng.Intn(keys))
			if trial%2 == 1 {
				k <<= 32 // packed-pair shape: entropy in the high half
			}
			e := Entry{Score: float64(i), Relaxed: uint32(rng.Intn(4))}
			tab.add(k, e)
			ref[uint64(k)] = append(ref[uint64(k)], e)
		}
		for k, want := range ref {
			got := chain(&tab, kg.BindingKey(k))
			if len(got) != len(want) {
				t.Fatalf("trial %d key %#x: chain of %d, want %d", trial, k, len(got), len(want))
			}
			for j := range want {
				if got[j].Score != want[j].Score || got[j].Relaxed != want[j].Relaxed {
					t.Fatalf("trial %d key %#x pos %d: %v, want %v", trial, k, j, got[j], want[j])
				}
			}
		}
		if tab.first(kg.BindingKey(keys)+1) != 0 {
			t.Fatalf("trial %d: absent key found", trial)
		}
		tab.release()
		if tab.first(0) != 0 {
			t.Fatal("released table still holds the zero key")
		}
	}
}

// TestRankJoinChainOrderKeepsRelaxedMask pins why chains must keep
// insertion order: two left entries under one join key with identical
// bindings and scores but different Relaxed masks produce join results that
// tie on score and binding, so the heap pops them in push order and the
// emitted-set keeps the first. The answer must carry the mask of the entry
// that arrived first — what map[key][]Entry's append order gave.
func TestRankJoinChainOrderKeepsRelaxedMask(t *testing.T) {
	for _, masks := range [][2]uint32{{1, 2}, {2, 1}, {0, 4}, {4, 0}} {
		b := kg.NewBinding(2)
		b[0] = 0 // join on term ID 0: the zero key
		left := &sliceStream{entries: []Entry{
			{Binding: b, Score: 0.5, Relaxed: masks[0]},
			{Binding: b, Score: 0.5, Relaxed: masks[1]},
		}}
		rb := kg.NewBinding(2)
		rb[0], rb[1] = 0, 9
		right := &sliceStream{entries: []Entry{{Binding: rb, Score: 0.25, Relaxed: 8}}}
		rj := NewRankJoin(left, right, []int{0}, nil)
		out := Drain(rj)
		Release(rj)
		if len(out) != 1 {
			t.Fatalf("masks %v: %d answers, want 1 (the tie dedups)", masks, len(out))
		}
		if want := masks[0] | 8; out[0].Relaxed != want {
			t.Fatalf("masks %v: answer mask %b, want %b (first-inserted entry's)", masks, out[0].Relaxed, want)
		}
	}
}

// TestReleaseLeavesAnswersIntact checks Release's contract: answers alias
// arenas, not the recycled tables, so a released tree's output is unchanged
// — even after a second, different join has reused the recycled state.
func TestReleaseLeavesAnswersIntact(t *testing.T) {
	st := randomOpStore(t, 77, 400)
	q := kg.NewQuery(
		kg.NewPattern(kg.Var("x"), kg.Const(kg.ID(8)), kg.Var("y")),
		kg.NewPattern(kg.Var("x"), kg.Const(kg.ID(9)), kg.Var("z")),
	)
	vs := kg.NewVarSet(q)
	build := func(p1, p2 kg.Pattern) *RankJoin {
		return NewRankJoin(NewListScan(st, vs, p1, 1, 0, nil), NewListScan(st, vs, p2, 1, 0, nil), []int{0}, nil)
	}
	first := build(q.Patterns[0], q.Patterns[1])
	got := Drain(first)
	if len(got) == 0 {
		t.Fatal("join produced nothing; test is vacuous")
	}
	snapshot := make([]Entry, len(got))
	for i, e := range got {
		snapshot[i] = Entry{Binding: e.Binding.Clone(), Score: e.Score, Relaxed: e.Relaxed}
	}
	Release(first)
	Release(first) // idempotent
	other := build(q.Patterns[1], kg.NewPattern(kg.Var("x"), kg.Const(kg.ID(10)), kg.Var("y")))
	Drain(other)
	Release(other)
	again := Drain(build(q.Patterns[0], q.Patterns[1]))
	if len(again) != len(snapshot) {
		t.Fatalf("recycled rerun: %d answers, want %d", len(again), len(snapshot))
	}
	for i := range snapshot {
		if got[i].Score != snapshot[i].Score || got[i].Relaxed != snapshot[i].Relaxed || got[i].Binding.Compare(snapshot[i].Binding) != 0 {
			t.Fatalf("answer %d changed after release: %v, was %v", i, got[i], snapshot[i])
		}
		if again[i].Score != snapshot[i].Score || again[i].Relaxed != snapshot[i].Relaxed || again[i].Binding.Compare(snapshot[i].Binding) != 0 {
			t.Fatalf("answer %d differs on the recycled rerun: %v, want %v", i, again[i], snapshot[i])
		}
	}
}
