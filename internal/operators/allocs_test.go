package operators

import (
	"fmt"
	"testing"

	"specqp/internal/kg"
)

// dupFreeStore builds a store with no duplicate (s,p,o) triples, so scans
// over patterns whose variables are all in the query's variable set qualify
// for the dedup-free fast path.
func dupFreeStore(t testing.TB) *kg.Store {
	t.Helper()
	st := kg.NewStore(nil)
	for i := 0; i < 64; i++ {
		s := []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8"}[i%8]
		o := []string{"A", "B", "C", "D"}[(i/8)%4]
		p := []string{"type", "likes"}[(i/32)%2]
		if err := st.AddSPO(s, p, o, float64(100-i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	if st.HasDuplicates() {
		t.Fatal("test store unexpectedly has duplicate triples")
	}
	return st
}

// rescan restarts a drained scan over its own list, arena slabs and dedup
// slots. Queries never replay a scan — each builds its own and releases its
// tables afterwards — so this lives in the tests: it lets the steady-state
// guards below measure Next alone, the per-candidate and per-emit path that
// must not allocate once slabs and slots exist.
func rescan(s *ListScan) {
	s.pos, s.last = 0, s.top
	s.arena.ci, s.arena.off = 0, 0
	if s.seen != nil {
		forgetKeys(s.seen)
	}
}

// rescanSharded is rescan for the merged per-shard scan.
func rescanSharded(s *ShardedListScan) {
	for _, sub := range s.subs {
		rescan(sub)
	}
	s.heads = s.heads[:0]
	s.primed, s.last = false, s.top
	if s.seen != nil {
		forgetKeys(s.seen)
	}
}

// forgetKeys empties a key set in place, keeping its slots.
func forgetKeys(ks *keySet) {
	if ks.slots != nil {
		clear(*ks.slots)
	}
	ks.n, ks.hasZero = 0, false
}

// TestListScanNextZeroAllocs is the acceptance-criterion guard: on a
// duplicate-free pattern, the scan's steady state (drain, rescan, drain
// again) performs zero heap allocations — the scratch binding, compiled
// binder and slab arena leave nothing to allocate per candidate or per
// emitted entry.
func TestListScanNextZeroAllocs(t *testing.T) {
	st := dupFreeStore(t)
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	// First pass sizes the arena slabs.
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		rescan(s)
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state scan: %v allocs per drain, want 0", allocs)
	}
}

// TestListScanDedupPathSteadyAllocs pins the dedup path too: a store with
// duplicate triples needs the seen set, but after the first drain sizes set,
// keyer and arena, rescans stay allocation-free (packed keys, reused slabs).
func TestListScanDedupPathSteadyAllocs(t *testing.T) {
	st := kg.NewStore(nil)
	for i := 0; i < 16; i++ {
		if err := st.AddSPO("e", "type", []string{"A", "B"}[i%2], float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Freeze()
	if !st.HasDuplicates() {
		t.Fatal("test store should have duplicate triples")
	}
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		rescan(s)
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state dedup scan: %v allocs per drain, want 0", allocs)
	}
}

// TestLiveStoreScanZeroAllocsWithEmptyHead extends the acceptance guard to
// the live-ingest layer: a store that has been mutated through Insert and
// then compacted (empty head attached to the frozen segment) must serve the
// same zero-allocation scan steady state as a store frozen once — the
// snapshot indirection and the head-overlay plumbing cost nothing when the
// head is empty.
func TestLiveStoreScanZeroAllocsWithEmptyHead(t *testing.T) {
	st := dupFreeStore(t)
	// Mutate live with more duplicate-free triples, then compact so the head
	// is empty again.
	for i := 0; i < 32; i++ {
		s := []string{"f1", "f2", "f3", "f4"}[i%4]
		o := fmt.Sprintf("E%d", i/4)
		if err := st.InsertSPO(s, "type", o, float64(200-i)); err != nil {
			t.Fatal(err)
		}
	}
	st.Compact()
	if st.HeadLen() != 0 {
		t.Fatalf("head holds %d triples after Compact", st.HeadLen())
	}
	if st.HasDuplicates() {
		t.Fatal("live inserts unexpectedly created duplicates")
	}
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	if allocs := testing.AllocsPerRun(100, func() {
		if len(st.MatchList(pat)) == 0 {
			t.Fatal("empty match list")
		}
	}); allocs != 0 {
		t.Fatalf("compacted-store MatchList: %v allocs, want 0", allocs)
	}
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		rescan(s)
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state scan over compacted live store: %v allocs per drain, want 0", allocs)
	}
}

// TestMutatedStoreScanZeroAllocsAfterCompact extends the empty-head guard to
// full mutability: a store that has absorbed deletes and latest-wins updates
// and then compacted (tombstones GC'd, dead rows dropped) must serve the same
// zero-allocation MatchList and scan steady state — the liveness filtering
// that deletes introduce costs nothing once no tombstone is pending.
func TestMutatedStoreScanZeroAllocsAfterCompact(t *testing.T) {
	st := dupFreeStore(t)
	for i := 0; i < 32; i++ {
		s := []string{"f1", "f2", "f3", "f4"}[i%4]
		o := fmt.Sprintf("E%d", i/4)
		if err := st.InsertSPO(s, "type", o, float64(200-i)); err != nil {
			t.Fatal(err)
		}
	}
	// Retract a frozen-segment fact and a head fact, re-score another.
	d := st.Dict()
	del := func(s, p, o string) {
		t.Helper()
		if _, err := st.Delete(d.Encode(s), d.Encode("type"), d.Encode(o)); err != nil {
			t.Fatal(err)
		}
	}
	del("e1", "type", "A")
	del("f2", "type", "E3")
	if err := st.Update(kg.Triple{S: d.Encode("e2"), P: d.Encode("type"), O: d.Encode("B"), Score: 77}); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	if st.Tombstones() != 0 || st.HeadLen() != 0 {
		t.Fatalf("Compact left %d tombstones, %d head triples", st.Tombstones(), st.HeadLen())
	}
	if st.HasDuplicates() {
		t.Fatal("mutations unexpectedly created duplicates")
	}
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	if allocs := testing.AllocsPerRun(100, func() {
		if len(st.MatchList(pat)) == 0 {
			t.Fatal("empty match list")
		}
	}); allocs != 0 {
		t.Fatalf("post-delete compacted MatchList: %v allocs, want 0", allocs)
	}
	vs := kg.NewVarSet(kg.NewQuery(pat))
	s := NewListScan(st, vs, pat, 1, 0, nil)
	for {
		if _, ok := s.Next(); !ok {
			break
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		rescan(s)
		for {
			if _, ok := s.Next(); !ok {
				return
			}
		}
	}); allocs != 0 {
		t.Fatalf("steady-state scan over mutated compacted store: %v allocs per drain, want 0", allocs)
	}
}

// TestListScanSkipsDedupMap asserts the fast-path predicate itself: no seen
// map on provably duplicate-free patterns, a seen map as soon as duplicates
// or out-of-varset variables make one necessary.
func TestListScanSkipsDedupMap(t *testing.T) {
	st := dupFreeStore(t)
	ty, _ := st.Dict().Lookup("type")
	pat := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("o"))
	vs := kg.NewVarSet(kg.NewQuery(pat))
	if s := NewListScan(st, vs, pat, 1, 0, nil); s.seen != nil {
		t.Fatal("duplicate-free pattern should not carry a dedup map")
	}
	// A pattern variable outside the query's variable set collapses
	// distinct triples onto one binding — dedup must be on.
	fresh := kg.NewPattern(kg.Var("s"), kg.Const(ty), kg.Var("zzz_not_in_query"))
	if s := NewListScan(st, vs, fresh, 1, 0, nil); s.seen == nil {
		t.Fatal("out-of-varset variable requires the dedup map")
	}
	// Semantics stay correct: the fresh-var scan dedups to distinct subjects.
	es := Drain(NewListScan(st, vs, fresh, 1, 0, nil))
	subjects := map[kg.ID]bool{}
	for _, e := range es {
		if subjects[e.Binding[0]] {
			t.Fatal("fresh-var scan emitted a duplicate binding")
		}
		subjects[e.Binding[0]] = true
	}
}
