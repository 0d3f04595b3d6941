package operators_test

import (
	"context"
	"testing"

	"specqp/internal/datagen"
	"specqp/internal/exec"
	"specqp/internal/planner"
	"specqp/internal/stats"
)

// specQPWarmAllocs is the steady-state allocation count of one repeated
// Spec-QP execution in TestSpecQPWarmQueryAllocs. With join and dedup state
// recycled, what is left is per-query construction — about 45 scans (three
// relaxed patterns with their rules), each a struct, a scratch binding and
// a first arena slab, plus the merges, joins, keyers, variable set and
// answer slice: 306–309 per run, the spread coming from hash-seed-dependent
// overflow buckets in the wide-tuple interner's map and from pool refills
// after a GC. Map-backed, unrecycled tables made the same run cost 1425; a
// table that stops being recycled shows up here at once.
const specQPWarmAllocs = 320

// TestSpecQPWarmQueryAllocs pins a warm, repeated Spec-QP query's
// allocations per run: the query plans relaxations (an Incremental Merge per
// singleton, rank joins above), and after a warm-up run every hash table,
// dedup set and rank-join queue it needs comes back out of the pools.
func TestSpecQPWarmQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of returned objects")
	}
	ds, err := datagen.XKG(datagen.XKGConfig{Seed: 1, Entities: 1500, Queries: 16, RelationTriples: 3000})
	if err != nil {
		t.Fatal(err)
	}
	pl := planner.New(stats.NewCatalog(ds.Store, 2, nil), ds.Rules)
	ex := exec.New(ds.Store, ds.Rules)
	var p planner.Plan
	for _, qs := range ds.Queries {
		if c := pl.Plan(qs.Query, 10); len(c.Singletons) > 0 && len(c.Query.Patterns) >= 3 {
			p = c
			break
		}
	}
	if len(p.Singletons) == 0 {
		t.Fatal("no three-pattern query with a relaxed pattern in the workload")
	}
	ctx := context.Background()
	run := func() {
		if res, err := ex.RunContext(ctx, p); err != nil || len(res.Answers) == 0 {
			t.Fatalf("run: %d answers, err %v", len(res.Answers), err)
		}
	}
	run() // warm the pools
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("warm Spec-QP query: %v allocs per run (%d patterns, %d relaxed)", allocs, len(p.Query.Patterns), len(p.Singletons))
	if allocs > specQPWarmAllocs {
		t.Fatalf("warm Spec-QP query: %v allocs per run, want <= %d", allocs, specQPWarmAllocs)
	}
}
