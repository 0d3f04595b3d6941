package specqp

import (
	"context"
	"fmt"
	"testing"

	"specqp/internal/datagen"
)

// TestRecycledJoinStateOracle is the recycling oracle: operator join and
// dedup state goes back to shared pools when a query ends and the next query
// draws it again, so a query run after a larger one must answer exactly as
// it did before. In one engine it runs query A, then the workload's largest
// query B — buffered, then streamed and abandoned after its first answer, so
// a sharded engine's prefetch producers are still pulling when the consumer
// releases — then A again, and requires A's answers to be bit-identical.
//
// It runs on a flat engine and on a sharded engine (parallel legs behind
// Prefetch). Under -race a leg recycled while its producer still pulls it
// is a reported race; keys leaking between queries through a recycled table
// would show up as missing or reordered answers.
func TestRecycledJoinStateOracle(t *testing.T) {
	ds, err := datagen.XKG(datagen.XKGConfig{Seed: 3, Entities: 1500, Queries: 16, RelationTriples: 3000})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []Options{{}, {Shards: 4}} {
		eng := NewEngineWith(ds.Store, ds.Rules, opts)
		for _, mode := range []Mode{ModeSpecQP, ModeTriniT} {
			const k = 10
			// A is the query creating the fewest answer objects that still
			// answers; B the one creating the most.
			a, b := -1, -1
			var aObjs, bObjs int64
			for i, qs := range ds.Queries {
				res, err := eng.Query(qs.Query, k, mode)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Answers) > 0 && (a < 0 || res.MemoryObjects < aObjs) {
					a, aObjs = i, res.MemoryObjects
				}
				if b < 0 || res.MemoryObjects > bObjs {
					b, bObjs = i, res.MemoryObjects
				}
			}
			if a < 0 || aObjs >= bObjs {
				t.Fatalf("shards=%d %v: no small/large query pair (a=%d:%d b=%d:%d)", opts.Shards, mode, a, aObjs, b, bObjs)
			}
			qa, qb := ds.Queries[a].Query, ds.Queries[b].Query
			label := fmt.Sprintf("shards=%d %v A=%s B=%s", opts.Shards, mode, ds.Queries[a].Name, ds.Queries[b].Name)
			for round := 0; round < 3; round++ {
				first, err := eng.QueryContext(context.Background(), qa, k, mode)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := eng.QueryContext(context.Background(), qb, 2*k, mode); err != nil {
					t.Fatal(err)
				}
				if _, err := eng.QueryStream(context.Background(), qb, 2*k, mode, func(Answer) bool { return false }); err != nil {
					t.Fatal(err)
				}
				again, err := eng.QueryContext(context.Background(), qa, k, mode)
				if err != nil {
					t.Fatal(err)
				}
				sameAnswers(t, fmt.Sprintf("%s round %d", label, round), again.Answers, first.Answers)
				if opts.Shards == 0 && again.MemoryObjects != first.MemoryObjects {
					t.Fatalf("%s round %d: %d answer objects after B, %d before", label, round, again.MemoryObjects, first.MemoryObjects)
				}
			}
		}
	}
}
