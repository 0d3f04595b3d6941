// Package exec executes query plans over the kg store using the operators
// package. It provides the three engines the evaluation compares:
//
//   - TriniT: the non-speculative baseline — every triple pattern and all of
//     its relaxations flow through an Incremental Merge, joined by rank joins
//     (Section 2.1, Figure 2);
//   - Spec-QP: the speculative plan — the join group is executed as left-deep
//     rank joins over the original patterns' sorted lists, only the
//     singletons get Incremental Merges (Section 3.2.2, Figure 5);
//   - Naive: evaluate every relaxed query completely, merge, sort, cut at k
//     (the strawman costed at 48 queries in the paper's Introduction).
package exec

import (
	"sort"
	"sync"
	"time"

	"specqp/internal/kg"
	"specqp/internal/operators"
	"specqp/internal/planner"
	"specqp/internal/relax"
	"specqp/internal/trace"
)

// Result carries an execution's answers and its efficiency metrics.
type Result struct {
	Answers []kg.Answer
	// MemoryObjects is the paper's memory metric: answer objects created by
	// the operators during this execution.
	MemoryObjects int64
	// PlanTime is the speculative planning overhead (zero for TriniT/Naive).
	PlanTime time.Duration
	// ExecTime is the operator execution time.
	ExecTime time.Duration
	// Plan is the executed plan.
	Plan planner.Plan
	// Trace is the per-operator execution trace — nil unless the run was
	// traced (RunContextTraced); untraced runs pay nothing for it.
	Trace *trace.Trace
}

// Executor runs plans against one store + rule set.
type Executor struct {
	Store kg.Graph
	Rules *relax.RuleSet
	// Parallel executes independent join legs concurrently: legs are
	// constructed on separate goroutines (cardinality probes, match-list and
	// chain-relaxation materialisation overlap), and each leg stream is
	// wrapped in an order-preserving Prefetch so leg production overlaps the
	// rank join's consumption. Answers are bit-identical to sequential
	// execution — Prefetch is observationally identical to its inner stream —
	// but Result.MemoryObjects may exceed the sequential count: prefetched
	// entries the top-k cutoff never consumes are still created and counted.
	Parallel bool
}

// New returns an Executor.
func New(st kg.Graph, rs *relax.RuleSet) *Executor {
	return &Executor{Store: st, Rules: rs}
}

// leg is one independent input pipeline of the left-deep join.
type leg struct {
	stream operators.Stream
	vars   map[int]bool
	card   int
	single bool
}

// buildLeg constructs the pipeline for pattern index i of the plan: a plain
// sorted scan for join-group patterns, an Incremental Merge over the original
// scan plus one weighted scan per relaxation rule for singletons. g is the
// pinned snapshot shared by every leg of the tree.
func (ex *Executor) buildLeg(g kg.Graph, q kg.Query, vs *kg.VarSet, i int, single bool, c *operators.Counter) leg {
	pat := q.Patterns[i]
	if !single {
		return leg{
			stream: operators.NewPatternScan(g, vs, pat, 1, 0, c),
			vars:   operators.PatternBoundVars(vs, pat),
			card:   g.Cardinality(pat),
		}
	}
	mask := uint32(1) << uint(i)
	inputs := []operators.Stream{operators.NewPatternScan(g, vs, pat, 1, 0, c)}
	card := g.Cardinality(pat)
	for _, r := range ex.Rules.For(pat) {
		if r.IsChain() {
			matches := relax.ChainMatches(g, relax.ApplyChain(r, pat), vs)
			inputs = append(inputs, operators.NewAnswerScan(matches, r.Weight, mask, c))
			card += len(matches)
			continue
		}
		rp := relax.Apply(r, pat)
		inputs = append(inputs, operators.NewPatternScan(g, vs, rp, r.Weight, mask, c))
		card += g.Cardinality(rp)
	}
	return leg{
		stream: operators.NewIncrementalMerge(inputs, c),
		vars:   operators.PatternBoundVars(vs, pat),
		card:   card,
		single: true,
	}
}

// buildStream assembles the operator tree for a plan and returns the root
// stream plus a stop function releasing any background prefetchers (call it
// once the stream will no longer be consumed). The join order is join group
// first (cheapest pattern first), then singletons by ascending cardinality —
// a deterministic left-deep order that keeps intermediate results small,
// independent of construction concurrency.
func (ex *Executor) buildStream(p planner.Plan, c *operators.Counter) (operators.Stream, *kg.VarSet, func()) {
	q := p.Query
	vs := kg.NewVarSet(q)

	// One pinned snapshot serves the entire operator tree: every scan,
	// cardinality probe and normalisation constant — across all legs, even
	// when legs are built concurrently — reads the same content version, so
	// a query racing live inserts answers for exactly one store state.
	g := ex.Store.Pin()

	legs := make([]leg, len(p.JoinGroup)+len(p.Singletons))
	build := func(slot int, patIdx int, single bool) {
		legs[slot] = ex.buildLeg(g, q, vs, patIdx, single, c)
	}
	if c.Tracing() {
		// Traced executions additionally stamp each leg's construction wall
		// time on its root trace node; the untraced path takes no time.Now
		// calls and builds the exact same closures.
		inner := build
		build = func(slot int, patIdx int, single bool) {
			t0 := time.Now()
			inner(slot, patIdx, single)
			operators.StampBuild(legs[slot].stream, time.Since(t0).Microseconds())
		}
	}
	if ex.Parallel && len(legs) > 1 {
		var wg sync.WaitGroup
		for slot, i := range p.JoinGroup {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				build(slot, i, false)
			}(slot, i)
		}
		for off, i := range p.Singletons {
			wg.Add(1)
			go func(slot, i int) {
				defer wg.Done()
				build(slot, i, true)
			}(len(p.JoinGroup)+off, i)
		}
		wg.Wait()
	} else {
		for slot, i := range p.JoinGroup {
			build(slot, i, false)
		}
		for off, i := range p.Singletons {
			build(len(p.JoinGroup)+off, i, true)
		}
	}

	// Deterministic order: join-group legs first, each group sorted by
	// ascending cardinality.
	sort.SliceStable(legs, func(a, b int) bool {
		if legs[a].single != legs[b].single {
			return !legs[a].single
		}
		return legs[a].card < legs[b].card
	})

	streams := make([]operators.Stream, len(legs))
	vars := make([]map[int]bool, len(legs))
	for i, l := range legs {
		streams[i], vars[i] = l.stream, l.vars
	}
	stop := func() {}
	if ex.Parallel && len(streams) > 1 {
		stopCh := make(chan struct{})
		var once sync.Once
		stop = func() { once.Do(func() { close(stopCh) }) }
		for i := range streams {
			streams[i] = operators.NewPrefetch(streams[i], operators.DefaultPrefetchDepth, stopCh)
		}
	}
	return operators.LeftDeep(streams, vars, c), vs, stop
}

// Run executes plan p and returns the top-k answers (k from the plan).
func (ex *Executor) Run(p planner.Plan) Result {
	c := &operators.Counter{}
	start := time.Now()
	root, _, stop := ex.buildStream(p, c)
	// Deferred, not inline: a panic out of the drain must still release the
	// legs' prefetch goroutines, or each one stays blocked on its buffer
	// send for the process lifetime.
	defer stop()
	entries := operators.DrainK(root, p.K)
	operators.Release(root)
	elapsed := time.Since(start)

	answers := make([]kg.Answer, len(entries))
	for i, e := range entries {
		answers[i] = kg.Answer{Binding: e.Binding, Score: e.Score, Relaxed: e.Relaxed}
	}
	return Result{
		Answers:       answers,
		MemoryObjects: c.Value(),
		ExecTime:      elapsed,
		Plan:          p,
	}
}

// TriniT executes q with the non-speculative baseline plan.
func (ex *Executor) TriniT(q kg.Query, k int) Result {
	return ex.Run(planner.TriniTPlan(q, k))
}

// Exact executes q with no relaxations at all: every pattern joins as a
// plain sorted scan, so the result is the exact top-k of the unrelaxed
// query. This is the graceful-degradation plan a saturated server falls back
// to — the paper's own semantics make "serve the exact answer only" a
// principled cheaper tier rather than an error.
func (ex *Executor) Exact(q kg.Query, k int) Result {
	return ex.Run(planner.ExactPlan(q, k))
}

// PlanSource is anything that yields a speculative plan for a query: a bare
// planner.Planner or a planner.PlanCache.
type PlanSource interface {
	Plan(q kg.Query, k int) planner.Plan
}

// SpecQP plans q speculatively with pl and executes the resulting plan,
// recording the planning time separately (the paper includes it in total
// runtime; harness code reports PlanTime+ExecTime).
func (ex *Executor) SpecQP(pl PlanSource, q kg.Query, k int) Result {
	t0 := time.Now()
	p := pl.Plan(q, k)
	planTime := time.Since(t0)
	res := ex.Run(p)
	res.PlanTime = planTime
	return res
}

// Naive evaluates every relaxed query in the enumeration space completely,
// merges with max-score dedup, sorts, and returns the top-k. limit caps the
// number of relaxed queries evaluated (0 = all); memory objects count every
// materialised answer.
func (ex *Executor) Naive(q kg.Query, k, limit int) Result {
	start := time.Now()
	origVS := kg.NewVarSet(q)
	// One pin per Naive call: every relaxed query evaluates against the same
	// content version.
	g := ex.Store.Pin()
	var all []kg.Answer
	var objects int64
	for _, rq := range ex.Rules.Enumerate(q, limit) {
		var mask uint32
		for i, ri := range rq.Applied {
			if ri >= 0 {
				mask |= 1 << uint(i)
			}
		}
		answers := g.EvaluateWeighted(rq.Query, rq.PatternWeights)
		objects += int64(len(answers))
		// Chain relaxations introduce existential variables; project every
		// answer onto the original query's variable set so answers from
		// different rewrites are comparable and deduplicable.
		rqVS := kg.NewVarSet(rq.Query)
		for _, a := range answers {
			proj := kg.NewBinding(origVS.Len())
			for vi := 0; vi < rqVS.Len(); vi++ {
				if oi := origVS.Index(rqVS.Name(vi)); oi >= 0 {
					proj[oi] = a.Binding[vi]
				}
			}
			all = append(all, kg.Answer{Binding: proj, Score: a.Score, Relaxed: mask})
		}
	}
	all = kg.DedupMax(all)
	kg.SortAnswers(all)
	if len(all) > k {
		all = all[:k]
	}
	return Result{
		Answers:       all,
		MemoryObjects: objects,
		ExecTime:      time.Since(start),
		Plan:          planner.Plan{Query: q.Clone(), K: k},
	}
}

// TotalTime returns planning plus execution time.
func (r Result) TotalTime() time.Duration { return r.PlanTime + r.ExecTime }
