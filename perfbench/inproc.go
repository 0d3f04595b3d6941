package main

import (
	"context"
	"math/rand"
	"time"

	"specqp"
	"specqp/internal/kg"
	"specqp/internal/trace"
)

// reader is a closed-loop in-process Spec-QP client: it sends its next
// query as soon as the previous one returns. There is one client: on a 2-CPU
// host a second one saturates both CPUs together with the garbage collector,
// and the median latency then follows the host's other tenants (with two
// clients, xkg-read's query_p50_ms spread 0.31 across ten runs of one build
// on a shared 2-CPU host). The pairs whose index is a
// multiple of streamEvery always stream through Engine.QueryStream, the rest
// always go through Engine.QueryContext; both return the same answers, and
// every seed streams the same pairs.
type reader struct {
	eng   *specqp.Engine
	qs    []specqp.Query
	pairs []pair
	seed  int64
	tr    *tracer
	// streamEvery is 3 on xkg-read, whose queries go mostly through
	// QueryContext, and 1 on xkg-churn, whose reader completes too few
	// queries for a steady first-answer median when only a third stream
	// (spread up to 0.23 across ten runs).
	streamEvery int
	// check verifies one answer list of pairs[pi].
	check   func(pi int, as []kg.Answer) error
	corrupt bool
}

// readStats is what the reader measured.
type readStats struct {
	lat, first samples
	done       int
	// from and to bound the measured phase.
	from, to time.Time
	// headLens samples the mutable head size before each traced query.
	headLens []int
}

// run sends queries until until, cycling through the pairs one pass after
// another in a seeded order.
func (r *reader) run(until time.Time, o *outcome) readStats {
	st := readStats{from: time.Now()}
	order := newCycler(rand.New(rand.NewSource(r.seed*7919)), len(r.pairs))
	ctx := context.Background()
	for n := 1; time.Now().Before(until); n++ {
		pi := order.pick()
		p := r.pairs[pi]
		q := r.qs[p.qi]
		req := r.tr.request()
		if r.tr != nil {
			timeMatchList(r.tr, req, r.eng, q)
			st.headLens = append(st.headLens, r.eng.Stats().HeadLen)
		}
		o.attempted++
		stream := pi%r.streamEvery == 0
		var first time.Duration
		start := time.Now()
		var res specqp.Result
		var err error
		var emitted []specqp.Answer
		if stream {
			res, err = r.eng.QueryStream(ctx, q, p.k, specqp.ModeSpecQP, func(a specqp.Answer) bool {
				if first == 0 {
					first = time.Since(start)
				}
				emitted = append(emitted, a)
				return true
			})
		} else {
			res, err = r.eng.QueryContext(ctx, q, p.k, specqp.ModeSpecQP)
		}
		end := time.Now()
		recordQuery(r.tr, req, start, end, res)
		if err != nil {
			o.opFailed("query %d k=%d: %v", p.qi, p.k, err)
			continue
		}
		as := res.Answers
		if r.corrupt && n == 1 {
			as = corruptAnswers(as)
		}
		if err := r.check(pi, as); err != nil {
			o.opWrong("query %d k=%d: %v", p.qi, p.k, err)
			continue
		}
		// A streamed query's emitted answers are the answers it returns.
		if stream {
			if err := identical(emitted, res.Answers); err != nil {
				o.opWrong("query %d k=%d: streamed answers differ from the result: %v", p.qi, p.k, err)
				continue
			}
		}
		st.lat.addPass(end, end.Sub(start), order.pass)
		if stream && first > 0 {
			st.first.addPass(end, first, order.pass)
		}
		st.done++
	}
	st.to = time.Now()
	return st
}

// cycler yields 0..n-1 in a seeded random order, reshuffled after every
// pass: each run sends every query equally often and the seed decides only
// the order, so runs on different seeds measure the same mix.
type cycler struct {
	rng   *rand.Rand
	order []int
	next  int
	// pass counts the passes begun.
	pass int
}

func newCycler(rng *rand.Rand, n int) *cycler {
	c := &cycler{rng: rng, order: make([]int, n), next: n}
	for i := range c.order {
		c.order[i] = i
	}
	return c
}

func (c *cycler) pick() int {
	if c.next == len(c.order) {
		c.rng.Shuffle(len(c.order), func(i, j int) { c.order[i], c.order[j] = c.order[j], c.order[i] })
		c.next = 0
		c.pass++
	}
	c.next++
	return c.order[c.next-1]
}

// recordQuery records an engine call as an "engine.query" span with its
// planning and execution as children, placed from the Result's own
// PlanTime and ExecTime readouts. The span's self time is the engine's
// overhead outside planning and execution.
func recordQuery(tr *tracer, req int64, start, end time.Time, res specqp.Result) {
	if tr == nil {
		return
	}
	id := tr.record(0, "engine.query", req, 0, start, end)
	planEnd := start.Add(res.PlanTime)
	if res.PlanTime > 0 {
		tr.record(0, "planner.plan", req, id, start, planEnd)
	}
	execEnd := planEnd.Add(res.ExecTime)
	if execEnd.After(end) {
		execEnd = end
	}
	tr.record(0, "exec.run", req, id, planEnd, execEnd)
}

// timeMatchList times Graph().MatchList over the query's patterns and their
// relaxed patterns as one "kg.matchlist" span.
func timeMatchList(tr *tracer, req int64, eng *specqp.Engine, q specqp.Query) {
	g := eng.Graph()
	start := time.Now()
	for _, p := range q.Patterns {
		g.MatchList(p)
		for _, rule := range eng.Rules().For(p) {
			if len(rule.Chain) > 0 {
				for _, cp := range rule.Chain {
					g.MatchList(cp)
				}
				continue
			}
			g.MatchList(rule.To)
		}
	}
	tr.record(0, "kg.matchlist", req, 0, start, time.Now())
}

// writeStats is what a writer measured.
type writeStats struct {
	lat      samples
	done     int
	from, to time.Time
}

// writeLoop applies the mutator's writes back to back until until, timing
// each acknowledgement. apply performs one write, in-process or over HTTP.
func writeLoop(m *mutator, apply func(mutation) error, until time.Time, o *outcome) writeStats {
	st := writeStats{from: time.Now()}
	for time.Now().Before(until) {
		mu := m.next()
		o.attempted++
		start := time.Now()
		err := apply(mu)
		end := time.Now()
		if err != nil {
			o.opFailed("%s %s %s %s: %v", mu.op, mu.s, mu.p, mu.o, err)
			continue
		}
		st.lat.add(end, end.Sub(start))
		st.done++
	}
	st.to = time.Now()
	return st
}

// counterPass runs every pair once through Engine.QueryTraced and reports
// the per-query operator counters of the trace trees, and the planner's
// relaxation count. It runs after the measured phase, untimed.
func counterPass(eng *specqp.Engine, qs []specqp.Query, pairs []pair, o *outcome) {
	var pulls, created, dedup, arena, objects, answers, relaxed int64
	for _, p := range pairs {
		res, err := eng.QueryTraced(context.Background(), qs[p.qi], p.k, specqp.ModeSpecQP)
		if err != nil {
			o.gateFailed("traced query %d k=%d: %v", p.qi, p.k, err)
			continue
		}
		if res.Trace != nil && res.Trace.Root != nil {
			sumCounters(res.Trace.Root.Snapshot(), &pulls, &created, &dedup, &arena)
		}
		objects += res.MemoryObjects
		answers += int64(len(res.Answers))
		relaxed += int64(res.Plan.NumRelaxed())
	}
	n := float64(len(pairs))
	o.values["operators.pulls_per_query"] = float64(pulls) / n
	o.values["operators.created_per_query"] = float64(created) / n
	o.values["operators.dedup_dropped_per_query"] = float64(dedup) / n
	o.values["operators.arena_bytes_per_query"] = float64(arena) / n
	o.values["operators.useful_ratio"] = ratio(float64(answers), float64(objects))
	o.values["planner.relaxed_per_query"] = float64(relaxed) / n
}

func sumCounters(s *trace.NodeStats, pulls, created, dedup, arena *int64) {
	*pulls += s.Pulls
	*created += s.Created
	*dedup += s.DedupDropped
	*arena += s.ArenaBytes
	for _, c := range s.Children {
		sumCounters(c, pulls, created, dedup, arena)
	}
}

// statsDelta is the engine-internal activity between two Stats snapshots.
func statsDelta(a, b specqp.EngineStats) specqp.EngineStats {
	return specqp.EngineStats{
		PlanCacheHits:      b.PlanCacheHits - a.PlanCacheHits,
		PlanCacheMisses:    b.PlanCacheMisses - a.PlanCacheMisses,
		ListCacheHits:      b.ListCacheHits - a.ListCacheHits,
		ListCacheMisses:    b.ListCacheMisses - a.ListCacheMisses,
		Compactions:        b.Compactions - a.Compactions,
		CompactionFullNS:   b.CompactionFullNS - a.CompactionFullNS,
		CompactionTieredNS: b.CompactionTieredNS - a.CompactionTieredNS,
		WALFsyncs:          b.WALFsyncs - a.WALFsyncs,
		WALFsyncNS:         b.WALFsyncNS - a.WALFsyncNS,
		WALCommits:         b.WALCommits - a.WALCommits,
		WALCommitRecords:   b.WALCommitRecords - a.WALCommitRecords,
		WALSize:            b.WALSize - a.WALSize,
		Checkpoints:        b.Checkpoints - a.Checkpoints,
	}
}

// cacheLayers fills the plan-cache and list-cache metrics from the engine's
// Stats over the measured phase.
func cacheLayers(d specqp.EngineStats, o *outcome) {
	lookups := d.PlanCacheHits + d.PlanCacheMisses
	o.values["planner.plan_cache_lookups"] = float64(lookups)
	o.values["planner.plan_cache_hit_ratio"] = ratio(float64(d.PlanCacheHits), float64(lookups))
	if lookups == 0 {
		o.note("plan cache: 0 lookups in the measured phase (QueryContext and QueryStream plan afresh; only QueryTraced and QueryBatch consult the cache)")
	}
	listLookups := d.ListCacheHits + d.ListCacheMisses
	o.values["kg.list_cache_hit_ratio"] = ratio(float64(d.ListCacheHits), float64(listLookups))
	o.note("list cache: %d lookups in the measured phase (frozen segments serve views without it)", listLookups)
}

// compactionLayers fills the compaction metrics from the engine's Stats over
// the phase that wrote.
func compactionLayers(d specqp.EngineStats, o *outcome) {
	o.values["kg.compactions"] = float64(d.Compactions)
	o.values["kg.compaction_ms"] = float64(d.CompactionFullNS+d.CompactionTieredNS) / 1e6
}

// spanLayers fills the time metrics of the in-process layers from the spans.
func spanLayers(tr *tracer, o *outcome) map[string]layerTime {
	agg := tr.aggregate()
	set := func(metric, name string, self bool) {
		if l, ok := agg[name]; ok {
			if self {
				o.values[metric] = l.meanSelfUS()
			} else {
				o.values[metric] = l.meanUS()
			}
		}
	}
	set("planner.plan_us", "planner.plan", false)
	set("exec.run_us", "exec.run", false)
	set("engine.self_us", "engine.query", true)
	set("kg.matchlist_us", "kg.matchlist", false)
	if l, ok := agg["kg.load_freeze"]; ok {
		o.values["kg.load_freeze_s"] = l.meanUS() / 1e6
	}
	return agg
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	return float64(sum) / float64(len(xs))
}
