package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"specqp"
	"specqp/internal/kg"
	"specqp/internal/metrics"
)

// pair is one (query, k) of a workload's fixed query set.
type pair struct{ qi, k int }

func pairsFor(nq int, ks []int) []pair {
	var out []pair
	for _, k := range ks {
		for qi := 0; qi < nq; qi++ {
			out = append(out, pair{qi, k})
		}
	}
	return out
}

// references holds, per pair, the set-up run's Spec-QP answers, and the
// quality figures of the paper over the whole set.
type references struct {
	answers [][]kg.Answer
	// precision is the mean Table 2 precision of Spec-QP's top-k against
	// TriniT's; memObjects the mean answer objects created per query.
	precision  float64
	memObjects float64
}

// computeReferences runs every pair under Spec-QP and TriniT. With naive set,
// TriniT's top-k of every two-pattern query is also checked against
// ModeNaive, which evaluates every relaxed query exhaustively without the
// top-k operators (larger queries take seconds each under Naive).
func computeReferences(eng *specqp.Engine, qs []specqp.Query, pairs []pair, naive bool, o *outcome) (*references, error) {
	ctx := context.Background()
	ref := &references{answers: make([][]kg.Answer, len(pairs))}
	var objects int64
	maxK := make(map[int]int)
	trinit := make(map[pair][]kg.Answer)
	for i, p := range pairs {
		spec, err := eng.QueryContext(ctx, qs[p.qi], p.k, specqp.ModeSpecQP)
		if err != nil {
			return nil, fmt.Errorf("reference spec-qp q%d k=%d: %v", p.qi, p.k, err)
		}
		truth, err := eng.QueryContext(ctx, qs[p.qi], p.k, specqp.ModeTriniT)
		if err != nil {
			return nil, fmt.Errorf("reference trinit q%d k=%d: %v", p.qi, p.k, err)
		}
		ref.answers[i] = spec.Answers
		ref.precision += metrics.Precision(spec.Answers, truth.Answers, p.k)
		objects += spec.MemoryObjects
		trinit[p] = truth.Answers
		maxK[p.qi] = max(maxK[p.qi], p.k)
	}
	ref.precision /= float64(len(pairs))
	ref.memObjects = float64(objects) / float64(len(pairs))
	if !naive {
		return ref, nil
	}
	checked := 0
	for qi, k := range maxK {
		if len(qs[qi].Patterns) != 2 {
			continue
		}
		res, err := eng.Query(qs[qi], k, specqp.ModeNaive)
		if err != nil {
			return nil, fmt.Errorf("naive q%d: %v", qi, err)
		}
		for _, p := range pairs {
			if p.qi != qi {
				continue
			}
			checked++
			if err := sameTopK(trinit[p], res.Answers, p.k); err != nil {
				o.gateFailed("TriniT top-%d of query %d disagrees with exhaustive evaluation: %v", p.k, qi, err)
			}
		}
	}
	o.note("set-up cross-check: TriniT top-k equals ModeNaive's exhaustive evaluation on %d (query, k) pairs of two-pattern queries", checked)
	return ref, nil
}

// sameTopK checks that got is a valid top-k of the exhaustive ranking want:
// the same scores rank by rank, and every answer scoring above the k-th score
// present in both (answers tied at the cut-off may differ).
func sameTopK(got, want []kg.Answer, k int) error {
	if len(want) > k {
		want = want[:k]
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		return nil
	}
	for i := range want {
		if !closeScore(got[i].Score, want[i].Score) {
			return fmt.Errorf("rank %d score %v, want %v", i, got[i].Score, want[i].Score)
		}
	}
	cut := want[len(want)-1].Score
	have := make(map[string]bool, len(got))
	for _, a := range got {
		have[a.Binding.Key()] = true
	}
	for _, a := range want {
		if a.Score > cut && !closeScore(a.Score, cut) && !have[a.Binding.Key()] {
			return fmt.Errorf("answer %v (score %v) missing", a.Binding, a.Score)
		}
	}
	return nil
}

func closeScore(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b))
}

// identical reports whether two answer lists are bit-identical: bindings,
// scores and relaxation provenance, rank by rank.
func identical(got, want []kg.Answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Score != w.Score || g.Relaxed != w.Relaxed || g.Binding.Compare(w.Binding) != 0 {
			return fmt.Errorf("rank %d is %v/%v/%b, want %v/%v/%b", i, g.Binding, g.Score, g.Relaxed, w.Binding, w.Score, w.Relaxed)
		}
	}
	return nil
}

// wellFormed checks what any top-k answer list must satisfy: at most k
// answers, scores non-increasing.
func wellFormed(as []kg.Answer, k int) error {
	if len(as) > k {
		return fmt.Errorf("%d answers for k=%d", len(as), k)
	}
	for i := 1; i < len(as); i++ {
		if as[i].Score > as[i-1].Score {
			return fmt.Errorf("score rises at rank %d: %v after %v", i, as[i].Score, as[i-1].Score)
		}
	}
	return nil
}

// corruptAnswers is the self-test's fault: it appends an answer scoring
// above all the others (after a low-scoring one when the list is empty), so
// the list's score rises whatever the data and every answer check must
// reject it.
func corruptAnswers(as []kg.Answer) []kg.Answer {
	out := append([]kg.Answer(nil), as...)
	if len(out) == 0 {
		out = append(out, kg.Answer{Binding: kg.Binding{1}})
	}
	return append(out, kg.Answer{Binding: kg.Binding{1}, Score: math.MaxFloat64})
}

// state is an engine's observable content, independent of its dictionary
// encoding: the live triple count and every query's decoded answers.
type state struct {
	live    int
	answers []string
}

// captureState queries every query at k; the engine must be quiescent.
func captureState(eng *specqp.Engine, qs []specqp.Query, k int) (state, error) {
	st := state{live: eng.Stats().LiveTriples}
	for i, q := range qs {
		res, err := eng.QueryContext(context.Background(), q, k, specqp.ModeSpecQP)
		if err != nil {
			return st, fmt.Errorf("query %d: %v", i, err)
		}
		st.answers = append(st.answers, decodeAll(eng, q, res.Answers))
	}
	return st, nil
}

// decodeAll renders answers as one canonical string.
func decodeAll(eng *specqp.Engine, q specqp.Query, as []kg.Answer) string {
	var b strings.Builder
	for _, a := range as {
		fmt.Fprintf(&b, "%s|%v|%d;", canonicalBinding(eng.DecodeAnswer(q, a)), a.Score, a.Relaxed)
	}
	return b.String()
}

func canonicalBinding(m map[string]string) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s,", k, m[k])
	}
	return b.String()
}

// compareStates is the recovery gate: the restarted engine holds exactly the
// state the original held, so no acknowledged write was lost.
func compareStates(before, after state, o *outcome, what string) {
	if before.live != after.live {
		o.gateFailed("%s: %d live triples, had %d before", what, after.live, before.live)
	}
	if len(before.answers) != len(after.answers) {
		o.gateFailed("%s: %d queries answered, want %d", what, len(after.answers), len(before.answers))
		return
	}
	diff := 0
	for i := range before.answers {
		if before.answers[i] != after.answers[i] {
			diff++
		}
	}
	if diff > 0 {
		o.gateFailed("%s: %d of %d queries answer differently than before", what, diff, len(before.answers))
	}
}

// settle collects garbage so one phase's leftovers do not bill the next.
func settle() { runtime.GC() }

// liveHeap returns the live heap in bytes after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
