package exec

import (
	"context"
	"time"

	"specqp/internal/kg"
	"specqp/internal/operators"
	"specqp/internal/planner"
	"specqp/internal/trace"
)

// AnswerEmitFunc receives answers the instant the operator tree proves them
// final — for rank-join plans, the moment the corner bound drops to the
// answer's score, which is typically long before the full top-k is known.
// Returning false stops the execution early; no further operator pulls happen
// after a false return.
type AnswerEmitFunc func(kg.Answer) bool

// RunContextStream is the streaming core every drain path is expressed on:
// it executes plan p, invoking emit for each answer as the operators prove it
// final, while honouring ctx inside the operator pull loops exactly like
// RunContext (the counter's abort hook is polled every operators.AbortStride
// input pulls, so cancellation mid-stream stops within a bounded number of
// probes even when the next answer would require draining an input).
//
// The returned Result accumulates the same answers handed to emit, so batch
// callers and streaming callers observe one sequence by construction. A nil
// emit streams nowhere and reproduces RunContext verbatim. On cancellation
// the partial result — every answer already emitted — is returned together
// with ctx.Err(); an emit returning false truncates with a nil error (the
// consumer chose to stop; nothing failed).
func (ex *Executor) RunContextStream(ctx context.Context, p planner.Plan, emit AnswerEmitFunc) (Result, error) {
	return ex.runContextStream(ctx, p, emit, false)
}

// RunContextTraced is RunContextStream's traced sibling: same plan, same
// answers, same order — operators additionally record per-instance execution
// statistics, compiled into Result.Trace as a plan-shaped tree. Tracing never
// changes what is executed (the oracle tests assert bit-identity); it only
// adds the recording, so traced runs are for explain requests and sampled
// slow-query capture, not the steady-state hot path.
func (ex *Executor) RunContextTraced(ctx context.Context, p planner.Plan, emit AnswerEmitFunc) (Result, error) {
	return ex.runContextStream(ctx, p, emit, true)
}

func (ex *Executor) runContextStream(ctx context.Context, p planner.Plan, emit AnswerEmitFunc, traced bool) (Result, error) {
	c := &operators.Counter{}
	// Installed before buildStream so the prefetch goroutines observe the
	// hook through their creation edge; ctx.Err is safe for concurrent use.
	c.SetAbort(func() bool { return ctx.Err() != nil })
	if traced {
		// Also before buildStream: operators allocate their trace nodes at
		// construction, observing the flag through the same edge.
		c.EnableTracing()
	}
	start := time.Now()
	root, _, stop := ex.buildStream(p, c)
	defer stop()

	answers := make([]kg.Answer, 0, p.K)
	var err error
	for len(answers) < p.K {
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = ctxErr
			break
		}
		e, ok := root.Next()
		if !ok {
			// An aborted operator reports exhaustion; distinguish a genuinely
			// drained stream from a cancelled one so callers always see the
			// context error alongside the partial top-k. A run that filled k
			// answers never reaches this check — completion beats a
			// cancellation that lands after the last answer.
			err = ctx.Err()
			break
		}
		a := kg.Answer{Binding: e.Binding, Score: e.Score, Relaxed: e.Relaxed}
		answers = append(answers, a)
		if emit != nil && !emit(a) {
			break
		}
	}
	res := Result{
		Answers:       answers,
		MemoryObjects: c.Value(),
		ExecTime:      time.Since(start),
		Plan:          p,
	}
	if traced {
		res.Trace = &trace.Trace{
			K:             p.K,
			ExecUS:        res.ExecTime.Microseconds(),
			Answers:       len(answers),
			MemoryObjects: res.MemoryObjects,
			Root:          operators.TraceTree(root),
		}
	}
	operators.Release(root)
	return res, err
}

// RunStream executes plan p without a context, emitting each answer as it is
// proven final. It is Run's streaming sibling: same plan, same answers, same
// order — the only difference is when the caller sees them.
func (ex *Executor) RunStream(p planner.Plan, emit AnswerEmitFunc) Result {
	res, _ := ex.RunContextStream(context.Background(), p, emit)
	return res
}

// TriniTContextStream is TriniTContext with incremental emission.
func (ex *Executor) TriniTContextStream(ctx context.Context, q kg.Query, k int, emit AnswerEmitFunc) (Result, error) {
	return ex.RunContextStream(ctx, planner.TriniTPlan(q, k), emit)
}

// ExactContextStream is ExactContext with incremental emission.
func (ex *Executor) ExactContextStream(ctx context.Context, q kg.Query, k int, emit AnswerEmitFunc) (Result, error) {
	return ex.RunContextStream(ctx, planner.ExactPlan(q, k), emit)
}

// SpecQPContextStream is SpecQPContext with incremental emission: planning is
// not interruptible and nothing is emitted during it; answers stream as the
// speculative plan's operators prove them final.
func (ex *Executor) SpecQPContextStream(ctx context.Context, pl PlanSource, q kg.Query, k int, emit AnswerEmitFunc) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{Plan: planner.Plan{Query: q.Clone(), K: k}}, err
	}
	t0 := time.Now()
	p := pl.Plan(q, k)
	planTime := time.Since(t0)
	res, err := ex.RunContextStream(ctx, p, emit)
	res.PlanTime = planTime
	return res, err
}
