package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two lists below are
// the benchmark's contract with BENCHMARK.json; the self-test checks that
// they agree.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. README.md states what each measures per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"queries_per_s", "1/s"},
	{"first_answer_p50_ms", "ms"},
	{"mutation_p50_ms", "ms"},
	{"mutation_p95_ms", "ms"},
	{"mutations_per_s", "1/s"},
	{"precision_at_k", "ratio"},
	{"mem_objects_per_query", "count"},
	{"alloc_bytes_per_query", "B"},
	{"heap_mb", "MB"},
}

// perLayer are the per-layer metrics of the traced run. A layer a workload
// does not exercise reports 0 and a note saying so.
var perLayer = []metricDef{
	{"sparql.parse_us", "us"},
	{"planner.plan_us", "us"},
	{"planner.relaxed_per_query", "count"},
	{"planner.plan_cache_hit_ratio", "ratio"},
	{"planner.plan_cache_lookups", "count"},
	{"exec.run_us", "us"},
	{"engine.self_us", "us"},
	{"operators.pulls_per_query", "count"},
	{"operators.created_per_query", "count"},
	{"operators.dedup_dropped_per_query", "count"},
	{"operators.arena_bytes_per_query", "B"},
	{"operators.useful_ratio", "ratio"},
	{"kg.matchlist_us", "us"},
	{"kg.head_len_mean", "count"},
	{"kg.list_cache_hit_ratio", "ratio"},
	{"kg.compactions", "count"},
	{"kg.compaction_ms", "ms"},
	{"kg.load_freeze_s", "s"},
	{"kg.bytes_per_triple", "B"},
	{"kg.reload_s", "s"},
	{"wal.fsync_us_mean", "us"},
	{"wal.records_per_commit", "count"},
	{"wal.fsyncs_per_mutation", "count"},
	{"wal.bytes_per_mutation", "B"},
	{"wal.checkpoint_ms", "ms"},
	{"wal.recover_s", "s"},
	{"server.handler_us", "us"},
	{"server.backend_us", "us"},
	{"server.self_us", "us"},
	{"server.shed", "count"},
	{"server.degraded", "count"},
	{"client.overhead_us", "us"},
	{"loadgen.late_p99_ms", "ms"},
	{"loadgen.conn_wait_us", "us"},
	{"trace.overhead_query_p50_ms", "ms"},
}

// outcome accumulates one run of one workload: operation counts, gate
// failures, metric values by name, and report notes.
type outcome struct {
	attempted int
	failed    int
	// wrong counts operations whose answers failed a correctness check;
	// problems holds gate failures and the first few failed operations.
	wrong    int
	problems []string
	values   map[string]float64
	notes    []string
}

func newOutcome() *outcome { return &outcome{values: make(map[string]float64)} }

const maxProblems = 20

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// opFailed records a failed operation: refused, timed out or errored.
func (o *outcome) opFailed(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// opWrong records an operation whose answer is wrong; it also fails.
func (o *outcome) opWrong(format string, args ...any) {
	o.wrong++
	o.opFailed(format, args...)
}

// gateFailed records a failed end-of-run correctness gate.
func (o *outcome) gateFailed(format string, args ...any) {
	o.wrong++
	o.problem(format, args...)
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) correct() bool { return o.wrong == 0 }

// merge folds a sub-run's counts and notes into o.
func (o *outcome) merge(sub *outcome) {
	o.attempted += sub.attempted
	o.failed += sub.failed
	o.wrong += sub.wrong
	for _, p := range sub.problems {
		o.problem("%s", p)
	}
	o.notes = append(o.notes, sub.notes...)
}

// result selects the metrics of defs. A metric the run did not set is
// reported as 0; when the metrics are required that fails the run.
func (o *outcome) result(defs []metricDef, required bool) result {
	r := result{
		Correct:   o.correct(),
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	var unset []string
	for _, m := range defs {
		v, ok := o.values[m.name]
		if !ok {
			unset = append(unset, m.name)
		}
		r.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		if required {
			r.Correct = false
			o.problem("end-to-end metrics not measured: %s", strings.Join(unset, ", "))
		} else {
			o.note("layers not exercised by this workload, reported as 0: %s", strings.Join(unset, ", "))
		}
	}
	if r.Attempted < 1 {
		r.Correct = false
	}
	return r
}
