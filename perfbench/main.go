// Command perfbench is specqp's benchmark. One invocation runs one workload
// from a seed, checks every answer it receives, and prints every metric by
// name with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 2874, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
// is repeated with spans recorded around every layer call, and the metrics are
// the per-layer ones plus the tracing overhead. Run it through run.sh, which
// builds it from the enclosing checkout; see README.md for the workloads and
// what each metric measures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	// seed drives the load: which queries and k each client sends, the
	// arrival times, which queries stream, and the mutation stream.
	seed    int64
	seconds time.Duration
	trace   bool
	// scale multiplies the dataset sizes: 1 is the paper configuration, the
	// self-test runs smaller.
	scale float64
	// setups is how many times set-up is repeated; setup_s is their median.
	setups int
	// rate is twitter-serve's fixed open-loop arrival rate in requests/s,
	// about a quarter of its capacity on a 2-CPU container (90/s), so that
	// queueing adds to the median without dominating it. At 24/s three whole
	// passes over the query multiset fit in a 22-second run.
	rate float64
	// probe is how long the in-process write probe after the measured phase
	// of xkg-read and twitter-serve writes.
	probe time.Duration
	// out is the directory for WAL directories, reports and span files.
	out string

	// corrupt and loseWrite are fault injections for the self-test: corrupt
	// alters one answer list before it is checked, loseWrite recovers
	// xkg-churn from a copy of the log taken before its last acknowledged
	// write. Both must make the run report correct=false.
	corrupt   bool
	loseWrite bool
}

func defaultConfig() config {
	return config{
		seed:    1,
		seconds: 22 * time.Second,
		scale:   1,
		setups:  9,
		rate:    24,
		probe:   4 * time.Second,
		out:     ".bench_build",
	}
}

func parseFlags(args []string) (config, error) {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", cfg.seed, "seed of the load: query choice, arrivals, streaming, mutations")
	secs := fs.Float64("seconds", cfg.seconds.Seconds(), "length of the measured phase")
	traced := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.out, "out", cfg.out, "directory for WAL directories, reports and spans")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown --workload %q (want %s)", cfg.workload, workloadNames())
	}
	if *secs <= 0 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	cfg.seconds = time.Duration(*secs * float64(time.Second))
	cfg.trace = *traced != 0
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, cfg, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is what one invocation reports.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full record of one invocation, written next to the spans.
type report struct {
	Env      environment `json:"environment"`
	Result   result      `json:"result"`
	Notes    []string    `json:"notes"`
	Problems []string    `json:"problems,omitempty"`
	// Untraced holds the untraced run's end-to-end metrics of a traced
	// invocation; TraceOverhead is the traced run's minus the untraced run's.
	Untraced      map[string]float64 `json:"untraced_end_to_end,omitempty"`
	Traced        map[string]float64 `json:"traced_end_to_end,omitempty"`
	TraceOverhead map[string]float64 `json:"trace_overhead,omitempty"`
	SpansFile     string             `json:"spans_file,omitempty"`
}

// invocation bundles the result with what the report needs.
type invocation struct {
	result result
	report report
}

// run executes the configured workload: once untraced, or — with --trace —
// untraced and then traced, so the report can state the tracing overhead.
func run(cfg config) (*invocation, error) {
	w := workloads[cfg.workload]
	in, err := makeInputs(w.dataset, cfg.scale)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	base, err := w.run(cfg, in, nil)
	if err != nil {
		return nil, err
	}
	inv := &invocation{}
	inv.report.Env = probeEnvironment(cfg)
	if !cfg.trace {
		inv.result = base.result(endToEnd, true)
		inv.report.Notes = base.notes
		inv.report.Problems = base.problems
		inv.report.Result = inv.result
		return inv, nil
	}

	tr := newTracer()
	traced, err := w.run(cfg, in, tr)
	if err != nil {
		return nil, err
	}
	overhead := make(map[string]float64)
	for _, m := range endToEnd {
		overhead[m.name] = traced.values[m.name] - base.values[m.name]
	}
	traced.values["trace.overhead_query_p50_ms"] = overhead["query_p50_ms"]

	inv.result = traced.result(perLayer, false)
	inv.result.Attempted += base.attempted
	inv.result.Failed += base.failed
	inv.result.Correct = inv.result.Correct && base.correct()
	inv.report.Notes = append(base.notes, traced.notes...)
	inv.report.Problems = append(base.problems, traced.problems...)
	inv.report.Untraced = pick(base.values, endToEnd)
	inv.report.Traced = pick(traced.values, endToEnd)
	inv.report.TraceOverhead = overhead
	inv.report.Result = inv.result
	name := fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)
	inv.report.SpansFile = filepath.Join(cfg.out, name)
	if err := tr.writeFile(inv.report.SpansFile); err != nil {
		return nil, err
	}
	return inv, nil
}

func pick(values map[string]float64, defs []metricDef) map[string]float64 {
	out := make(map[string]float64, len(defs))
	for _, m := range defs {
		out[m.name] = values[m.name]
	}
	return out
}

// writeReport prints the human-readable report, saves the JSON report in the
// output directory, and ends with the one-line result.
func writeReport(w io.Writer, cfg config, inv *invocation) error {
	rep := inv.report
	kind := "untraced"
	if cfg.trace {
		kind = "traced"
	}
	fmt.Fprintf(w, "# perfbench %s seed=%d seconds=%g (%s)\n", cfg.workload, cfg.seed, cfg.seconds.Seconds(), kind)
	fmt.Fprintf(w, "# environment: %s\n", rep.Env)
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "# PROBLEM: %s\n", p)
	}
	names := make([]string, 0, len(inv.result.Metrics))
	for n := range inv.result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := inv.result.Metrics[n]
		fmt.Fprintf(w, "# %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if cfg.trace {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "# tracing overhead %-22s %+12.6g %s (traced %g, untraced %g)\n",
				m.name, rep.TraceOverhead[m.name], m.unit, rep.Traced[m.name], rep.Untraced[m.name])
		}
		fmt.Fprintf(w, "# spans: %s\n", rep.SpansFile)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("report-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace)))
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "# report: %s\n", path)
	line, err := json.Marshal(inv.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
