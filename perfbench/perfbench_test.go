package main

// The benchmark's self-test: every workload runs at a tiny scale and must
// report exactly the metrics BENCHMARK.json names, with their units; and each
// correctness gate must fail when handed a corrupted answer or a lost
// acknowledged write. Run it from this directory: go test ./...

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"specqp/internal/kg"
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkFile(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the code, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json %s (%s)", kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got, want := workloadNames(), strings.Join(names, ", "); got != want {
		t.Errorf("workloads: code has %s, BENCHMARK.json %s", got, want)
	}
}

// TestLayerMap checks layers.json: every per-layer metric maps to end-to-end
// metrics and workloads that exist.
func TestLayerMap(t *testing.T) {
	b := readBenchmarkFile(t)
	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var layers map[string]struct {
		Moves     []string `json:"moves"`
		Workloads []string `json:"workloads"`
	}
	if err := json.Unmarshal(data, &layers); err != nil {
		t.Fatal(err)
	}
	e2e, wl := map[string]bool{}, map[string]bool{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range b.Workloads {
		wl[w.Name] = true
	}
	for _, m := range b.PerLayer {
		l, ok := layers[m.Name]
		if !ok {
			t.Errorf("layers.json has no entry for %s", m.Name)
			continue
		}
		if len(l.Workloads) == 0 {
			t.Errorf("%s: no workload", m.Name)
		}
		for _, e := range l.Moves {
			if !e2e[e] {
				t.Errorf("%s moves unknown end-to-end metric %s", m.Name, e)
			}
		}
		for _, w := range l.Workloads {
			if !wl[w] {
				t.Errorf("%s names unknown workload %s", m.Name, w)
			}
		}
	}
	if len(layers) != len(b.PerLayer) {
		t.Errorf("layers.json has %d entries for %d per-layer metrics", len(layers), len(b.PerLayer))
	}
}

// tinyConfig runs a workload in a second or two.
func tinyConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.seed = 7
	cfg.scale = 0.05
	cfg.seconds = 700 * time.Millisecond
	cfg.setups = 2
	cfg.rate = 150
	cfg.probe = 200 * time.Millisecond
	cfg.out = t.TempDir()
	return cfg
}

func checkMetrics(t *testing.T, res result, defs []metricDef, nonZero bool) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, m := range defs {
		got, ok := res.Metrics[m.name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.name)
		case got.Unit != m.unit:
			t.Errorf("metric %s has unit %q, want %q", m.name, got.Unit, m.unit)
		case nonZero && got.Value == 0:
			t.Errorf("metric %s is 0", m.name)
		}
	}
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, w := range []string{"xkg-read", "twitter-serve", "xkg-churn"} {
		t.Run(w, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				cfg := tinyConfig(t, w)
				cfg.trace = traced
				inv, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				res := inv.result
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d problems=%v", traced, res.Correct, res.Attempted, res.Failed, inv.report.Problems)
				}
				if traced {
					checkMetrics(t, res, perLayer, false)
				} else {
					checkMetrics(t, res, endToEnd, true)
				}
			}
		})
	}
}

// TestCorruptedAnswerFailsGate hands every workload's answer check one
// corrupted answer list; the run must report it.
func TestCorruptedAnswerFailsGate(t *testing.T) {
	for _, w := range []string{"xkg-read", "twitter-serve", "xkg-churn"} {
		t.Run(w, func(t *testing.T) {
			cfg := tinyConfig(t, w)
			cfg.corrupt = true
			inv, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if inv.result.Correct || inv.result.Failed == 0 {
				t.Fatalf("corrupted answer passed: correct=%v failed=%d", inv.result.Correct, inv.result.Failed)
			}
		})
	}
}

// TestLostWriteFailsGate recovers xkg-churn from a log copy that lacks one
// acknowledged write; the recovery gate must catch it.
func TestLostWriteFailsGate(t *testing.T) {
	cfg := tinyConfig(t, "xkg-churn")
	cfg.loseWrite = true
	inv, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if inv.result.Correct {
		t.Fatalf("lost acknowledged write passed the recovery gate")
	}
}

func TestAnswerChecks(t *testing.T) {
	a := []kg.Answer{
		{Binding: kg.Binding{1, 2}, Score: 3},
		{Binding: kg.Binding{3, 4}, Score: 2},
		{Binding: kg.Binding{5, 6}, Score: 2},
	}
	if err := identical(a, a); err != nil {
		t.Fatal(err)
	}
	// The fault must be caught whatever the list it corrupts.
	for _, as := range [][]kg.Answer{nil, a[:1], a} {
		if identical(corruptAnswers(as), as) == nil {
			t.Errorf("identical accepted a corrupted list of %d", len(as))
		}
		if wellFormed(corruptAnswers(as), 10) == nil {
			t.Errorf("wellFormed accepted a corrupted list of %d", len(as))
		}
	}
	for _, as := range [][]wireAnswer{nil, {{Score: 1}}} {
		if checkWire(corruptWire(as), 10) == nil {
			t.Errorf("checkWire accepted a corrupted list of %d", len(as))
		}
	}
	if err := wellFormed(a, 3); err != nil {
		t.Fatal(err)
	}
	if wellFormed(a, 2) == nil {
		t.Error("wellFormed accepted more than k answers")
	}
	if wellFormed([]kg.Answer{a[1], a[0]}, 3) == nil {
		t.Error("wellFormed accepted a rising score")
	}
	// Answers tied at the cut-off may differ; a missing higher answer may not.
	swapped := []kg.Answer{a[0], a[2]}
	if err := sameTopK(swapped, a, 2); err != nil {
		t.Errorf("sameTopK rejected a tie at the cut-off: %v", err)
	}
	if sameTopK([]kg.Answer{a[1], a[2]}, a, 2) == nil {
		t.Error("sameTopK accepted a wrong top answer")
	}
	if checkWire([]wireAnswer{{Score: 1}, {Score: 2}}, 10) == nil {
		t.Error("checkWire accepted a rising score")
	}
}
