package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"specqp"
	"specqp/internal/kg"
)

// workload is one named input set and traffic mix.
type workload struct {
	dataset string
	run     func(cfg config, in *inputs, tr *tracer) (*outcome, error)
}

var workloads = map[string]workload{
	"xkg-read":      {dataset: "xkg", run: runXKGRead},
	"twitter-serve": {dataset: "twitter", run: runTwitterServe},
	"xkg-churn":     {dataset: "xkg", run: runXKGChurn},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// paperKs are the k values of the paper's experiments.
var paperKs = []int{10, 15, 20}

// restartRuns is how many times the snapshot reload is repeated; kg.reload_s
// is the median.
const restartRuns = 5

// setupMetrics records set-up time and the memory the ready engine holds.
func setupMetrics(eng *specqp.Engine, setups []time.Duration, o *outcome) {
	o.values["setup_s"] = median(setups).Seconds()
	heap := liveHeap()
	o.values["heap_mb"] = float64(heap) / 1e6
	o.values["kg.bytes_per_triple"] = ratio(float64(heap), float64(eng.Stats().LiveTriples))
	o.note("set-up: %d runs, %v", len(setups), setups)
}

// readMetrics records the reader's end-to-end figures: latencies over the
// complete passes over the pairs, the rate over the whole phase.
func readMetrics(rs readStats, alloc uint64, o *outcome) {
	o.values["query_p50_ms"] = ms(rs.lat.passQuantile(0.5))
	o.values["queries_per_s"] = ratio(float64(rs.done), rs.to.Sub(rs.from).Seconds())
	o.values["first_answer_p50_ms"] = ms(rs.first.passQuantile(0.5))
	o.values["alloc_bytes_per_query"] = ratio(float64(alloc), float64(rs.done))
	o.note("%s", rs.lat.describe("query latency"))
	o.note("query p50 per complete pass (ms): %s", rs.lat.passString(0.5))
	o.note("%s", rs.first.describe("first answer (streamed queries)"))
	o.note("first answer p50 per complete pass (ms): %s", rs.first.passString(0.5))
}

// writeMetrics records the writer's end-to-end figures: latencies as the
// median over the write phase's rounds, the rate over the whole phase, since
// compactions take a round's worth of time at once. The write tail is p95:
// writes take tens of microseconds, and their p99 follows the scheduler and
// the disk of the host (0.38 to 1.05 ms across ten xkg-churn runs of one
// build, against 0.13 to 0.19 ms for p95).
func writeMetrics(ws writeStats, o *outcome) {
	o.values["mutation_p50_ms"] = ms(ws.lat.roundQuantile(ws.from, ws.to, 0.5))
	o.values["mutation_p95_ms"] = ms(ws.lat.roundQuantile(ws.from, ws.to, 0.95))
	o.values["mutations_per_s"] = ratio(float64(ws.done), ws.to.Sub(ws.from).Seconds())
	o.note("%s", ws.lat.describe("mutation acknowledgement"))
	o.note("mutation p95 per round (ms): %s", ws.lat.roundString(ws.from, ws.to, 0.95))
}

// runXKGRead is the read-only workload: one closed-loop client runs Spec-QP
// over the XKG configuration, k drawn from {10, 15, 20}, and every answer
// list must be bit-identical to that pair's set-up run. A fixed write probe
// and a restart from a snapshot of the final state follow the measured phase.
func runXKGRead(cfg config, in *inputs, tr *tracer) (*outcome, error) {
	o := newOutcome()
	eng, setups, err := repeatSetup(cfg.setups,
		func(int) (*specqp.Engine, error) { return in.buildEngine(tr) },
		func(int, *specqp.Engine) error { return nil })
	if err != nil {
		return nil, err
	}
	setupMetrics(eng, setups, o)
	qs, err := parseQueries(eng, in.queries)
	if err != nil {
		return nil, err
	}
	pairs := pairsFor(len(qs), paperKs)
	ref, err := computeReferences(eng, qs, pairs, true, o)
	if err != nil {
		return nil, err
	}
	o.values["precision_at_k"] = ref.precision
	o.values["mem_objects_per_query"] = ref.memObjects

	before := eng.Stats()
	settle()
	alloc0 := totalAlloc()
	rd := &reader{
		eng: eng, qs: qs, pairs: pairs, streamEvery: 3, seed: cfg.seed, tr: tr, corrupt: cfg.corrupt,
		check: func(pi int, as []kg.Answer) error { return identical(as, ref.answers[pi]) },
	}
	rs := rd.run(time.Now().Add(cfg.seconds), o)
	readMetrics(rs, totalAlloc()-alloc0, o)
	if tr != nil {
		cacheLayers(statsDelta(before, eng.Stats()), o)
		counterPass(eng, qs, pairs, o)
	}

	// The write probe: in-memory inserts, re-scores and deletes, each timed
	// to its acknowledgement (head insert, with automatic compaction).
	settle()
	probeStart := eng.Stats()
	m := newMutator(in, cfg.seed, "probe", 70, 20, false)
	ws := writeLoop(m, engineWriter(eng, tr), time.Now().Add(cfg.probe), o)
	writeMetrics(ws, o)
	o.note("write probe: in-memory mutations for %v after the read-only phase", cfg.probe)
	if tr != nil {
		compactionLayers(statsDelta(probeStart, eng.Stats()), o)
		spanLayers(tr, o)
	}
	if err := restartFromSnapshot(in, eng, qs, o); err != nil {
		return nil, err
	}
	return o, nil
}

// restartFromSnapshot writes the engine's final state as a binary snapshot
// and loads it back restartRuns times; kg.reload_s is the median load time.
// The first reloaded engine must answer exactly as the original.
func restartFromSnapshot(in *inputs, eng *specqp.Engine, qs []specqp.Query, o *outcome) error {
	before, err := captureState(eng, qs, 10)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if _, err := kg.WriteGraphBinary(&buf, eng.Graph()); err != nil {
		return err
	}
	var times []time.Duration
	for i := 0; i < restartRuns; i++ {
		settle()
		start := time.Now()
		e2, err := in.reloadSnapshot(buf.Bytes())
		if err != nil {
			return err
		}
		times = append(times, time.Since(start))
		if i == 0 {
			qs2, err := parseQueries(e2, in.queries)
			if err != nil {
				return err
			}
			after, err := captureState(e2, qs2, 10)
			if err != nil {
				return err
			}
			compareStates(before, after, o, "restart from snapshot")
		}
	}
	o.values["kg.reload_s"] = median(times).Seconds()
	o.note("restart from a %d-byte snapshot of the final state: %v", buf.Len(), times)
	return nil
}

// runXKGChurn is the durable workload: one closed-loop writer (70% inserts of
// new rdf:type facts on the queries' types, 20% re-scores, 10% deletes of its
// own inserts) and one closed-loop Spec-QP reader over a WAL with SyncAlways.
// It ends with Close and OpenDurable recovery, which must restore exactly the
// state before Close.
func runXKGChurn(cfg config, in *inputs, tr *tracer) (*outcome, error) {
	o := newOutcome()
	base := filepath.Join(cfg.out, fmt.Sprintf("wal-%d", os.Getpid()))
	dir := func(i int) string { return fmt.Sprintf("%s-%d", base, i) }
	eng, setups, err := repeatSetup(cfg.setups,
		func(i int) (*specqp.Engine, error) {
			removeAll(dir(i))
			return in.openDurable(dir(i), tr)
		},
		func(i int, e *specqp.Engine) error {
			err := e.Close()
			removeAll(dir(i))
			return err
		})
	if err != nil {
		return nil, err
	}
	walDir, lostDir := dir(cfg.setups-1), base+"-lost"
	defer removeAll(walDir)
	defer removeAll(lostDir)
	defer eng.Close()
	setupMetrics(eng, setups, o)
	qs, err := parseQueries(eng, in.queries)
	if err != nil {
		return nil, err
	}
	pairs := pairsFor(len(qs), []int{10})
	ref, err := computeReferences(eng, qs, pairs, false, o)
	if err != nil {
		return nil, err
	}
	o.values["precision_at_k"] = ref.precision
	o.values["mem_objects_per_query"] = ref.memObjects

	before := eng.Stats()
	settle()
	alloc0 := totalAlloc()
	until := time.Now().Add(cfg.seconds)
	wo := newOutcome()
	var ws writeStats
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ws = writeLoop(newMutator(in, cfg.seed, "churn", 70, 20, false), engineWriter(eng, tr), until, wo)
	}()
	rd := &reader{
		eng: eng, qs: qs, pairs: pairs, streamEvery: 1, seed: cfg.seed, tr: tr, corrupt: cfg.corrupt,
		check: func(pi int, as []kg.Answer) error { return wellFormed(as, pairs[pi].k) },
	}
	rs := rd.run(until, o)
	wg.Wait()
	o.merge(wo)
	alloc := totalAlloc() - alloc0
	after := eng.Stats()
	readMetrics(rs, alloc, o)
	writeMetrics(ws, o)
	o.note("alloc_bytes_per_query counts the writer's allocations too")

	if tr != nil {
		d := statsDelta(before, after)
		cacheLayers(d, o)
		compactionLayers(d, o)
		spanLayers(tr, o)
		o.values["kg.head_len_mean"] = meanInt(rs.headLens)
		o.values["wal.fsync_us_mean"] = ratio(float64(d.WALFsyncNS)/1e3, float64(d.WALFsyncs))
		o.values["wal.records_per_commit"] = ratio(float64(d.WALCommitRecords), float64(d.WALCommits))
		o.values["wal.fsyncs_per_mutation"] = ratio(float64(d.WALFsyncs), float64(ws.done))
		o.values["wal.bytes_per_mutation"] = ratio(float64(d.WALSize), float64(ws.done))
		o.values["wal.checkpoint_ms"] = ratio(float64(after.CheckpointNS)/1e6, float64(after.Checkpoints))
		if d.Checkpoints > 0 {
			o.note("%d checkpoints truncated the log during the measured phase; wal.bytes_per_mutation undercounts", d.Checkpoints)
		}
		counterPass(eng, qs, pairs, o)
	}

	recoverFrom := walDir
	if cfg.loseWrite {
		// The self-test's fault: recover from a copy taken before one more
		// acknowledged insert, which that copy therefore lacks.
		if err := copyDir(walDir, lostDir); err != nil {
			return nil, err
		}
		if err := eng.InsertSPO("bench:lost", in.pred, in.objects[0], in.maxScore); err != nil {
			return nil, err
		}
		recoverFrom = lostDir
	}
	stateBefore, err := captureState(eng, qs, 10)
	if err != nil {
		return nil, err
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	// Recovery replays the log tail once; a second OpenDurable of the same
	// directory would start from the checkpoint the first one wrote, so
	// wal.recover_s is a single measurement.
	settle()
	start := time.Now()
	e2, err := in.recoverDurable(recoverFrom)
	if err != nil {
		return nil, err
	}
	o.values["wal.recover_s"] = time.Since(start).Seconds()
	qs2, err := parseQueries(e2, in.queries)
	if err == nil {
		var after state
		if after, err = captureState(e2, qs2, 10); err == nil {
			compareStates(stateBefore, after, o, "OpenDurable recovery")
		}
	}
	if cerr := e2.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	o.note("OpenDurable recovery after %d acknowledged writes: %.3fs", ws.done, o.values["wal.recover_s"])
	return o, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	removeAll(dst)
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
