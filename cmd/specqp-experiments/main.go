// Command specqp-experiments reproduces the paper's complete evaluation:
// Tables 2–4 and the figure series 6–9, plus the ablations catalogued in
// DESIGN.md (histogram resolution, rank-join strategy, selectivity source).
//
// By default it generates both synthetic datasets with the paper-shaped
// configurations (65 XKG queries of 2–4 patterns, 50 Twitter queries of 2–3
// patterns), runs TriniT and Spec-QP for k ∈ {10,15,20}, and prints every
// table and figure. Use -exp to select a single experiment and -dataset to
// restrict the dataset.
//
// Pre-generated datasets (cmd/specqp-datagen) can be loaded with -load; this
// skips generation and mines nothing — triples, rules and queries all come
// from the files.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"specqp"
	"specqp/internal/datagen"
	"specqp/internal/harness"
	"specqp/internal/kg"
	"specqp/internal/relax"
	"specqp/internal/sparql"
	"specqp/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("specqp-experiments: ")

	var (
		exp       = flag.String("exp", "all", "experiment: all, table2, table3, table4, fig6, fig7, fig8, fig9, ablations")
		dataset   = flag.String("dataset", "both", "dataset: xkg, twitter or both")
		seed      = flag.Int64("seed", 1, "random seed for dataset generation")
		scale     = flag.Float64("scale", 1.0, "dataset size multiplier")
		load      = flag.String("load", "", "directory with pre-generated datasets (from specqp-datagen)")
		buckets   = flag.Int("buckets", 2, "histogram buckets (paper uses 2)")
		csvDir    = flag.String("csv", "", "also write per-figure and per-outcome CSV files into this directory")
		runs      = flag.Int("runs", 1, "measurement runs per query; 5 reproduces the paper's warm-cache protocol (average of the last 3)")
		batch     = flag.Int("batch", 0, "also time the workload through Engine.QueryBatch with this many workers vs sequential Engine.Query (0 = skip)")
		shards    = flag.Int("shards", 1, "store segments for the batch/sharding comparisons (1 = flat, -1 = one per CPU); >1 also times sharded vs flat sequential execution")
		ingest    = flag.Int("ingest", 0, "live-ingest comparison: hold out this many triples, stream them back in batches, and time live Insert+query against a full rebuild per batch (0 = skip)")
		churn     = flag.Int("churn", 0, "mixed-churn comparison: hold out this many triples, replay them as an insert/delete/update mix with probe queries per batch, and time single-level vs tiered (L1) compaction (0 = skip)")
		serveload = flag.Int("serveload", 0, "serving-layer load generator: stand up the HTTP query service and drive it with this many concurrent clients running a mixed ingest/query workload, reporting p50/p99 latency and shed/degradation counts (0 = skip)")
		servereqs = flag.Int("servereqs", 200, "requests per client for -serveload")
		benchOut  = flag.String("benchout", "", "write the -serveload report as JSON to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file (go tool pprof)")
		memProf   = flag.String("memprofile", "", "write a heap profile taken at exit to this file (go tool pprof)")
	)
	flag.Parse()

	// The experiment body runs inside run() so its profile-flushing defers
	// execute on every exit path before main's log.Fatal can call os.Exit —
	// a mid-run error must still leave usable -cpuprofile/-memprofile files.
	if err := run(*exp, *dataset, *load, *csvDir, *cpuProf, *memProf, *benchOut, *seed, *scale, *buckets, *runs, *batch, *shards, *ingest, *churn, *serveload, *servereqs); err != nil {
		log.Fatal(err)
	}
}

func run(exp, dataset, load, csvDir, cpuProf, memProf, benchOut string, seed int64, scale float64, buckets, runs, batch, shards, ingest, churn, serveload, servereqs int) error {
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			return fmt.Errorf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if memProf != "" {
		// log.Printf, not a returned error: a heap-profile failure must not
		// mask the run's own error, and the CPU profile still flushes.
		defer func() {
			f, err := os.Create(memProf)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise only live objects in the profile
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
	}

	runXKG := dataset == "xkg" || dataset == "both"
	runTwitter := dataset == "twitter" || dataset == "both"

	var sets []*datagen.Dataset
	if runXKG {
		ds, err := getDataset(load, "xkg", func() (*datagen.Dataset, error) {
			cfg := datagen.XKGConfig{Seed: seed, Entities: int(20000 * scale)}
			return datagen.XKG(cfg)
		})
		if err != nil {
			return err
		}
		sets = append(sets, ds)
	}
	if runTwitter {
		ds, err := getDataset(load, "twitter", func() (*datagen.Dataset, error) {
			cfg := datagen.TwitterConfig{Seed: seed, Tweets: int(15000 * scale)}
			return datagen.Twitter(cfg)
		})
		if err != nil {
			return err
		}
		sets = append(sets, ds)
	}

	for _, ds := range sets {
		fmt.Printf("===== dataset %s: %d triples, %d rules, %d queries =====\n",
			ds.Name, ds.Store.Len(), ds.Rules.Len(), len(ds.Queries))
		r := harness.NewRunnerWith(ds, buckets, nil, []int{10, 15, 20})
		r.Runs = runs
		outs := r.RunAll()

		want := func(name string) bool { return exp == "all" || exp == name }
		if want("table2") {
			harness.PrintTable2(os.Stdout, ds.Name, harness.Table2(outs))
		}
		if want("table3") {
			harness.PrintTable3(os.Stdout, ds.Name, harness.Table3(outs))
		}
		if want("table4") {
			harness.PrintTable4(os.Stdout, ds.Name, harness.Table4(outs))
		}
		figTP, figRelax := "fig6", "fig7"
		if ds.Name == "twitter" {
			figTP, figRelax = "fig8", "fig9"
		}
		if want(figTP) {
			harness.PrintFigure(os.Stdout,
				fmt.Sprintf("Figure %s — runtimes & memory by #TP, dataset %s", strings.TrimPrefix(figTP, "fig"), ds.Name),
				"#TP", harness.FigureByTP(outs))
		}
		if want(figRelax) {
			harness.PrintFigure(os.Stdout,
				fmt.Sprintf("Figure %s — runtimes & memory by #TP relaxed, dataset %s", strings.TrimPrefix(figRelax, "fig"), ds.Name),
				"#TPrelaxed", harness.FigureByRelaxed(outs))
		}
		if want("ablations") {
			runAblations(ds)
		}
		if shards != 1 {
			if err := runShardedComparison(ds, shards); err != nil {
				return err
			}
		}
		if batch > 0 {
			if err := runBatchComparison(ds, batch, shards); err != nil {
				return err
			}
		}
		if ingest > 0 {
			if err := runIngestComparison(ds, ingest, shards); err != nil {
				return err
			}
			if err := runWALComparison(ds, ingest, shards); err != nil {
				return err
			}
		}
		if churn > 0 {
			if err := runChurnComparison(ds, churn, shards); err != nil {
				return err
			}
		}
		if serveload > 0 {
			if err := runServeLoad(ds, serveload, servereqs, shards, benchOut); err != nil {
				return err
			}
		}
		if csvDir != "" {
			if err := writeCSVs(csvDir, ds.Name, outs); err != nil {
				return err
			}
		}
		fmt.Println()
	}
	return nil
}

// writeCSVs dumps the per-outcome table and both figure series for one
// dataset into dir.
func writeCSVs(dir, name string, outs []harness.Outcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(file string, fn func(w *os.File) error) error {
		f, err := os.Create(filepath.Join(dir, file))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(name+".outcomes.csv", func(w *os.File) error {
		return harness.WriteOutcomesCSV(w, outs)
	}); err != nil {
		return err
	}
	if err := write(name+".by_tp.csv", func(w *os.File) error {
		return harness.WriteFigureCSV(w, "tp", harness.FigureByTP(outs))
	}); err != nil {
		return err
	}
	return write(name+".by_relaxed.csv", func(w *os.File) error {
		return harness.WriteFigureCSV(w, "relaxed", harness.FigureByRelaxed(outs))
	})
}

// runBatchComparison times the dataset's whole query workload through
// sequential Engine.Query and through Engine.QueryBatch with the given
// worker count, printing wall-clock times and the resulting speedup. A
// warm-up pass down each path first fills the store's match-list caches,
// the statistics catalog and the engine's plan cache (sequential Query and
// QueryBatch plan through the same one), so the measured gap is what the
// batch API actually buys: execution concurrency.
// runShardedComparison times the dataset's query workload sequentially over
// the flat layout and over a sharded engine (parallel per-shard merge scans
// plus concurrent join legs), printing the per-query wall-clock speedup.
// Answers are bit-identical across layouts; only the schedule changes.
func runShardedComparison(ds *datagen.Dataset, shards int) error {
	effective := shards
	if effective < 0 {
		effective = runtime.GOMAXPROCS(0)
	}
	if effective <= 1 {
		// -shards -1 resolves to GOMAXPROCS; on a single-CPU machine that is
		// one segment, i.e. the flat layout — timing it against itself would
		// present noise as a sharding result. Resolve before building so the
		// repartition + parallel freeze is not paid just to be thrown away.
		fmt.Printf("Sharding — not engaged: %d segment(s) resolved on this machine (dataset %s)\n", effective, ds.Name)
		return nil
	}
	sharded := specqp.NewEngineWith(ds.Store, ds.Rules, specqp.Options{Shards: effective})
	flat := specqp.NewEngineWith(ds.Store, ds.Rules, specqp.Options{Shards: 1})
	timeAll := func(eng *specqp.Engine) (time.Duration, error) {
		t0 := time.Now()
		for _, qs := range ds.Queries {
			if _, err := eng.Query(qs.Query, 10, specqp.ModeSpecQP); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	// Warm both engines' match-list and statistics caches first.
	if _, err := timeAll(flat); err != nil {
		return err
	}
	if _, err := timeAll(sharded); err != nil {
		return err
	}
	flatT, err := timeAll(flat)
	if err != nil {
		return err
	}
	shardT, err := timeAll(sharded)
	if err != nil {
		return err
	}
	speedup := 0.0
	if shardT > 0 {
		speedup = float64(flatT) / float64(shardT)
	}
	fmt.Printf("Sharding — %d queries, %d segments (dataset %s):\n", len(ds.Queries), effective, ds.Name)
	fmt.Printf("  %-12s %-12s %-8s\n", "flat", "sharded", "speedup")
	fmt.Printf("  %-12v %-12v %.2fx\n", flatT.Round(time.Microsecond), shardT.Round(time.Microsecond), speedup)
	return nil
}

// ingestFixture is the shared scaffolding of the live-ingest comparisons:
// the dataset's triples captured as a flat sequence, the holdout split, the
// batch schedule and the probe queries, so every arm replays the identical
// workload.
type ingestFixture struct {
	ds        *datagen.Dataset
	triples   []kg.Triple
	base      int
	total     int
	batchSize int
	probes    []datagen.QuerySpec
}

// newIngestFixture validates the holdout and captures the schedule.
func newIngestFixture(ds *datagen.Dataset, holdout int) (*ingestFixture, error) {
	total := ds.Store.Len()
	if holdout >= total {
		return nil, fmt.Errorf("-ingest %d: dataset %s has only %d triples", holdout, ds.Name, total)
	}
	f := &ingestFixture{ds: ds, total: total, base: total - holdout, batchSize: holdout / 10}
	if f.batchSize == 0 {
		f.batchSize = 1
	}
	f.probes = ds.Queries
	if len(f.probes) > 5 {
		f.probes = f.probes[:5]
	}
	f.triples = make([]kg.Triple, total)
	for i := range f.triples {
		f.triples[i] = ds.Store.Triple(int32(i))
	}
	return f, nil
}

// runProbes executes the probe queries once.
func (f *ingestFixture) runProbes(eng *specqp.Engine) error {
	for _, qs := range f.probes {
		if _, err := eng.Query(qs.Query, 10, specqp.ModeSpecQP); err != nil {
			return err
		}
	}
	return nil
}

// baseStore loads the pre-holdout prefix into a fresh flat store sharing the
// dataset dictionary.
func (f *ingestFixture) baseStore() (*kg.Store, error) {
	st := kg.NewStore(f.ds.Store.Dict())
	for _, tr := range f.triples[:f.base] {
		if err := st.Add(tr); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// verifyAgainst asserts eng answers every probe exactly like want — the
// bit-identical cross-arm check every comparison ends with.
func (f *ingestFixture) verifyAgainst(label string, eng, want *specqp.Engine) error {
	for _, qs := range f.probes {
		w, err := want.Query(qs.Query, 10, specqp.ModeSpecQP)
		if err != nil {
			return err
		}
		g, err := eng.Query(qs.Query, 10, specqp.ModeSpecQP)
		if err != nil {
			return err
		}
		if len(g.Answers) != len(w.Answers) {
			return fmt.Errorf("%s verification: %d answers vs %d", label, len(g.Answers), len(w.Answers))
		}
		for i := range g.Answers {
			if g.Answers[i].Score != w.Answers[i].Score ||
				g.Answers[i].Binding.Compare(w.Answers[i].Binding) != 0 {
				return fmt.Errorf("%s verification: answer %d diverged", label, i)
			}
		}
	}
	return nil
}

// runIngestComparison replays the growing-knowledge-graph scenario: holdout
// triples are removed from the dataset's store, then streamed back in ten
// batches with the first few workload queries run after each batch. The
// rebuild arm pays a full store rebuild + freeze per batch (the only option
// before live ingest); the live arm uses Engine.Insert with automatic
// merge-on-threshold compaction. Both arms' final answers are verified
// identical before the timings are printed.
func runIngestComparison(ds *datagen.Dataset, holdout, shards int) error {
	f, err := newIngestFixture(ds, holdout)
	if err != nil {
		return err
	}
	dict := ds.Store.Dict()
	triples, base, total, batchSize := f.triples, f.base, f.total, f.batchSize

	t0 := time.Now()
	var lastRebuilt *specqp.Engine
	for pos := base; ; {
		st := kg.NewStore(dict)
		for _, tr := range triples[:pos] {
			if err := st.Add(tr); err != nil {
				return err
			}
		}
		st.Freeze()
		lastRebuilt = specqp.NewEngineOver(st, ds.Rules, specqp.Options{})
		if err := f.runProbes(lastRebuilt); err != nil {
			return err
		}
		if pos == total {
			break
		}
		if pos += batchSize; pos > total {
			pos = total
		}
	}
	rebuildT := time.Since(t0)

	t0 = time.Now()
	effective := shards
	if effective < 1 {
		effective = runtime.GOMAXPROCS(0)
	}
	ss := kg.NewShardedStore(dict, effective)
	for _, tr := range triples[:base] {
		if err := ss.Add(tr); err != nil {
			return err
		}
	}
	live := specqp.NewEngineOver(ss, ds.Rules, specqp.Options{})
	if err := f.runProbes(live); err != nil {
		return err
	}
	for pos := base; pos < total; pos += batchSize {
		end := pos + batchSize
		if end > total {
			end = total
		}
		for _, tr := range triples[pos:end] {
			if err := live.Insert(tr); err != nil {
				return err
			}
		}
		if err := f.runProbes(live); err != nil {
			return err
		}
	}
	liveT := time.Since(t0)

	// The two arms must agree answer-for-answer at the final state.
	if err := f.verifyAgainst("ingest", live, lastRebuilt); err != nil {
		return err
	}

	lg, _ := live.Graph().(specqp.LiveGraph)
	speedup := 0.0
	if liveT > 0 {
		speedup = float64(rebuildT) / float64(liveT)
	}
	fmt.Printf("Live ingest — %d base + %d streamed in batches of %d, %d probe queries/batch, %d segments (dataset %s):\n",
		base, holdout, batchSize, len(f.probes), effective, ds.Name)
	fmt.Printf("  %-16s %-16s %-8s %s\n", "rebuild/batch", "live insert", "speedup", "compactions")
	fmt.Printf("  %-16v %-16v %.2fx    %d (head %d)\n",
		rebuildT.Round(time.Microsecond), liveT.Round(time.Microsecond), speedup, lg.Compactions(), lg.HeadLen())
	return nil
}

// runWALComparison measures what durability costs: the live-ingest schedule
// of runIngestComparison (stream the holdout back in ten batches, probing
// after each) runs three times over identical engines — WAL off, WAL with
// SyncPolicy=interval (the production setting: acks after the buffered
// write, background fsync), and WAL with SyncPolicy=always (every insert
// group-commit-fsynced) — plus a recovery timing: reopening the durable
// directory from scratch. Final answers are verified identical across arms.
func runWALComparison(ds *datagen.Dataset, holdout, shards int) error {
	f, err := newIngestFixture(ds, holdout)
	if err != nil {
		return err
	}
	triples, base, total, batchSize := f.triples, f.base, f.total, f.batchSize
	effective := shards
	if effective < 1 {
		effective = runtime.GOMAXPROCS(0)
	}

	type arm struct {
		name    string
		policy  specqp.SyncPolicy
		withWAL bool
	}
	arms := []arm{
		{name: "wal-off", withWAL: false},
		{name: "wal-interval", policy: specqp.SyncInterval, withWAL: true},
		{name: "wal-always", policy: specqp.SyncAlways, withWAL: true},
	}
	times := make([]time.Duration, len(arms))
	insertTimes := make([]time.Duration, len(arms))
	engines := make([]*specqp.Engine, len(arms))
	var walDir string
	var recoveryT time.Duration
	var recoveredLen int
	for ai, a := range arms {
		st, err := f.baseStore()
		if err != nil {
			return err
		}
		var eng *specqp.Engine
		opts := specqp.Options{Shards: effective, SyncPolicy: a.policy}
		if a.withWAL {
			dir, err := os.MkdirTemp("", "specqp-wal-*")
			if err != nil {
				return err
			}
			defer os.RemoveAll(dir)
			if eng, err = specqp.OpenDurableWith(dir, st, ds.Rules, opts); err != nil {
				return err
			}
			defer eng.Close()
			if a.policy == specqp.SyncInterval {
				walDir = dir
			}
		} else {
			eng = specqp.NewEngineWith(st, ds.Rules, opts)
		}
		// Engine construction (and the durable arms' opening checkpoint) is
		// excluded: the arms compare steady-state ingest throughput.
		t0 := time.Now()
		var insertT time.Duration
		for pos := base; pos < total; pos += batchSize {
			end := pos + batchSize
			if end > total {
				end = total
			}
			i0 := time.Now()
			for _, tr := range triples[pos:end] {
				if err := eng.Insert(tr); err != nil {
					return err
				}
			}
			insertT += time.Since(i0)
			if err := f.runProbes(eng); err != nil {
				return err
			}
		}
		if a.withWAL {
			i0 := time.Now()
			if err := eng.Sync(); err != nil {
				return err
			}
			insertT += time.Since(i0)
		}
		times[ai] = time.Since(t0)
		insertTimes[ai] = insertT
		engines[ai] = eng
	}

	// All arms must agree answer-for-answer at the final state.
	for ai := 1; ai < len(arms); ai++ {
		if err := f.verifyAgainst("wal "+arms[ai].name, engines[ai], engines[0]); err != nil {
			return err
		}
	}

	// Recovery timing: close the interval arm's engine and reopen the
	// directory cold (snapshot load + WAL tail replay + freeze).
	if walDir != "" {
		for ai, a := range arms {
			if a.policy == specqp.SyncInterval && a.withWAL {
				if err := engines[ai].Close(); err != nil {
					return err
				}
			}
		}
		t0 := time.Now()
		reng, err := specqp.OpenDurable(walDir, ds.Rules, specqp.Options{Shards: effective})
		if err != nil {
			return err
		}
		recoveryT = time.Since(t0)
		recoveredLen = reng.Graph().Len()
		if recoveredLen != total {
			return fmt.Errorf("recovery returned %d triples, want %d", recoveredLen, total)
		}
		reng.Close()
	}

	fmt.Printf("Durability — %d base + %d streamed in batches of %d, %d probe queries/batch, %d segments (dataset %s):\n",
		base, holdout, batchSize, len(f.probes), effective, ds.Name)
	fmt.Printf("  %-14s %-14s %-14s %-11s %s\n", "arm", "total", "insert-only", "vs wal-off", "insert-only vs wal-off")
	for ai, a := range arms {
		ratio := float64(times[0]) / float64(times[ai])
		insRatio := float64(insertTimes[0]) / float64(insertTimes[ai])
		fmt.Printf("  %-14s %-14v %-14v %-11s %.2fx\n",
			a.name, times[ai].Round(time.Microsecond), insertTimes[ai].Round(time.Microsecond),
			fmt.Sprintf("%.2fx", ratio), insRatio)
	}
	fmt.Printf("  recovery: %d triples in %v (snapshot + WAL tail replay + freeze)\n",
		recoveredLen, recoveryT.Round(time.Microsecond))
	return nil
}

// churnOp is one step of the deterministic mixed-mutation schedule every
// churn arm replays: an insert of the next holdout triple, a retraction of a
// previously-seen key, or a latest-wins re-score.
type churnOp struct {
	kind byte // 0 insert, 1 delete, 2 update
	tr   kg.Triple
}

// runChurnComparison replays the mutable-knowledge-graph scenario: the
// holdout is streamed back as a ~70/15/15 insert/delete/update mix with the
// probe queries run after each batch, once per compaction arm — single-level
// merges (every head merge rebuilds the segment's full arena) and tiered
// compaction (heads fold into a small L1 level; the full arena is only
// rebuilt when L1 crosses its own threshold). Both arms replay the identical
// schedule and must end answer-for-answer identical; the timings show what
// the L1 tier buys under churn.
func runChurnComparison(ds *datagen.Dataset, churn, shards int) error {
	f, err := newIngestFixture(ds, churn)
	if err != nil {
		return err
	}
	dict := ds.Store.Dict()
	effective := shards
	if effective < 1 {
		effective = runtime.GOMAXPROCS(0)
	}

	// One deterministic schedule for every arm. Deletes and updates pick keys
	// from the triples already streamed (or the base), so most hit something.
	rng := rand.New(rand.NewSource(7))
	var ops []churnOp
	for pos := f.base; pos < f.total; {
		switch r := rng.Intn(20); {
		case r < 14:
			ops = append(ops, churnOp{kind: 0, tr: f.triples[pos]})
			pos++
		case r < 17:
			ops = append(ops, churnOp{kind: 1, tr: f.triples[rng.Intn(pos)]})
		default:
			tr := f.triples[rng.Intn(pos)]
			tr.Score = float64(1 + rng.Intn(100))
			ops = append(ops, churnOp{kind: 2, tr: tr})
		}
	}
	batchSize := len(ops) / 10
	if batchSize == 0 {
		batchSize = 1
	}

	type arm struct {
		name string
		l1   int
	}
	arms := []arm{{"single-level", 0}, {"tiered-l1", 4096}}
	times := make([]time.Duration, len(arms))
	mutateTimes := make([]time.Duration, len(arms))
	compactions := make([]uint64, len(arms))
	engines := make([]*specqp.Engine, len(arms))
	for ai, a := range arms {
		ss := kg.NewShardedStore(dict, effective)
		for _, tr := range f.triples[:f.base] {
			if err := ss.Add(tr); err != nil {
				return err
			}
		}
		eng := specqp.NewEngineOver(ss, ds.Rules, specqp.Options{Shards: effective, HeadLimit: 256, L1Limit: a.l1})
		if err := f.runProbes(eng); err != nil {
			return err
		}
		lg, _ := eng.Graph().(specqp.LiveGraph)
		t0 := time.Now()
		var mutateT time.Duration
		for off := 0; off < len(ops); off += batchSize {
			end := off + batchSize
			if end > len(ops) {
				end = len(ops)
			}
			m0 := time.Now()
			for _, op := range ops[off:end] {
				switch op.kind {
				case 0:
					err = eng.Insert(op.tr)
				case 1:
					_, err = eng.Delete(op.tr.S, op.tr.P, op.tr.O)
				default:
					err = eng.Update(op.tr)
				}
				if err != nil {
					return err
				}
			}
			mutateT += time.Since(m0)
			if err := f.runProbes(eng); err != nil {
				return err
			}
		}
		times[ai] = time.Since(t0)
		mutateTimes[ai] = mutateT
		compactions[ai] = lg.Compactions()
		engines[ai] = eng
	}

	// Both arms replayed the same schedule: answers must be bit-identical.
	for ai := 1; ai < len(arms); ai++ {
		if err := f.verifyAgainst("churn "+arms[ai].name, engines[ai], engines[0]); err != nil {
			return err
		}
	}

	nIns, nDel, nUpd := 0, 0, 0
	for _, op := range ops {
		switch op.kind {
		case 0:
			nIns++
		case 1:
			nDel++
		default:
			nUpd++
		}
	}
	fmt.Printf("Mixed churn — %d inserts, %d deletes, %d updates in batches of %d, %d probe queries/batch, head limit 256, %d segments (dataset %s):\n",
		nIns, nDel, nUpd, batchSize, len(f.probes), effective, ds.Name)
	fmt.Printf("  %-14s %-14s %-14s %-12s %s\n", "arm", "total", "mutate-only", "compactions", "vs single-level (mutate)")
	for ai, a := range arms {
		ratio := float64(mutateTimes[0]) / float64(mutateTimes[ai])
		fmt.Printf("  %-14s %-14v %-14v %-12d %.2fx\n",
			a.name, times[ai].Round(time.Microsecond), mutateTimes[ai].Round(time.Microsecond), compactions[ai], ratio)
	}
	// A full compact annihilates every pending tombstone in both arms.
	for ai, a := range arms {
		lg, _ := engines[ai].Graph().(specqp.LiveGraph)
		pending := lg.Tombstones()
		c0 := time.Now()
		engines[ai].Compact()
		fmt.Printf("  %-14s final full compact: %d tombstones GC'd in %v\n", a.name, pending, time.Since(c0).Round(time.Microsecond))
		if lg.Tombstones() != 0 {
			return fmt.Errorf("churn %s: full compact left %d tombstones", a.name, lg.Tombstones())
		}
	}
	return nil
}

func runBatchComparison(ds *datagen.Dataset, workers, shards int) error {
	eng := specqp.NewEngineWith(ds.Store, ds.Rules, specqp.Options{BatchWorkers: workers, Shards: shards})
	queries := make([]specqp.Query, len(ds.Queries))
	for i, qs := range ds.Queries {
		queries[i] = qs.Query
	}
	runSeq := func() (time.Duration, error) {
		t0 := time.Now()
		for _, q := range queries {
			if _, err := eng.Query(q, 10, specqp.ModeSpecQP); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	runBatch := func() (time.Duration, error) {
		t0 := time.Now()
		results, err := eng.QueryBatch(context.Background(), queries, 10, specqp.ModeSpecQP)
		if err != nil {
			return 0, err
		}
		for _, r := range results {
			if r.Err != nil {
				return 0, r.Err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := runSeq(); err != nil { // warm match-list caches and the statistics catalog
		return err
	}
	if _, err := runBatch(); err != nil { // warm the batch path
		return err
	}
	seq, err := runSeq()
	if err != nil {
		return err
	}
	bat, err := runBatch()
	if err != nil {
		return err
	}
	speedup := 0.0
	if bat > 0 {
		speedup = float64(seq) / float64(bat)
	}
	fmt.Printf("Batch API — %d queries, %d workers (dataset %s):\n", len(queries), workers, ds.Name)
	fmt.Printf("  %-12s %-12s %-8s\n", "sequential", "batch", "speedup")
	fmt.Printf("  %-12v %-12v %.2fx\n", seq.Round(time.Microsecond), bat.Round(time.Microsecond), speedup)
	return nil
}

// runAblations prints the three design-choice studies from DESIGN.md.
func runAblations(ds *datagen.Dataset) {
	fmt.Printf("Ablation A1 — histogram buckets (dataset %s):\n", ds.Name)
	fmt.Printf("  %-8s %-10s %-12s %-12s\n", "buckets", "precision", "S-time", "S-mem")
	for _, b := range []int{2, 4, 8} {
		r := harness.NewRunnerWith(ds, b, nil, []int{10})
		outs := r.RunAll()
		prec, stime, smem := summarise(outs)
		fmt.Printf("  %-8d %-10.2f %-12v %-12.0f\n", b, prec, stime, smem)
	}

	fmt.Printf("Ablation A3 — selectivity source (dataset %s):\n", ds.Name)
	fmt.Printf("  %-10s %-10s %-12s %-12s\n", "source", "precision", "S-time", "S-mem")
	for _, c := range []struct {
		name    string
		counter stats.Counter
	}{
		{"exact", nil},
		{"estimated", stats.EstimatedCounter{Store: ds.Store}},
	} {
		r := harness.NewRunnerWith(ds, 2, c.counter, []int{10})
		outs := r.RunAll()
		prec, stime, smem := summarise(outs)
		fmt.Printf("  %-10s %-10.2f %-12v %-12.0f\n", c.name, prec, stime, smem)
	}
}

func summarise(outs []harness.Outcome) (prec float64, stime interface{}, smem float64) {
	var t, n int64
	var mem float64
	for _, o := range outs {
		prec += o.Precision
		t += int64(o.SpecQP.TotalTime())
		mem += float64(o.SpecQP.MemoryObjects)
		n++
	}
	if n == 0 {
		return 0, 0, 0
	}
	return prec / float64(n), timeDur(t / n), mem / float64(n)
}

func timeDur(ns int64) interface{} {
	return fmt.Sprintf("%.3fms", float64(ns)/1e6)
}

// getDataset loads a dataset triple/rule/query bundle from dir if given,
// otherwise generates it.
func getDataset(dir, name string, gen func() (*datagen.Dataset, error)) (*datagen.Dataset, error) {
	if dir == "" {
		return gen()
	}
	return loadDataset(dir, name)
}

func loadDataset(dir, name string) (*datagen.Dataset, error) {
	tf, err := os.Open(filepath.Join(dir, name+".triples.tsv"))
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	st, err := kg.ReadTSV(tf)
	if err != nil {
		return nil, err
	}

	rf, err := os.Open(filepath.Join(dir, name+".rules.tsv"))
	if err != nil {
		return nil, err
	}
	defer rf.Close()
	rules, err := relax.ReadTSV(rf, st.Dict())
	if err != nil {
		return nil, err
	}

	qf, err := os.Open(filepath.Join(dir, name+".queries.txt"))
	if err != nil {
		return nil, err
	}
	defer qf.Close()
	ds := &datagen.Dataset{Name: name, Store: st, Rules: rules}
	sc := bufio.NewScanner(qf)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	qname := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			qname = strings.TrimSpace(strings.TrimPrefix(line, "#"))
			continue
		}
		pq, err := sparql.Parse(line, st.Dict())
		if err != nil {
			return nil, fmt.Errorf("query %q: %v", qname, err)
		}
		if qname == "" {
			qname = fmt.Sprintf("%s-q%02d", name, len(ds.Queries))
		}
		ds.Queries = append(ds.Queries, datagen.QuerySpec{Name: qname, Query: pq.Query})
		qname = ""
	}
	return ds, sc.Err()
}
