package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"specqp"
	"specqp/internal/datagen"
	"specqp/internal/kg"
	"specqp/internal/relax"
	"specqp/internal/sparql"
)

// inputs is one workload's generated input. The engine under test receives
// only these bytes — triples and rules serialised as TSV exactly as
// `specqp-serve -triples/-rules` loads them — and the SPARQL query strings.
// The vocabulary fields drive the mutation stream from the dataset's own
// terms.
type inputs struct {
	dataset string
	triples []byte
	rules   []byte
	queries []string

	// pred is the predicate the queries join on (rdf:type, hasTag); objects
	// are the constants the queries ask for; subjects are existing subjects
	// carrying pred; facts are existing (subject, object) pairs of pred.
	pred     string
	objects  []string
	subjects []string
	facts    [][2]string
	maxScore float64
}

// dataSeed is the generators' seed: every run measures the dataset
// `specqp-datagen` writes by default, whatever the load's --seed.
const dataSeed = 1

// makeInputs generates a dataset with the in-repo generators and serialises
// it.
func makeInputs(dataset string, scale float64) (*inputs, error) {
	var ds *datagen.Dataset
	var err error
	switch dataset {
	case "xkg":
		cfg := datagen.XKGConfig{Seed: dataSeed, Entities: int(20000 * scale)}
		if scale < 1 {
			cfg.RelationTriples = int(20000 * scale)
		}
		ds, err = datagen.XKG(cfg)
	case "twitter":
		ds, err = datagen.Twitter(datagen.TwitterConfig{Seed: dataSeed, Tweets: int(15000 * scale)})
	default:
		err = fmt.Errorf("unknown dataset %q", dataset)
	}
	if err != nil {
		return nil, err
	}
	st, dict := ds.Store, ds.Store.Dict()
	in := &inputs{dataset: dataset}
	var tb, rb bytes.Buffer
	if err := st.WriteTSV(&tb); err != nil {
		return nil, err
	}
	if err := ds.Rules.WriteTSV(&rb, dict); err != nil {
		return nil, err
	}
	in.triples, in.rules = tb.Bytes(), rb.Bytes()

	objects := make(map[kg.ID]bool)
	var pred kg.ID
	for _, qs := range ds.Queries {
		in.queries = append(in.queries, sparql.Render(qs.Query, dict))
		for _, p := range qs.Query.Patterns {
			if !p.P.IsVar && !p.O.IsVar {
				pred = p.P.ID
				objects[p.O.ID] = true
			}
		}
	}
	if len(objects) == 0 {
		return nil, fmt.Errorf("%s: no constant query objects to mutate", dataset)
	}
	in.pred = dict.Decode(pred)
	for id := range objects {
		in.objects = append(in.objects, dict.Decode(id))
	}
	sort.Strings(in.objects)

	// Existing subjects and facts of pred, sampled evenly over the store.
	seen := make(map[kg.ID]bool)
	stride := max(1, st.Len()/8192)
	for i := 0; i < st.Len(); i += stride {
		t := st.Triple(int32(i))
		if t.P != pred {
			continue
		}
		in.facts = append(in.facts, [2]string{dict.Decode(t.S), dict.Decode(t.O)})
		if !seen[t.S] {
			seen[t.S] = true
			in.subjects = append(in.subjects, dict.Decode(t.S))
		}
	}
	for i := 0; i < st.Len(); i++ {
		in.maxScore = max(in.maxScore, st.Triple(int32(i)).Score)
	}
	if len(in.subjects) == 0 {
		return nil, fmt.Errorf("%s: no subjects of %s", dataset, in.pred)
	}
	return in, nil
}

// loadStore is kg.ReadTSV over the triples, timed as the kg.load_freeze
// layer (parse, intern and freeze).
func (in *inputs) loadStore(tr *tracer) (*kg.Store, error) {
	start := time.Now()
	st, err := kg.ReadTSV(bytes.NewReader(in.triples))
	tr.record(0, "kg.load_freeze", 0, 0, start, time.Now())
	return st, err
}

// loadRules reads the rules TSV into rs against the engine's dictionary.
func (in *inputs) loadRules(rs *specqp.RuleSet, d *kg.Dict) error {
	return relax.ReadTSVInto(rs, bytes.NewReader(in.rules), d)
}

// buildEngine is the in-memory set-up: TSV bytes to an engine ready to
// answer, with default Options (the flat layout).
func (in *inputs) buildEngine(tr *tracer) (*specqp.Engine, error) {
	st, err := in.loadStore(tr)
	if err != nil {
		return nil, err
	}
	rules := specqp.NewRuleSet()
	if err := in.loadRules(rules, st.Dict()); err != nil {
		return nil, err
	}
	return specqp.NewEngineWith(st, rules, specqp.Options{}), nil
}

// openDurable is the durable set-up: the store bootstraps a fresh WAL
// directory (an opening checkpoint persists it), then the rules load against
// the engine's dictionary, as specqp-serve -wal does.
func (in *inputs) openDurable(dir string, tr *tracer) (*specqp.Engine, error) {
	st, err := in.loadStore(tr)
	if err != nil {
		return nil, err
	}
	rules := specqp.NewRuleSet()
	eng, err := specqp.OpenDurableWith(dir, st, rules, specqp.Options{})
	if err != nil {
		return nil, err
	}
	if err := in.loadRules(rules, eng.Graph().Dict()); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// recoverDurable reopens a closed WAL directory.
func (in *inputs) recoverDurable(dir string) (*specqp.Engine, error) {
	rules := specqp.NewRuleSet()
	eng, err := specqp.OpenDurable(dir, rules, specqp.Options{})
	if err != nil {
		return nil, err
	}
	if err := in.loadRules(rules, eng.Graph().Dict()); err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

// reloadSnapshot is the restart path of an in-memory engine: its final state,
// written with kg.WriteGraphBinary, loads back as the `.bin` form of
// specqp-serve -triples.
func (in *inputs) reloadSnapshot(snap []byte) (*specqp.Engine, error) {
	st, err := kg.ReadBinary(bytes.NewReader(snap))
	if err != nil {
		return nil, err
	}
	rules := specqp.NewRuleSet()
	if err := in.loadRules(rules, st.Dict()); err != nil {
		return nil, err
	}
	return specqp.NewEngineWith(st, rules, specqp.Options{}), nil
}

// repeatSetup runs build n times and keeps the last result; setup_s is the
// median of the n durations. discard releases a result that is not kept.
func repeatSetup[T any](n int, build func(i int) (T, error), discard func(i int, v T) error) (T, []time.Duration, error) {
	var kept T
	var times []time.Duration
	for i := 0; i < n; i++ {
		if i > 0 {
			if err := discard(i-1, kept); err != nil {
				return kept, nil, err
			}
		}
		settle()
		start := time.Now()
		v, err := build(i)
		if err != nil {
			return kept, nil, err
		}
		times = append(times, time.Since(start))
		kept = v
	}
	return kept, times, nil
}

// parseQueries parses the query strings against the engine's dictionary.
func parseQueries(eng *specqp.Engine, srcs []string) ([]specqp.Query, error) {
	out := make([]specqp.Query, len(srcs))
	for i, src := range srcs {
		q, err := eng.ParseSPARQL(src)
		if err != nil {
			return nil, fmt.Errorf("query %d: %v", i, err)
		}
		out[i] = q
	}
	return out, nil
}

// mutation is one write of the mutation stream.
type mutation struct {
	op      string // insert, update or delete
	s, p, o string
	score   float64
}

// mutator generates writes from the dataset's own terms: inserts of new
// facts (an existing subject, or with freshSubjects a new one, gets one of
// the queried objects), re-scores of existing facts, and deletes of facts it
// inserted earlier, in the proportions of mix (percent insert, update).
type mutator struct {
	in            *inputs
	rng           *rand.Rand
	tag           string
	freshSubjects bool
	insertPct     int
	updatePct     int
	known         map[[2]string]bool
	inserted      [][2]string
	n             int
}

func newMutator(in *inputs, seed int64, tag string, insertPct, updatePct int, freshSubjects bool) *mutator {
	m := &mutator{
		in: in, rng: rand.New(rand.NewSource(seed)), tag: tag,
		freshSubjects: freshSubjects, insertPct: insertPct, updatePct: updatePct,
		known: make(map[[2]string]bool, len(in.facts)),
	}
	for _, f := range in.facts {
		m.known[f] = true
	}
	return m
}

func (m *mutator) score() float64 { return 1 + m.rng.Float64()*m.in.maxScore }

func (m *mutator) next() mutation {
	m.n++
	r := m.rng.Intn(100)
	switch {
	case r >= m.insertPct+m.updatePct && len(m.inserted) > 0:
		i := m.rng.Intn(len(m.inserted))
		f := m.inserted[i]
		m.inserted[i] = m.inserted[len(m.inserted)-1]
		m.inserted = m.inserted[:len(m.inserted)-1]
		delete(m.known, f)
		return mutation{op: "delete", s: f[0], p: m.in.pred, o: f[1]}
	case r >= m.insertPct && r < m.insertPct+m.updatePct:
		var f [2]string
		if len(m.inserted) > 0 && m.rng.Intn(2) == 0 {
			f = m.inserted[m.rng.Intn(len(m.inserted))]
		} else {
			f = m.in.facts[m.rng.Intn(len(m.in.facts))]
		}
		return mutation{op: "update", s: f[0], p: m.in.pred, o: f[1], score: m.score()}
	}
	for {
		var f [2]string
		if m.freshSubjects {
			f[0] = fmt.Sprintf("bench:%s:%d", m.tag, m.n)
		} else {
			f[0] = m.in.subjects[m.rng.Intn(len(m.in.subjects))]
		}
		f[1] = m.in.objects[m.rng.Intn(len(m.in.objects))]
		if !m.known[f] {
			m.known[f] = true
			m.inserted = append(m.inserted, f)
			return mutation{op: "insert", s: f[0], p: m.in.pred, o: f[1], score: m.score()}
		}
	}
}

// engineWriter applies mutations to the engine in-process, each traced as an
// "engine.mutation" span.
func engineWriter(eng *specqp.Engine, tr *tracer) func(mutation) error {
	return func(mu mutation) error {
		start := time.Now()
		err := mu.apply(eng)
		tr.record(0, "engine.mutation", tr.request(), 0, start, time.Now())
		return err
	}
}

// apply performs the mutation on the engine.
func (mu mutation) apply(eng *specqp.Engine) error {
	switch mu.op {
	case "insert":
		return eng.InsertSPO(mu.s, mu.p, mu.o, mu.score)
	case "update":
		return eng.UpdateSPO(mu.s, mu.p, mu.o, mu.score)
	default:
		n, err := eng.DeleteSPO(mu.s, mu.p, mu.o)
		if err == nil && n == 0 {
			err = fmt.Errorf("delete %s %s %s removed nothing", mu.s, mu.p, mu.o)
		}
		return err
	}
}

// removeAll deletes a directory tree, reporting failures on stderr only: a
// leftover WAL directory does not change any measured value.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}
