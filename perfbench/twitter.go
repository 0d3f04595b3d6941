package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"specqp"
	"specqp/internal/server"
)

// twitterK is the k of every twitter-serve query.
const twitterK = 10

// service is internal/server over an engine on a loopback listener.
type service struct {
	eng  *specqp.Engine
	srv  *server.Server
	hs   *http.Server
	done chan error
	url  string
}

// startService is twitter-serve's set-up: TSV bytes to a server accepting
// connections. Traced runs wrap the Backend and the http.Handler in spans.
func startService(in *inputs, tr *tracer) (*service, error) {
	eng, err := in.buildEngine(tr)
	if err != nil {
		return nil, err
	}
	var backend server.Backend = eng
	if tr != nil {
		backend = &tracedBackend{Engine: eng, tr: tr}
	}
	srv := server.New(server.Config{Backend: backend})
	h := srv.Handler()
	if tr != nil {
		h = traceHandler(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{eng: eng, srv: srv, done: make(chan error, 1), url: "http://" + ln.Addr().String()}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for its serve loop to end.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Drain(ctx)
	if serr := s.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.done; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// tracedBackend records every Backend call the server makes as a span under
// the handler span of the goroutine making it.
type tracedBackend struct {
	*specqp.Engine
	tr *tracer
}

func (b *tracedBackend) done(name string, start time.Time) {
	ref := b.tr.current()
	b.tr.record(0, name, ref.req, ref.span, start, time.Now())
}

func (b *tracedBackend) ParseSPARQL(src string) (specqp.Query, error) {
	defer b.done("sparql.parse", time.Now())
	return b.Engine.ParseSPARQL(src)
}

func (b *tracedBackend) QueryContext(ctx context.Context, q specqp.Query, k int, mode specqp.Mode) (specqp.Result, error) {
	defer b.done("server.backend", time.Now())
	return b.Engine.QueryContext(ctx, q, k, mode)
}

// QueryStream's span includes the emit callbacks, which encode and flush
// each answer line from inside the engine call.
func (b *tracedBackend) QueryStream(ctx context.Context, q specqp.Query, k int, mode specqp.Mode, emit specqp.AnswerEmitter) (specqp.Result, error) {
	defer b.done("server.backend", time.Now())
	return b.Engine.QueryStream(ctx, q, k, mode, emit)
}

func (b *tracedBackend) InsertSPO(s, p, o string, score float64) error {
	defer b.done("server.backend", time.Now())
	return b.Engine.InsertSPO(s, p, o, score)
}

// request is one scheduled request of the open loop.
type request struct {
	offset     time.Duration // from the start of the run
	due        time.Time
	dispatched time.Time
	query      int // query index, or -1 for an insert
	stream     bool
	pass       int
	body       []byte
}

// wireAnswer is one answer as the server encodes it.
type wireAnswer struct {
	Binding map[string]string `json:"binding"`
	Score   float64           `json:"score"`
	Relaxed uint32            `json:"relaxed"`
}

type wireResponse struct {
	Answers []wireAnswer `json:"answers"`
	Tier    int          `json:"tier"`
	Error   string       `json:"error"`
}

type wireLine struct {
	Answer  *wireAnswer `json:"answer"`
	Trailer *struct {
		Answers int    `json:"answers"`
		Tier    int    `json:"tier"`
		Error   string `json:"error"`
	} `json:"trailer"`
}

// reply is what a client observed for one request.
type reply struct {
	answers []wireAnswer
	first   time.Time // first answer line of a streamed query
}

// client is one of the load generator's connections.
type client struct {
	url string
	hc  *http.Client
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends one request and checks the reply's shape. A non-200 status, a
// degraded tier or an error reported by the server fails the request.
func (c *client) do(path string, body []byte, stream bool, tr *tracer, req int64) (reply, error) {
	var rep reply
	hr, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return rep, err
	}
	hr.Header.Set("Content-Type", "application/json")
	var id int64
	if tr != nil {
		id = tr.newID()
		hr.Header.Set(headerReq, strconv.FormatInt(req, 10))
		hr.Header.Set(headerSpan, strconv.FormatInt(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		return rep, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		tr.record(id, "client.request", req, 0, start, time.Now())
	}()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return rep, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if path != "/query" {
		var ack struct {
			OK bool `json:"ok"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil || !ack.OK {
			return rep, fmt.Errorf("mutation not acknowledged (%v)", err)
		}
		return rep, nil
	}
	if !stream {
		var wr wireResponse
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil {
			return rep, err
		}
		if wr.Error != "" || wr.Tier != 0 {
			return rep, fmt.Errorf("tier %d error %q", wr.Tier, wr.Error)
		}
		rep.answers = wr.Answers
		return rep, nil
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return rep, fmt.Errorf("stream ended without a trailer: %v", err)
		}
		var wl wireLine
		if err := json.Unmarshal(line, &wl); err != nil {
			return rep, err
		}
		switch {
		case wl.Answer != nil:
			if rep.first.IsZero() {
				rep.first = time.Now()
			}
			rep.answers = append(rep.answers, *wl.Answer)
		case wl.Trailer != nil:
			t := wl.Trailer
			if t.Error != "" || t.Tier != 0 || t.Answers != len(rep.answers) {
				return rep, fmt.Errorf("trailer: tier %d error %q, %d answers for %d lines", t.Tier, t.Error, t.Answers, len(rep.answers))
			}
			return rep, nil
		default:
			return rep, fmt.Errorf("unexpected line %s", bytes.TrimSpace(line))
		}
	}
}

// checkWire verifies a top-k reply: at most k answers, scores non-increasing.
func checkWire(as []wireAnswer, k int) error {
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

// corruptWire is corruptAnswers for answers received over HTTP.
func corruptWire(as []wireAnswer) []wireAnswer {
	out := append([]wireAnswer(nil), as...)
	if len(out) == 0 {
		out = append(out, wireAnswer{})
	}
	return append(out, wireAnswer{Score: math.MaxFloat64})
}

func wireString(as []wireAnswer) string {
	var b bytes.Buffer
	for _, a := range as {
		fmt.Fprintf(&b, "%s|%v|%d;", canonicalBinding(a.Binding), a.Score, a.Relaxed)
	}
	return b.String()
}

// schedule is the open loop's request sequence. Its queries are whole passes
// over a fixed multiset — every query three times, one of them streamed —
// as many as fit in the run at the rate, each pass shuffled by the seed:
// every seed sends the same queries and streams the same ones, and decides
// only their order within a pass. Every eighth request is an insert of a new
// tweet's hashtag. The n requests arrive as a Poisson process at the rate,
// conditioned on its count (sorted uniform offsets over n / rate seconds).
func schedule(cfg config, in *inputs, nq int) []*request {
	rng := rand.New(rand.NewSource(cfg.seed))
	type item struct {
		query  int
		stream bool
		pass   int
	}
	passes := max(1, int(cfg.rate*cfg.seconds.Seconds()*7/8)/(3*nq))
	var items []item
	for p := 0; p < passes; p++ {
		pass := make([]item, 0, 3*nq)
		for q := 0; q < nq; q++ {
			pass = append(pass, item{q, false, p}, item{q, false, p}, item{q, true, p})
		}
		rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		items = append(items, pass...)
	}
	m := newMutator(in, cfg.seed, "tweet", 100, 0, true)
	var reqs []*request
	for i, next := 0, 0; next < len(items); i++ {
		r := &request{query: -1}
		if i%8 == 7 {
			r.body = m.next().body()
		} else {
			r.query, r.stream, r.pass = items[next].query, items[next].stream, items[next].pass
			next++
			r.body = queryBody(in.queries[r.query], r.stream)
		}
		reqs = append(reqs, r)
	}
	span := float64(len(reqs)) / cfg.rate
	offsets := make([]float64, len(reqs))
	for i := range offsets {
		offsets[i] = rng.Float64() * span
	}
	sort.Float64s(offsets)
	for i, r := range reqs {
		r.offset = time.Duration(offsets[i] * float64(time.Second))
	}
	return reqs
}

// queryBody is a /query request body for a Spec-QP top-k query.
func queryBody(src string, stream bool) []byte {
	b, _ := json.Marshal(map[string]any{"query": src, "k": twitterK, "mode": "spec-qp", "stream": stream})
	return b
}

// body is the mutation's /insert request body.
func (mu mutation) body() []byte {
	b, _ := json.Marshal(map[string]any{"s": mu.s, "p": mu.p, "o": mu.o, "score": mu.score})
	return b
}

// loadStats is what the open loop measured.
type loadStats struct {
	query, first, mutation samples
	late, connWait         samples
	queries, mutations     int
	// from is the first request's due time, to the last reply.
	from, to time.Time
}

// runOpenLoop sends the schedule over two connections. Each request is
// timed from when it was due, so a stall also bills the requests queued
// behind it.
func runOpenLoop(reqs []*request, url string, tr *tracer, corrupt bool, o *outcome) loadStats {
	var st loadStats
	ch := make(chan *request, len(reqs))
	var mu sync.Mutex
	var wg sync.WaitGroup
	begin := time.Now().Add(50 * time.Millisecond)
	var last time.Time
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(url)
			defer cl.hc.CloseIdleConnections()
			for r := range ch {
				picked := time.Now()
				path := "/query"
				if r.query < 0 {
					path = "/insert"
				}
				rep, err := cl.do(path, r.body, r.stream, tr, tr.request())
				end := time.Now()
				mu.Lock()
				o.attempted++
				st.connWait.add(picked, picked.Sub(r.dispatched))
				if end.After(last) {
					last = end
				}
				if err == nil && r.query >= 0 {
					if corrupt {
						corrupt = false
						rep.answers = corruptWire(rep.answers)
					}
					if cerr := checkWire(rep.answers, twitterK); cerr != nil {
						o.opWrong("query %d: %v", r.query, cerr)
						mu.Unlock()
						continue
					}
				}
				switch {
				case err != nil:
					o.opFailed("%s (query %d): %v", path, r.query, err)
				case r.query < 0:
					st.mutation.add(end, end.Sub(r.due))
					st.mutations++
				default:
					st.query.addPass(end, end.Sub(r.due), r.pass)
					if r.stream && !rep.first.IsZero() {
						st.first.addPass(end, rep.first.Sub(r.due), r.pass)
					}
					st.queries++
				}
				mu.Unlock()
			}
		}()
	}
	for _, r := range reqs {
		r.due = begin.Add(r.offset)
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		r.dispatched = time.Now()
		st.late.add(r.dispatched, r.dispatched.Sub(r.due))
		ch <- r
	}
	close(ch)
	wg.Wait()
	st.from, st.to = begin, last
	return st
}

// runTwitterServe is the serving workload: internal/server on a loopback
// listener over the Twitter configuration, driven by an open loop at a fixed
// rate. After the run, every query's HTTP answers — buffered and streamed —
// must equal the in-process engine's, and a restart from a snapshot of the
// final state must answer the same.
func runTwitterServe(cfg config, in *inputs, tr *tracer) (*outcome, error) {
	o := newOutcome()
	svc, setups, err := repeatSetup(cfg.setups,
		func(int) (*service, error) { return startService(in, tr) },
		func(_ int, s *service) error { return s.stop() })
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()
	eng := svc.eng
	setupMetrics(eng, setups, o)
	qs, err := parseQueries(eng, in.queries)
	if err != nil {
		return nil, err
	}
	pairs := pairsFor(len(qs), []int{twitterK})
	ref, err := computeReferences(eng, qs, pairs, false, o)
	if err != nil {
		return nil, err
	}
	o.values["precision_at_k"] = ref.precision
	o.values["mem_objects_per_query"] = ref.memObjects

	reqs := schedule(cfg, in, len(qs))
	before := eng.Stats()
	settle()
	alloc0 := totalAlloc()
	ls := runOpenLoop(reqs, svc.url, tr, cfg.corrupt, o)
	alloc := totalAlloc() - alloc0
	o.values["query_p50_ms"] = ms(ls.query.passQuantile(0.5))
	o.values["queries_per_s"] = ratio(float64(ls.queries), ls.to.Sub(ls.from).Seconds())
	o.values["first_answer_p50_ms"] = ms(ls.first.passQuantile(0.5))
	o.values["alloc_bytes_per_query"] = ratio(float64(alloc), float64(ls.queries))
	o.note("open loop: %d requests at %g/s over %.1fs (%d queries, %d inserts); latency timed from each request's due time",
		len(reqs), cfg.rate, float64(len(reqs))/cfg.rate, ls.queries, ls.mutations)
	o.note("%s", ls.query.describe("query latency"))
	o.note("query p50 per pass (ms): %s", ls.query.passString(0.5))
	o.note("%s", ls.first.describe("first NDJSON answer (streamed queries)"))
	o.note("first answer p50 per pass (ms): %s", ls.first.passString(0.5))
	o.note("%s", ls.mutation.describe("insert acknowledgement"))
	o.note("%s", ls.late.describe("generator lateness"))
	o.note("alloc_bytes_per_query counts the server's, the client's and the inserts' allocations")
	sm := svc.srv.Metrics()
	shed := sm.ShedRate.Load() + sm.ShedQueue.Load() + sm.ShedDraining.Load() + sm.ShedCanceled.Load()
	degraded := sm.Degraded.Load()
	o.note("server: %d shed, %d degraded", shed, degraded)

	if tr != nil {
		d := statsDelta(before, eng.Stats())
		cacheLayers(d, o)
		compactionLayers(d, o)
		agg := spanLayers(tr, o)
		o.values["sparql.parse_us"] = agg["sparql.parse"].meanUS()
		o.values["server.handler_us"] = agg["server.handler"].meanUS()
		o.values["server.backend_us"] = agg["server.backend"].meanUS()
		o.values["server.self_us"] = agg["server.handler"].meanSelfUS()
		o.values["client.overhead_us"] = agg["client.request"].meanSelfUS()
		o.values["server.shed"] = float64(shed)
		o.values["server.degraded"] = float64(degraded)
		o.values["loadgen.late_p99_ms"] = ms(ls.late.quantile(0.99))
		o.values["loadgen.conn_wait_us"] = us(ls.connWait.mean())
		counterPass(eng, qs, pairs, o)
	}

	// The write probe: in-process inserts of new tweets, each timed to its
	// acknowledgement. The open loop's own inserts, one request in eight, are
	// too few for a steady tail (the report lists them), and a closed loop of
	// HTTP inserts — about 50µs each over loopback — moved by more than a
	// quarter between runs on a shared host.
	settle()
	probe := newMutator(in, cfg.seed, "probe", 100, 0, true)
	ws := writeLoop(probe, engineWriter(eng, tr), time.Now().Add(cfg.probe), o)
	writeMetrics(ws, o)
	o.note("write probe: in-process inserts for %v after the open loop", cfg.probe)

	cl := newClient(svc.url)

	// The end-of-run gate: HTTP answers equal in-process answers, buffered
	// and streamed.
	for qi, q := range qs {
		res, err := eng.QueryContext(context.Background(), q, twitterK, specqp.ModeSpecQP)
		if err != nil {
			return nil, err
		}
		want := decodeAll(eng, q, res.Answers)
		for _, stream := range []bool{false, true} {
			rep, err := cl.do("/query", queryBody(in.queries[qi], stream), stream, nil, 0)
			if err != nil {
				o.gateFailed("end-of-run query %d (stream=%v): %v", qi, stream, err)
				continue
			}
			if got := wireString(rep.answers); got != want {
				o.gateFailed("end-of-run query %d (stream=%v): HTTP answers differ from the engine's", qi, stream)
			}
		}
	}
	cl.hc.CloseIdleConnections()
	stopped = true
	if err := svc.stop(); err != nil {
		return nil, err
	}
	if err := restartFromSnapshot(in, eng, qs, o); err != nil {
		return nil, err
	}
	return o, nil
}
