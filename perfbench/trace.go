package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Spans of one request share Req; Parent is the
// span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs call the same code at no cost.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	reqs  atomic.Int64
	mu    sync.Mutex
	spans []span
	// goroutines maps a goroutine id to the (request, span) it is serving,
	// so Backend calls made from the server's handler goroutine find their
	// parent handler span.
	goroutines sync.Map
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request returns a fresh request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	return t.reqs.Add(1)
}

// newID reserves a span id, for spans whose children finish first.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a span with a reserved id (0 reserves one) and returns it.
func (t *tracer) record(id int64, name string, req, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	n     int
	total time.Duration
	self  time.Duration
}

func (l layerTime) meanUS() float64     { return ratio(us(l.total), float64(l.n)) }
func (l layerTime) meanSelfUS() float64 { return ratio(us(l.self), float64(l.n)) }

// aggregate sums span durations and self times by name. Self time is a
// span's duration minus the part of it its children cover; children of one
// span never overlap here, so that is the sum of their durations, clipped to
// the parent's interval.
func (t *tracer) aggregate() map[string]layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[int64]span, len(t.spans))
	for _, s := range t.spans {
		byID[s.ID] = s
	}
	covered := make(map[int64]int64)
	for _, s := range t.spans {
		if p, ok := byID[s.Parent]; ok && s.Parent != 0 {
			lo, hi := max(s.Start, p.Start), min(s.End, p.End)
			if hi > lo {
				covered[s.Parent] += hi - lo
			}
		}
	}
	out := make(map[string]layerTime)
	for _, s := range t.spans {
		l := out[s.Name]
		l.n++
		l.total += time.Duration(s.End - s.Start)
		l.self += time.Duration(max(0, s.End-s.Start-covered[s.ID]))
		out[s.Name] = l
	}
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request and span ids travel from the load generator to the server in these
// headers.
const (
	headerReq  = "X-Perfbench-Req"
	headerSpan = "X-Perfbench-Span"
)

// spanRef identifies the span a goroutine is currently inside.
type spanRef struct{ req, span int64 }

// enter marks the calling goroutine as serving ref until the returned
// function runs.
func (t *tracer) enter(ref spanRef) func() {
	g := goid()
	t.goroutines.Store(g, ref)
	return func() { t.goroutines.Delete(g) }
}

// current returns the span the calling goroutine is inside, if any.
func (t *tracer) current() spanRef {
	if t == nil {
		return spanRef{}
	}
	v, _ := t.goroutines.Load(goid())
	ref, _ := v.(spanRef)
	return ref
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Only traced runs call it.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// traceHandler wraps the server's http.Handler in a "server.handler" span,
// a child of the client span named in the request headers.
func traceHandler(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(headerReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		id := t.newID()
		leave := t.enter(spanRef{req: req, span: id})
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(id, "server.handler", req, parent, start, time.Now())
		leave()
	})
}
