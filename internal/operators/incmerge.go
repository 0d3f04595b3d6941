package operators

import (
	"specqp/internal/kg"
	"specqp/internal/trace"
)

// IncrementalMerge folds one triple pattern's original match stream and the
// streams of all its relaxations into a single stream sorted by effective
// score (weight × normalised score), deduplicating bindings across inputs
// (the first occurrence carries the maximum effective score, satisfying the
// max-over-derivations rule of Definition 8).
//
// The implementation is a lazy k-way heap merge: each input advances only
// when its current head is globally next, so lists whose relaxation weight is
// low are barely read — this is exactly what makes TriniT cheaper than the
// naive evaluate-everything baseline. Dedup is integer-keyed (packed
// kg.BindingKeys) and the head heap is hand-rolled, so steady-state merging
// allocates nothing beyond what the inputs themselves produce.
type IncrementalMerge struct {
	inputs  []Stream
	heads   []mergeHead
	seen    keySet
	keyer   *kg.Keyer
	counter *Counter
	pulls   int  // input pulls since the last abort poll
	aborted bool // sticky: once aborted, the stream stays exhausted
	top     float64
	last    float64
	primed  bool
	stats   *trace.Node // nil unless the execution is traced
}

type mergeHead struct {
	entry Entry
	src   int
}

// heapLess orders heads by score descending with input index as tie-break.
func (h mergeHead) heapLess(o mergeHead) bool {
	if h.entry.Score != o.entry.Score {
		return h.entry.Score > o.entry.Score
	}
	return h.src < o.src
}

// NewIncrementalMerge merges the given streams. Inputs must each be sorted by
// score descending; stream 0 is conventionally the original pattern. The
// counter records merged-entry creations.
func NewIncrementalMerge(inputs []Stream, c *Counter) *IncrementalMerge {
	m := &IncrementalMerge{
		inputs:  inputs,
		keyer:   kg.NewKeyer(),
		counter: c,
	}
	if c.Tracing() {
		m.stats = trace.NewNode("IncrementalMerge")
	}
	return m
}

func (m *IncrementalMerge) prime() {
	if m.primed {
		return
	}
	m.primed = true
	for i, in := range m.inputs {
		if e, ok := in.Next(); ok {
			heapPush(&m.heads, mergeHead{entry: e, src: i})
		}
	}
	if len(m.heads) > 0 {
		m.top = m.heads[0].entry.Score
	}
	m.last = m.top
	m.stats.SetTop(m.top)
}

// TopScore implements Stream.
func (m *IncrementalMerge) TopScore() float64 {
	m.prime()
	return m.top
}

// Bound implements Stream.
func (m *IncrementalMerge) Bound() float64 {
	m.prime()
	return m.last
}

// Next implements Stream.
//
// Dedup-heavy inputs can make one Next call pull many entries before an
// unseen binding surfaces, so the loop polls the counter's abort hook every
// AbortStride pulls (see RankJoin.Next) and reports exhaustion when it fires.
func (m *IncrementalMerge) Next() (Entry, bool) {
	m.prime()
	for len(m.heads) > 0 {
		if m.aborted {
			return Entry{}, false
		}
		if m.pulls >= AbortStride {
			m.pulls = 0
			m.stats.AbortPoll()
			if m.counter.Aborted() {
				m.aborted = true
				m.last = 0
				return Entry{}, false
			}
		}
		m.pulls++
		m.stats.Pull()
		h := m.heads[0]
		if e, ok := m.inputs[h.src].Next(); ok {
			m.heads[0] = mergeHead{entry: e, src: h.src}
			heapFixRoot(m.heads)
		} else {
			heapPop(&m.heads)
		}
		if !m.seen.add(m.keyer.Key(h.entry.Binding)) {
			m.stats.DedupDrop()
			continue
		}
		m.last = h.entry.Score
		m.counter.Inc()
		if m.stats != nil {
			m.stats.Emit()
			m.stats.SampleBound(h.entry.Score)
		}
		return h.entry, true
	}
	m.last = 0
	return Entry{}, false
}
