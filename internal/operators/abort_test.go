package operators

import (
	"testing"

	"specqp/internal/kg"
)

// countingStream wraps a Stream and counts Next pulls, so abort tests can
// assert the operator stopped consuming input within the AbortStride bound.
type countingStream struct {
	inner Stream
	pulls int
}

func (c *countingStream) Next() (Entry, bool) {
	c.pulls++
	return c.inner.Next()
}
func (c *countingStream) TopScore() float64 { return c.inner.TopScore() }
func (c *countingStream) Bound() float64    { return c.inner.Bound() }

// bigSides builds two n-entry sides sharing every binding, so a full join
// yields n results and requires ~2n input pulls.
func bigSides(n int) (*countingStream, *countingStream) {
	mk := func() *countingStream {
		es := make([]Entry, n)
		for i := 0; i < n; i++ {
			b := kg.NewBinding(1)
			b[0] = kg.ID(i)
			es[i] = Entry{Binding: b, Score: float64(2*n - i)}
		}
		return &countingStream{inner: &sliceStream{entries: es}}
	}
	return mk(), mk()
}

func TestRankJoinAbortBoundsPulls(t *testing.T) {
	const n = 50 * AbortStride
	l, r := bigSides(n)
	c := &Counter{}
	c.SetAbort(func() bool { return true })
	rj := NewRankJoin(l, r, []int{0}, c)
	out := Drain(rj)
	// The abort fires at the first stride boundary: the operator may emit at
	// most a stride's worth of results and must stop pulling input.
	if len(out) > AbortStride {
		t.Fatalf("aborted join emitted %d results (stride %d)", len(out), AbortStride)
	}
	if got := l.pulls + r.pulls; got > 2*AbortStride+2 {
		t.Fatalf("aborted join pulled %d inputs (want <= %d)", got, 2*AbortStride+2)
	}
	// A second Next after abort stays terminated.
	if _, ok := rj.Next(); ok {
		t.Fatal("aborted join produced another entry")
	}
}

func TestRankJoinNoAbortDrainsFully(t *testing.T) {
	const n = 3 * AbortStride
	l, r := bigSides(n)
	c := &Counter{}
	c.SetAbort(func() bool { return false })
	out := Drain(NewRankJoin(l, r, []int{0}, c))
	if len(out) != n {
		t.Fatalf("non-aborted join emitted %d results, want %d", len(out), n)
	}
}

func TestIncrementalMergeAbortBoundsPulls(t *testing.T) {
	const n = 50 * AbortStride
	a, b := bigSides(n)
	c := &Counter{}
	aborted := false
	c.SetAbort(func() bool { return aborted })
	m := NewIncrementalMerge([]Stream{a, b}, c)
	// Consume a few entries live, then abort: the merge must terminate within
	// one stride of further pulls.
	for i := 0; i < 10; i++ {
		if _, ok := m.Next(); !ok {
			t.Fatal("merge exhausted prematurely")
		}
	}
	aborted = true
	extra := 0
	for {
		if _, ok := m.Next(); !ok {
			break
		}
		extra++
		if extra > AbortStride {
			t.Fatalf("merge emitted %d entries after abort (stride %d)", extra, AbortStride)
		}
	}
	if got := a.pulls + b.pulls; got > 10+AbortStride+4 {
		t.Fatalf("aborted merge pulled %d inputs", got)
	}
}
