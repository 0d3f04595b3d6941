package operators

import (
	"math"
	"math/rand"
	"testing"

	"specqp/internal/kg"
)

// sliceStream adapts a fixed entry slice (sorted desc) to Stream, for
// operator tests that need precise control over inputs.
type sliceStream struct {
	entries []Entry
	pos     int
}

func newSliceStream(scores []float64, firstID kg.ID, mask uint32, nvars int) *sliceStream {
	es := make([]Entry, len(scores))
	for i, s := range scores {
		b := kg.NewBinding(nvars)
		b[0] = firstID + kg.ID(i)
		es[i] = Entry{Binding: b, Score: s, Relaxed: mask}
	}
	return &sliceStream{entries: es}
}

func (s *sliceStream) Next() (Entry, bool) {
	if s.pos >= len(s.entries) {
		return Entry{}, false
	}
	e := s.entries[s.pos]
	s.pos++
	return e, true
}

func (s *sliceStream) TopScore() float64 {
	if len(s.entries) == 0 {
		return 0
	}
	return s.entries[0].Score
}

func (s *sliceStream) Bound() float64 {
	if s.pos == 0 {
		return s.TopScore()
	}
	if s.pos >= len(s.entries) {
		return 0
	}
	return s.entries[s.pos-1].Score
}

func TestIncrementalMergeGlobalOrder(t *testing.T) {
	a := newSliceStream([]float64{1.0, 0.5, 0.1}, 0, 0, 1)
	b := newSliceStream([]float64{0.9, 0.6, 0.2}, 100, 1, 1)
	c := &Counter{}
	m := NewIncrementalMerge([]Stream{a, b}, c)
	es := Drain(m)
	if len(es) != 6 {
		t.Fatalf("got %d entries want 6", len(es))
	}
	want := []float64{1.0, 0.9, 0.6, 0.5, 0.2, 0.1}
	for i, e := range es {
		if math.Abs(e.Score-want[i]) > 1e-12 {
			t.Fatalf("position %d: got %v want %v", i, e.Score, want[i])
		}
	}
	if c.Value() != 6 {
		t.Fatalf("counter: got %d want 6", c.Value())
	}
}

func TestIncrementalMergeDedupKeepsMax(t *testing.T) {
	// Same binding (ID 5) appears in both streams with different scores;
	// the merged stream must emit it once with the higher score.
	mk := func(score float64, mask uint32) Entry {
		b := kg.NewBinding(1)
		b[0] = 5
		return Entry{Binding: b, Score: score, Relaxed: mask}
	}
	a := &sliceStream{entries: []Entry{mk(0.9, 0)}}
	b := &sliceStream{entries: []Entry{mk(0.7, 1)}}
	m := NewIncrementalMerge([]Stream{a, b}, nil)
	es := Drain(m)
	if len(es) != 1 {
		t.Fatalf("dedup: got %d entries want 1", len(es))
	}
	if es[0].Score != 0.9 || es[0].Relaxed != 0 {
		t.Fatalf("kept entry: got score=%v mask=%b want 0.9/0", es[0].Score, es[0].Relaxed)
	}
}

func TestIncrementalMergeBounds(t *testing.T) {
	a := newSliceStream([]float64{1.0, 0.5}, 0, 0, 1)
	b := newSliceStream([]float64{0.8}, 100, 0, 1)
	m := NewIncrementalMerge([]Stream{a, b}, nil)
	if m.TopScore() != 1.0 {
		t.Fatalf("top: got %v", m.TopScore())
	}
	m.Next() // 1.0
	m.Next() // 0.8
	if got := m.Bound(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("bound: got %v want 0.8", got)
	}
	Drain(m)
	if m.Bound() != 0 {
		t.Fatalf("exhausted bound: got %v", m.Bound())
	}
}

func TestIncrementalMergeEmptyInputs(t *testing.T) {
	m := NewIncrementalMerge([]Stream{
		&sliceStream{}, &sliceStream{},
	}, nil)
	if m.TopScore() != 0 {
		t.Fatal("empty merge top score must be 0")
	}
	if _, ok := m.Next(); ok {
		t.Fatal("empty merge produced an entry")
	}
}

func TestIncrementalMergeSingleInput(t *testing.T) {
	a := newSliceStream([]float64{0.7, 0.3}, 0, 0, 1)
	m := NewIncrementalMerge([]Stream{a}, nil)
	es := Drain(m)
	if len(es) != 2 || es[0].Score != 0.7 {
		t.Fatalf("single input merge: %v", es)
	}
}

func TestIncrementalMergeLazyConsumption(t *testing.T) {
	// A low-weight input must not be read past its head while the strong
	// input still dominates — the core efficiency property of the operator.
	strong := newSliceStream([]float64{1.0, 0.9, 0.8, 0.7}, 0, 0, 1)
	weak := newSliceStream([]float64{0.2, 0.1}, 100, 0, 1)
	m := NewIncrementalMerge([]Stream{strong, weak}, nil)
	for i := 0; i < 4; i++ {
		m.Next()
	}
	// After 4 pulls all strong entries are emitted; the weak stream should
	// have been advanced at most once past its primed head.
	if weak.pos > 1 {
		t.Fatalf("weak stream over-consumed: pos=%d", weak.pos)
	}
}

func TestIncrementalMergeRandomisedOrderInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var inputs []Stream
		id := kg.ID(0)
		total := 0
		for s := 0; s < 1+rng.Intn(5); s++ {
			n := rng.Intn(20)
			scores := make([]float64, n)
			v := 1.0
			for i := range scores {
				v *= 0.5 + rng.Float64()/2
				scores[i] = v
			}
			inputs = append(inputs, newSliceStream(scores, id, 0, 1))
			id += kg.ID(n)
			total += n
		}
		m := NewIncrementalMerge(inputs, nil)
		es := Drain(m)
		if len(es) != total {
			t.Fatalf("trial %d: got %d entries want %d", trial, len(es), total)
		}
		if !IsSortedDesc(es) {
			t.Fatalf("trial %d: merge output not sorted", trial)
		}
	}
}
