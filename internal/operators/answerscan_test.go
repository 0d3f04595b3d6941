package operators

import (
	"math"
	"testing"

	"specqp/internal/kg"
)

func answers(scores ...float64) []kg.Answer {
	out := make([]kg.Answer, len(scores))
	for i, s := range scores {
		b := kg.NewBinding(1)
		b[0] = kg.ID(i)
		out[i] = kg.Answer{Binding: b, Score: s}
	}
	return out
}

func TestAnswerScanBasics(t *testing.T) {
	s := NewAnswerScan(answers(1.0, 0.6, 0.2), 0.5, 0b10, nil)
	if s.TopScore() != 0.5 {
		t.Fatalf("top: %v", s.TopScore())
	}
	es := Drain(s)
	if len(es) != 3 {
		t.Fatalf("entries: %d", len(es))
	}
	want := []float64{0.5, 0.3, 0.1}
	for i, e := range es {
		if math.Abs(e.Score-want[i]) > 1e-12 {
			t.Fatalf("score %d: got %v want %v", i, e.Score, want[i])
		}
		if e.Relaxed != 0b10 {
			t.Fatalf("mask: %b", e.Relaxed)
		}
	}
	if s.Bound() != 0 {
		t.Fatalf("exhausted bound: %v", s.Bound())
	}
}

func TestAnswerScanEmpty(t *testing.T) {
	s := NewAnswerScan(nil, 1, 0, nil)
	if s.TopScore() != 0 || s.Bound() != 0 {
		t.Fatal("empty scan bounds")
	}
	if _, ok := s.Next(); ok {
		t.Fatal("empty scan produced entry")
	}
}

func TestAnswerScanCounter(t *testing.T) {
	c := &Counter{}
	Drain(NewAnswerScan(answers(1, 0.5, 0.25), 1, 0, c))
	if c.Value() != 3 {
		t.Fatalf("counter: %d", c.Value())
	}
}

func TestAnswerScanPreservesProvenance(t *testing.T) {
	as := answers(0.9)
	as[0].Relaxed = 0b100
	es := Drain(NewAnswerScan(as, 1, 0b001, nil))
	if es[0].Relaxed != 0b101 {
		t.Fatalf("mask union: %b", es[0].Relaxed)
	}
}

func TestAnswerScanInRankJoin(t *testing.T) {
	// AnswerScan must interoperate with RankJoin as any other stream.
	l := NewAnswerScan(answers(1.0, 0.5), 1, 0, nil)
	r := NewAnswerScan(answers(0.8, 0.4), 1, 0, nil)
	rj := NewRankJoin(l, r, []int{0}, nil)
	es := Drain(rj)
	if len(es) != 2 {
		t.Fatalf("join results: %d", len(es))
	}
	if math.Abs(es[0].Score-1.8) > 1e-12 {
		t.Fatalf("top: %v", es[0].Score)
	}
	if !IsSortedDesc(es) {
		t.Fatal("unsorted")
	}
}
