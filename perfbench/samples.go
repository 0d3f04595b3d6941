package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// sample is one latency, the time its operation completed, and, for a
// query, the pass over the workload's fixed query set it belongs to.
type sample struct {
	end  time.Time
	d    time.Duration
	pass int
}

// samples is a set of latencies.
type samples []sample

func (s *samples) add(end time.Time, d time.Duration) { *s = append(*s, sample{end: end, d: d}) }

// addPass adds the latency of one query of pass pass.
func (s *samples) addPass(end time.Time, d time.Duration, pass int) {
	*s = append(*s, sample{end: end, d: d, pass: pass})
}

// complete returns the complete passes' samples, pass by pass in pass
// order. A complete pass holds the most samples of any pass: it timed every
// query of the fixed set once, so every complete pass measures the same mix
// whatever the seed. A run's last pass is usually cut short and left out.
func (s samples) complete() []samples {
	byPass := make(map[int]samples)
	most := 0
	for _, x := range s {
		byPass[x.pass] = append(byPass[x.pass], x)
		most = max(most, len(byPass[x.pass]))
	}
	ids := make([]int, 0, len(byPass))
	for id, ps := range byPass {
		if len(ps) == most {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]samples, len(ids))
	for i, id := range ids {
		out[i] = byPass[id]
	}
	return out
}

// passQuantile is the p-quantile over the samples of the complete passes.
// The queries differ in cost by an order of magnitude, so a quantile over a
// stretch of time or a cut-short pass moves with which queries it happened
// to send; the complete passes always send the same ones.
func (s samples) passQuantile(p float64) time.Duration {
	var all samples
	for _, ps := range s.complete() {
		all = append(all, ps...)
	}
	return all.quantile(p)
}

// passString lists each complete pass's p-quantile in ms, for the report.
func (s samples) passString(p float64) string {
	var b strings.Builder
	for i, ps := range s.complete() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", ms(ps.quantile(p)))
	}
	return b.String()
}

// quantile returns the nearest-rank p-quantile of s (0 when s is empty).
func (s samples) quantile(p float64) time.Duration {
	ds := make([]time.Duration, len(s))
	for i, x := range s {
		ds[i] = x.d
	}
	return quantile(ds, p)
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range s {
		sum += x.d
	}
	return sum / time.Duration(len(s))
}

// rounds is how many equal slices of the measured phase the round figures
// are taken over.
const rounds = 10

// split divides s into rounds equal slices of [from, to) by completion time.
func (s samples) split(from, to time.Time) []samples {
	out := make([]samples, rounds)
	length := to.Sub(from) / rounds
	for _, x := range s {
		i := min(max(int(x.end.Sub(from)/max(length, 1)), 0), rounds-1)
		out[i] = append(out[i], x)
	}
	return out
}

// roundQuantile is the median over the rounds of [from, to) of each round's
// p-quantile. A stretch of the run in which the shared host stalled the
// process moves the rounds it falls in, not the figure.
func (s samples) roundQuantile(from, to time.Time, p float64) time.Duration {
	var qs []time.Duration
	for _, r := range s.split(from, to) {
		if len(r) > 0 {
			qs = append(qs, r.quantile(p))
		}
	}
	return median(qs)
}

// roundString lists each round's p-quantile in ms, for the report.
func (s samples) roundString(from, to time.Time, p float64) string {
	var b strings.Builder
	for i, r := range s.split(from, to) {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%.3f", ms(r.quantile(p)))
	}
	return b.String()
}

// describe states a timing's sample count, its quantiles, and the highest
// percentile that still has at least ten samples beyond it.
func (s samples) describe(name string) string {
	n := len(s)
	if n == 0 {
		return fmt.Sprintf("%s: no samples", name)
	}
	top := "none"
	if n > 10 {
		top = fmt.Sprintf("p%.2f", 100*(1-10/float64(n)))
	}
	return fmt.Sprintf("%s: n=%d p50=%.3fms p90=%.3fms p95=%.3fms p98=%.3fms p99=%.3fms tail=%.3fms (%d samples beyond p99; highest percentile with 10 beyond: %s)",
		name, n, ms(s.quantile(0.5)), ms(s.quantile(0.9)), ms(s.quantile(0.95)), ms(s.quantile(0.98)), ms(s.quantile(0.99)), ms(s.tail()),
		n-int(math.Ceil(0.99*float64(n))), top)
}

// tail is the timing's tail: p99 when at least ten samples lie beyond it
// (1000 or more samples), otherwise the highest percentile that still has ten
// samples beyond it. Runs with a fixed sample count, like the open loop's,
// therefore always report the same percentile.
func (s samples) tail() time.Duration {
	n := len(s)
	if n <= 10 {
		return s.quantile(1)
	}
	return s.quantile(min(0.99, 1-10/float64(n)))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank p-quantile of ds (0 when ds is empty).
func quantile(ds []time.Duration, p float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median returns the median of the durations.
func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
