package operators

// Prefetch pulls entries from an inner stream on a background goroutine into
// a bounded buffer, so independent join legs produce entries concurrently
// while the rank join consumes them. It is *observationally identical* to
// the inner stream: TopScore is captured at construction, and each buffered
// entry carries the inner stream's Bound as recorded immediately after that
// entry was pulled — exactly the value a sequential consumer would have seen
// at that point. The rank join's corner-bound arithmetic, pull balancing and
// termination therefore behave bit-for-bit as in sequential execution; only
// the wall-clock overlap changes.
//
// The inner stream must be self-contained after construction (all leg
// streams — scans, merges, answer scans — are): it is consumed exclusively
// by the background goroutine, which therefore also owns its release — when
// the goroutine exits, drained or stopped, it returns the leg's join and
// dedup state to the pools (see Release), so a stopped leg is never recycled
// while it is still being pulled. Entries stay valid after that: bindings
// live in arenas, which are never recycled.
type Prefetch struct {
	ch    chan prefetched
	top   float64
	bound float64
	done  bool
	// inner is retained only so TraceTree can walk through the prefetch to
	// the wrapped operator's stats; Next never touches it (the background
	// goroutine owns consumption).
	inner Stream
}

type prefetched struct {
	e     Entry
	bound float64
	ok    bool
}

// DefaultPrefetchDepth is the per-leg buffer used by the executor: deep
// enough to decouple producer bursts from the join's alternating pulls,
// small enough that an early top-k cutoff wastes little work.
const DefaultPrefetchDepth = 64

// NewPrefetch starts prefetching s. Closing stop terminates the background
// goroutine (used by the executor when the top-k is reached before the legs
// are exhausted); consumers must not call Next afterwards.
func NewPrefetch(s Stream, depth int, stop <-chan struct{}) *Prefetch {
	if depth < 1 {
		depth = 1
	}
	p := &Prefetch{
		ch:    make(chan prefetched, depth),
		top:   s.TopScore(),
		inner: s,
	}
	p.bound = s.Bound()
	go func() {
		defer close(p.ch)
		defer Release(s)
		for {
			e, ok := s.Next()
			item := prefetched{e: e, bound: s.Bound(), ok: ok}
			select {
			case p.ch <- item:
			case <-stop:
				return
			}
			if !ok {
				return
			}
		}
	}()
	return p
}

// TopScore implements Stream.
func (p *Prefetch) TopScore() float64 { return p.top }

// Bound implements Stream.
func (p *Prefetch) Bound() float64 { return p.bound }

// Next implements Stream.
func (p *Prefetch) Next() (Entry, bool) {
	if p.done {
		return Entry{}, false
	}
	item, ok := <-p.ch
	if !ok {
		// Channel closed by stop: treat as exhausted without touching the
		// bound (nothing observes it after a cancelled run).
		p.done = true
		return Entry{}, false
	}
	p.bound = item.bound
	if !item.ok {
		p.done = true
		return Entry{}, false
	}
	return item.e, true
}
