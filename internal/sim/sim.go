// Package sim provides a deterministic discrete-event simulation engine.
//
// Time is measured in pclocks (1 pclock = 10 ns, a 100 MHz processor
// clock, per Table 1 of the paper). Events are totally ordered by
// (time, insertion sequence) so that simulations are reproducible
// run-to-run regardless of map iteration order or scheduling.
//
// The queue is a timing wheel: a ring of W = 256 FIFO buckets, one per
// pclock of the next W pclocks, plus a small 4-ary overflow heap for
// events scheduled W or more pclocks ahead (under 0.3% of a real run's
// traffic). Every overflow event is kept at now+W or later — each
// advance of now moves the ones that come into range onto the wheel, in
// heap order — so a bucket only ever holds events of one time, and FIFO
// within a bucket is exactly insertion order. The one way to schedule
// is Schedule with a Handler: components implement Handler on pooled
// objects (see internal/machine's event pool), so the steady-state
// schedule/fire cycle allocates nothing.
package sim

import (
	"math/bits"

	"prefetchsim/internal/obs"
)

// Time is a point in simulated time, in pclocks.
type Time int64

// EngineMetrics are the engine's observability instruments (see
// internal/obs): attached with SetMetrics, updated with plain integer
// arithmetic on every dispatch, and read only after the run (or from
// the simulation's own goroutine).
type EngineMetrics struct {
	// Events counts dispatched events.
	Events obs.Counter
	// Queue tracks the pending-event queue depth, sampled at each
	// dispatch; its high-water mark bounds the queue's working set.
	Queue obs.Gauge
}

// Handler is a pre-allocated event callback. Fire runs when the
// event's time arrives, with t the (now current) scheduled time.
// Components implement Handler on pooled objects, so the common
// schedule/fire cycle reuses event slots instead of allocating per
// event.
type Handler interface {
	Fire(t Time)
}

// wheelBits sizes the wheel: W = 1<<wheelBits buckets, one pclock each.
const (
	wheelBits = 8
	wheelSize = 1 << wheelBits
	wheelMask = wheelSize - 1
)

// slot is one wheel entry, threaded into its bucket's FIFO (or the free
// list) by next, a 1-based index into Engine.slots; 0 ends a list.
type slot struct {
	h    Handler
	next uint32
}

// bucket is a FIFO of slots, by 1-based index; head == 0 when empty.
type bucket struct{ head, tail uint32 }

// event is one overflow-heap entry.
type event struct {
	at  Time
	seq uint64
	h   Handler
}

// before is the total order (time, insertion sequence); seq is unique,
// so two events never compare equal.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// maxTime is the far-future sentinel Horizon returns for an empty
// queue: no pending event can bound a component's local progress.
const maxTime = Time(1<<63 - 1)

// Engine is a deterministic event-driven simulator. The zero value is
// ready to use.
type Engine struct {
	now Time
	// n counts pending events: wheel entries plus overflow entries.
	n int
	// horizon is the time of the earliest pending event, maintained on
	// every push and whenever a bucket empties, so the per-op causality
	// check in the processor's fused hot loop is a plain field read.
	// Only meaningful while n > 0.
	horizon Time

	// The wheel: buckets[t&wheelMask] holds the events at time t for
	// t in [now, now+W); occ has bit i set iff bucket i is non-empty.
	buckets [wheelSize]bucket
	occ     [wheelSize / 64]uint64
	// slots backs every bucket's list (slots[0] is unused so index 0
	// can mean "none"); free heads the list of vacated slots.
	slots []slot
	free  uint32

	// ovf is the 4-ary overflow heap of events at now+W or later; seq
	// numbers its pushes.
	ovf []event
	seq uint64

	// met, when non-nil, receives per-dispatch observability updates.
	met *EngineMetrics
}

// SetMetrics attaches the engine's observability instruments. The
// caller owns the struct (typically embedded in its machine, so it
// costs no allocation); nil detaches.
func (e *Engine) SetMetrics(m *EngineMetrics) { e.met = m }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule schedules h to fire at absolute time t. Events at the same
// time fire in call order. Scheduling in the past is a programming
// error and panics: it would silently corrupt causality.
func (e *Engine) Schedule(t Time, h Handler) {
	d := t - e.now
	if d < 0 {
		panic("sim: event scheduled in the past")
	}
	if e.n == 0 || t < e.horizon {
		e.horizon = t
	}
	e.n++
	if d < wheelSize {
		e.pushWheel(t, h)
		return
	}
	e.seq++
	e.pushOverflow(event{at: t, seq: e.seq, h: h})
}

// pushWheel appends h to the FIFO of t's bucket.
func (e *Engine) pushWheel(t Time, h Handler) {
	i := e.free
	if i != 0 {
		e.free = e.slots[i].next
		e.slots[i] = slot{h: h}
	} else {
		if len(e.slots) == 0 {
			e.slots = append(e.slots, slot{})
		}
		i = uint32(len(e.slots))
		e.slots = append(e.slots, slot{h: h})
	}
	bi := int(t) & wheelMask
	b := &e.buckets[bi]
	if b.head == 0 {
		b.head = i
		e.occ[bi>>6] |= 1 << (bi & 63)
	} else {
		e.slots[b.tail].next = i
	}
	b.tail = i
}

// popWheel removes and returns the head of bucket bi, releasing its
// slot, and reports whether the bucket is now empty.
func (e *Engine) popWheel(bi int) (Handler, bool) {
	b := &e.buckets[bi]
	i := b.head
	s := &e.slots[i]
	h := s.h
	b.head = s.next
	*s = slot{next: e.free}
	e.free = i
	if b.head == 0 {
		b.tail = 0
		e.occ[bi>>6] &^= 1 << (bi & 63)
		return h, true
	}
	return h, false
}

// nextBucket returns the first non-empty bucket at or after now's,
// wrapping around the ring. The wheel must be non-empty.
func (e *Engine) nextBucket() int {
	s := int(e.now) & wheelMask
	w := s >> 6
	word := e.occ[w] &^ (1<<(s&63) - 1)
	for k := 0; k <= len(e.occ); k++ {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word)
		}
		w = (w + 1) % len(e.occ)
		word = e.occ[w]
	}
	panic("sim: empty wheel")
}

// advance moves now to t and then every overflow event that comes
// within W of it onto the wheel, in (time, seq) order, which keeps
// each bucket's FIFO in insertion order.
func (e *Engine) advance(t Time) {
	e.now = t
	for len(e.ovf) > 0 && e.ovf[0].at-t < wheelSize {
		ev := e.popOverflow()
		e.pushWheel(ev.at, ev.h)
	}
}

// pushOverflow appends ev and sifts it up the 4-ary heap.
func (e *Engine) pushOverflow(ev event) {
	q := append(e.ovf, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	e.ovf = q
}

// popOverflow removes and returns the minimum overflow event. The
// vacated tail slot is zeroed so the backing array does not keep the
// handler alive.
func (e *Engine) popOverflow() event {
	q := e.ovf
	root := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	e.ovf = q

	// Sift last down from the root.
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		min := c
		for j := c + 1; j < end; j++ {
			if q[j].before(&q[min]) {
				min = j
			}
		}
		if !q[min].before(&last) {
			break
		}
		q[i] = q[min]
		i = min
	}
	if n > 0 {
		q[i] = last
	}
	return root
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.n }

// Horizon is the time of the earliest pending event, or a far-future
// sentinel when none is pending. A component may batch-advance its
// local clock up to and including this time without violating
// causality — an event scheduled AT the horizon (e.g. a pending
// invalidation) still fires before any local op strictly after it. The
// value is maintained on schedule and fire, so within one event
// callback it can be read once and reused for a whole run of ops as
// long as the callback schedules nothing.
func (e *Engine) Horizon() Time {
	if e.n == 0 {
		return maxTime
	}
	return e.horizon
}

// Step runs the earliest event. It reports whether an event ran.
func (e *Engine) Step() bool {
	if e.n == 0 {
		return false
	}
	if e.met != nil {
		e.met.Events.Inc()
		e.met.Queue.Set(int64(e.n))
	}
	// The horizon is the earliest event's time. Overflow events lie at
	// now+W or later, so it is on the wheel unless the wheel is empty,
	// and then advancing to it brings it there.
	t := e.horizon
	if t != e.now {
		e.advance(t)
	}
	h, emptied := e.popWheel(int(t) & wheelMask)
	e.n--
	if emptied && e.n > 0 {
		if e.n > len(e.ovf) {
			bi := e.nextBucket()
			e.horizon = t + Time((bi-int(t))&wheelMask)
		} else {
			e.horizon = e.ovf[0].at
		}
	}
	h.Fire(t)
	return true
}

// Run executes events until the queue drains or until limit events have
// run (limit <= 0 means no limit). It returns the number of events run.
func (e *Engine) Run(limit int64) int64 {
	var n int64
	for e.Step() {
		n++
		if limit > 0 && n >= limit {
			break
		}
	}
	return n
}

// Resource models a unit that serves one request at a time (a bus, a
// memory bank, an SLC array). Acquire returns the time service can start
// for a request arriving at t, and marks the resource busy for hold
// pclocks from that start.
type Resource struct {
	freeAt Time
	// Busy accumulates total busy time, for utilization stats.
	Busy Time
}

// Acquire reserves the resource for hold pclocks for a request arriving
// at t, returning the service start time.
func (r *Resource) Acquire(t Time, hold Time) Time {
	start := t
	if r.freeAt > start {
		start = r.freeAt
	}
	r.freeAt = start + hold
	r.Busy += hold
	return start
}

// FreeAt returns the time the resource next becomes free.
func (r *Resource) FreeAt() Time { return r.freeAt }

// Rand is a small, fast, deterministic PRNG (xorshift64*). Applications
// use it so that workloads are reproducible across runs and platforms.
type Rand struct{ s uint64 }

// NewRand returns a PRNG seeded with seed (0 is remapped to a fixed
// nonzero constant, since xorshift cannot hold state 0).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *Rand) Uint64() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}
