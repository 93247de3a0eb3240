package sim

import (
	"container/heap"
	"testing"
	"testing/quick"
)

// fnHandler adapts a func to Handler for tests.
type fnHandler func(Time)

func (f fnHandler) Fire(t Time) { f(t) }

func TestEngineOrdersByTime(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(30, fnHandler(func(Time) { got = append(got, 3) }))
	e.Schedule(10, fnHandler(func(Time) { got = append(got, 1) }))
	e.Schedule(20, fnHandler(func(Time) { got = append(got, 2) }))
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events ran out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestEngineTieBreaksByInsertion(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, fnHandler(func(Time) { got = append(got, i) }))
	}
	e.Run(0)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of insertion order at %d: %v", i, got[:i+1])
		}
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	var e Engine
	e.Schedule(10, fnHandler(func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, fnHandler(func(Time) {}))
	}))
	e.Run(0)
}

// TestEngineNextTime checks Horizon, the engine's next-event-time
// accessor, on an empty queue, a wheel event and an overflow event.
func TestEngineNextTime(t *testing.T) {
	var e Engine
	if h := e.Horizon(); h != maxTime {
		t.Fatalf("Horizon on empty queue = %d, want maxTime", h)
	}
	e.Schedule(3*wheelSize, fnHandler(func(Time) {}))
	if h := e.Horizon(); h != 3*wheelSize {
		t.Fatalf("Horizon = %d, want %d (overflow event)", h, 3*wheelSize)
	}
	e.Schedule(42, fnHandler(func(Time) {}))
	if h := e.Horizon(); h != 42 {
		t.Fatalf("Horizon = %d, want 42", h)
	}
}

func TestEngineRunLimit(t *testing.T) {
	var e Engine
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), fnHandler(func(Time) { n++ }))
	}
	if ran := e.Run(4); ran != 4 || n != 4 {
		t.Fatalf("Run(4) ran %d events (n=%d), want 4", ran, n)
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6", e.Pending())
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	var e Engine
	depth := 0
	var recurse fnHandler
	recurse = func(now Time) {
		if depth < 5 {
			depth++
			e.Schedule(now+1, recurse)
		}
	}
	e.Schedule(0, recurse)
	e.Run(0)
	if depth != 5 {
		t.Fatalf("depth = %d, want 5", depth)
	}
	if e.Now() != 5 {
		t.Fatalf("Now = %d, want 5", e.Now())
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	if s := r.Acquire(10, 3); s != 10 {
		t.Fatalf("first acquire start = %d, want 10", s)
	}
	if s := r.Acquire(10, 3); s != 13 {
		t.Fatalf("contended acquire start = %d, want 13", s)
	}
	if s := r.Acquire(100, 3); s != 100 {
		t.Fatalf("idle acquire start = %d, want 100", s)
	}
	if r.Busy != 9 {
		t.Fatalf("Busy = %d, want 9", r.Busy)
	}
}

func TestResourceStartNeverBeforeArrival(t *testing.T) {
	f := func(arrivals []uint16) bool {
		var r Resource
		var prevEnd Time
		for _, a := range arrivals {
			at := Time(a)
			start := r.Acquire(at, 2)
			if start < at {
				return false
			}
			if start < prevEnd {
				return false // overlapping service
			}
			prevEnd = start + 2
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(12345), NewRand(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed PRNGs diverged")
		}
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 90 {
		t.Fatalf("zero-seeded PRNG produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestRandIntnInRange(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRandFloat64InRange(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g out of range", v)
		}
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// refHeap is a container/heap reference implementation of the event
// queue, kept test-only: the timing wheel must pop in exactly the
// order this one does for any operation sequence.
type refEvent struct {
	at  Time
	seq uint64
	id  int
}

type refHeap []refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// fired is one dispatch as a test handler saw it.
type fired struct {
	id int
	at Time
}

// recHandler logs its id and fire time.
type recHandler struct {
	id  int
	log *[]fired
}

func (h *recHandler) Fire(t Time) { *h.log = append(*h.log, fired{h.id, t}) }

// schedStep is one step of a test schedule: optionally fire the
// earliest pending event first, then schedule one event delay pclocks
// after the (possibly advanced) current time.
type schedStep struct {
	delay     Time
	stepFirst bool
}

// checkAgainstRef drives e through steps and then drains it, firing
// the engine and popping a container/heap reference in lockstep. Every
// dispatch must match the reference's (id, time), and Horizon must
// equal the reference minimum before every dispatch.
func checkAgainstRef(t *testing.T, steps []schedStep) {
	t.Helper()
	var e Engine
	ref := &refHeap{}
	var log []fired
	var seq uint64
	step := func() {
		t.Helper()
		want := heap.Pop(ref).(refEvent)
		if h := e.Horizon(); h != want.at {
			t.Fatalf("dispatch %d: Horizon = %d, reference min = %d", len(log), h, want.at)
		}
		if !e.Step() {
			t.Fatalf("dispatch %d: engine empty, reference holds %d", len(log), ref.Len()+1)
		}
		if got := log[len(log)-1]; got != (fired{want.id, want.at}) {
			t.Fatalf("dispatch %d: fired id %d at %d, reference id %d at %d",
				len(log)-1, got.id, got.at, want.id, want.at)
		}
	}
	for i, s := range steps {
		if s.stepFirst && ref.Len() > 0 {
			step()
		}
		at := e.Now() + s.delay
		seq++
		heap.Push(ref, refEvent{at: at, seq: seq, id: i})
		e.Schedule(at, &recHandler{id: i, log: &log})
	}
	for ref.Len() > 0 {
		step()
	}
	if e.Step() || e.Pending() != 0 || e.Horizon() != maxTime {
		t.Fatalf("engine not drained: Pending %d, Horizon %d", e.Pending(), e.Horizon())
	}
}

// TestEngineMatchesContainerHeap drives the wheel with randomized
// schedules — delays from 0 to 4W, so a fifth of the traffic takes the
// overflow path, duplicate times, events scheduled while the run is
// going — and with edge schedules: events at exactly now+W-1 and
// now+W, and a queue holding only overflow events, which the engine
// must reach by jumping across the empty wheel.
func TestEngineMatchesContainerHeap(t *testing.T) {
	rng := NewRand(20260806)
	for trial := 0; trial < 25; trial++ {
		var steps []schedStep
		for i := 0; i < 450; i++ {
			s := schedStep{stepFirst: i >= 300 && rng.Intn(3) == 0}
			switch rng.Intn(8) {
			case 0:
				s.delay = wheelSize - 1
			case 1:
				s.delay = wheelSize
			case 2:
				s.delay = Time(rng.Intn(4))
			default:
				s.delay = Time(rng.Intn(4*wheelSize + 1))
			}
			steps = append(steps, s)
		}
		checkAgainstRef(t, steps)
	}

	edges := map[string][]schedStep{
		"boundary pair": {{delay: wheelSize}, {delay: wheelSize - 1}, {delay: wheelSize}, {delay: wheelSize - 1}},
		"overflow only": {{delay: 3*wheelSize + 7}, {delay: 5 * wheelSize}, {delay: 5 * wheelSize}, {delay: 2 * wheelSize}},
		"jump then wheel": {
			{delay: 4 * wheelSize}, {delay: 4*wheelSize + wheelSize - 1},
			{delay: 0, stepFirst: true}, {delay: wheelSize - 1}, {delay: wheelSize},
		},
		"drain to overflow": {
			{delay: 1}, {delay: 2 * wheelSize}, {delay: 2*wheelSize + 1},
			{delay: 3, stepFirst: true}, {delay: wheelSize + 1, stepFirst: true}, {delay: 0, stepFirst: true},
		},
	}
	for name, steps := range edges {
		t.Run(name, func(t *testing.T) { checkAgainstRef(t, steps) })
	}
}

// TestEnginePopReleasesSlot pins that a drained engine retains no
// handler: every vacated wheel slot and every vacated overflow-heap
// entry is cleared, so nothing a handler references stays alive.
func TestEnginePopReleasesSlot(t *testing.T) {
	var e Engine
	for i := 0; i < 8; i++ {
		e.Schedule(Time(i), fnHandler(func(Time) {}))
		e.Schedule(Time(i*wheelSize+wheelSize), fnHandler(func(Time) {}))
	}
	e.Run(0)
	if len(e.slots) == 0 || cap(e.ovf) == 0 {
		t.Fatal("schedule did not use both the wheel and the overflow heap")
	}
	for i, s := range e.slots[:cap(e.slots)] {
		if s.h != nil {
			t.Fatalf("wheel slot %d retains a handler after draining", i)
		}
	}
	for i, ev := range e.ovf[:cap(e.ovf)] {
		if ev.h != nil {
			t.Fatalf("overflow entry %d retains a handler after draining", i)
		}
	}
}

// TestSchedulePanicsOnPastEvent checks the past-time guard on an
// overflow-sized gap as well: the guard sits before the wheel/overflow
// split.
func TestSchedulePanicsOnPastEvent(t *testing.T) {
	var e Engine
	e.Schedule(10*wheelSize, fnHandler(func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("Schedule in the past did not panic")
			}
		}()
		e.Schedule(5, fnHandler(func(Time) {}))
	}))
	e.Run(0)
}

// queueMin is the brute-force earliest pending time: it walks every
// wheel bucket's list, ignoring the occupancy bitmap, and scans the
// whole overflow heap. It also checks the structural invariants the
// order rests on: the lists hold exactly Pending()-len(ovf) entries,
// the bitmap agrees with them, and every overflow event lies at now+W
// or later.
func queueMin(t *testing.T, e *Engine) Time {
	t.Helper()
	min := maxTime
	onWheel := 0
	for bi := range e.buckets {
		occupied := e.occ[bi>>6]&(1<<(bi&63)) != 0
		if (e.buckets[bi].head != 0) != occupied {
			t.Fatalf("bucket %d: occupancy bit %v disagrees with its list", bi, occupied)
		}
		for i := e.buckets[bi].head; i != 0; i = e.slots[i].next {
			onWheel++
			if at := e.now + Time((bi-int(e.now))&wheelMask); at < min {
				min = at
			}
		}
	}
	if onWheel+len(e.ovf) != e.Pending() {
		t.Fatalf("wheel holds %d, overflow %d, Pending %d", onWheel, len(e.ovf), e.Pending())
	}
	for _, ev := range e.ovf {
		if ev.at < e.now+wheelSize {
			t.Fatalf("overflow event at %d inside the wheel's range [%d, %d)", ev.at, e.now, e.now+wheelSize)
		}
		if ev.at < min {
			min = ev.at
		}
	}
	return min
}

// TestEngineHorizonTracksQueueMin drives a random schedule/fire
// sequence across the wheel boundary and asserts the cached horizon
// equals the brute-force queue minimum after every push and every pop
// — the invariant the machine's fused batch loop relies on — and that
// an empty queue reports the far-future sentinel.
func TestEngineHorizonTracksQueueMin(t *testing.T) {
	check := func(e *Engine, step string) {
		t.Helper()
		if want := queueMin(t, e); e.Horizon() != want {
			t.Fatalf("%s: Horizon = %d, queue min = %d", step, e.Horizon(), want)
		}
	}

	rng := NewRand(42)
	for trial := 0; trial < 20; trial++ {
		var e Engine
		check(&e, "fresh engine")
		for i := 0; i < 400; i++ {
			switch {
			case e.Pending() == 0 || rng.Intn(3) > 0:
				d := Time(rng.Intn(50))
				if rng.Intn(4) == 0 {
					d = Time(rng.Intn(3 * wheelSize))
				}
				e.Schedule(e.Now()+d, fnHandler(func(Time) {}))
				check(&e, "after schedule")
			default:
				e.Step()
				check(&e, "after fire")
			}
		}
		for e.Step() {
			check(&e, "while draining")
		}
		check(&e, "drained")
	}
}

// selfHandler reschedules itself delay pclocks ahead on every fire.
type selfHandler struct {
	e     *Engine
	delay Time
}

func (h *selfHandler) Fire(t Time) { h.e.Schedule(t+h.delay, h) }

// TestEngineStepAllocsFree pins the steady-state schedule/fire cycle
// at zero allocations on both paths: once the wheel's slot pool and
// the overflow heap's backing array have grown to the standing depth,
// neither a wheel push nor an overflow push and its later migration
// allocates.
func TestEngineStepAllocsFree(t *testing.T) {
	for _, delay := range []Time{3, wheelSize - 1, wheelSize, 3*wheelSize + 5} {
		var e Engine
		hs := make([]selfHandler, 64)
		for i := range hs {
			hs[i] = selfHandler{e: &e, delay: delay}
			e.Schedule(Time(i), &hs[i])
		}
		e.Run(10_000) // warm up to the standing depth
		if a := testing.AllocsPerRun(1000, func() { e.Step() }); a != 0 {
			t.Errorf("delay %d: %v allocs per schedule/fire, want 0", delay, a)
		}
	}
}

// FuzzEngineOrder turns the fuzz input into a schedule of (delay,
// fire-first) steps whose delays span 0 to 4W, so events cross the
// wheel/overflow boundary in both directions, and checks the pop order
// against the container/heap reference.
func FuzzEngineOrder(f *testing.F) {
	f.Add([]byte{0x00, 0x05, 0x00, 0xff, 0x01, 0x00, 0x80, 0x00})
	f.Add([]byte{0x03, 0x07, 0x02, 0x00, 0x82, 0x01, 0x80, 0x00, 0x00, 0xff})
	f.Add([]byte{0x01, 0x00, 0x01, 0x00, 0x00, 0xff, 0x00, 0xff, 0x84, 0x00, 0x80, 0x01})
	f.Add([]byte{0x00, 0x01, 0x01, 0x01}) // an overflow event migrating at exactly now+W
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		var steps []schedStep
		for i := 0; i+1 < len(data); i += 2 {
			d := (int(data[i]&0x7f)<<8 | int(data[i+1])) % (4*wheelSize + 1)
			steps = append(steps, schedStep{delay: Time(d), stepFirst: data[i]&0x80 != 0})
		}
		checkAgainstRef(t, steps)
	})
}
