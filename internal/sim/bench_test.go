package sim

import "testing"

// benchHandler is a pooled no-capture handler: the steady-state
// schedule/fire cycle through it must not allocate.
type benchHandler struct {
	e     *Engine
	left  int
	fired int
}

func (h *benchHandler) Fire(t Time) {
	h.fired++
	if h.left > 0 {
		h.left--
		h.e.Schedule(t+3, h)
	}
}

// BenchmarkEngineSchedule measures the pooled schedule/fire cycle with
// a realistic standing queue depth (a machine keeps tens of events in
// flight). Steady state must report 0 allocs/op.
func BenchmarkEngineSchedule(b *testing.B) {
	var e Engine
	const depth = 64
	handlers := make([]benchHandler, depth)
	for i := range handlers {
		handlers[i] = benchHandler{e: &e, left: b.N / depth}
		e.Schedule(Time(i), &handlers[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}

// mixDelays is a fixed delay table shaped like the scheduling traffic
// of a full-size 16-processor run: most pushes are processor step
// resumes a few pclocks ahead, then mesh hops and memory accesses, and
// 3 in 1000 (0.3%, Ocean's share) land W or more ahead — up to the
// 2255-pclock maximum seen — and so take the overflow path.
var mixDelays = func() []Time {
	var d []Time
	for i := 0; i < 600; i++ {
		d = append(d, Time(i%9)) // step resumes: 0..8
	}
	for i := 0; i < 250; i++ {
		d = append(d, Time(9+i%32)) // mesh hops: 9..40
	}
	for i := 0; i < 147; i++ {
		d = append(d, Time(41+i*215/147)) // memory and remote: 41..255
	}
	d = append(d, wheelSize, 700, 2255)
	rng := NewRand(1995)
	for i := len(d) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		d[i], d[j] = d[j], d[i]
	}
	return d
}()

// mixHandler reschedules itself forever with the next delay from
// mixDelays; the handlers of one benchmark share the table cursor.
type mixHandler struct {
	e   *Engine
	cur *int
}

func (h *mixHandler) Fire(t Time) {
	k := *h.cur
	*h.cur = (k + 1) % len(mixDelays)
	h.e.Schedule(t+mixDelays[k], h)
}

// BenchmarkEngineScheduleMix measures the schedule/fire cycle under
// real traffic: a standing depth of 900 events (fig6-local's peak
// queue depth is 895) with delays drawn from mixDelays, so the wheel,
// bucket FIFOs of several events, and the overflow heap's migration all
// take part. Steady state must report 0 allocs/op.
func BenchmarkEngineScheduleMix(b *testing.B) {
	var e Engine
	const depth = 900
	cur := 0
	handlers := make([]mixHandler, depth)
	for i := range handlers {
		handlers[i] = mixHandler{e: &e, cur: &cur}
		e.Schedule(Time(i%64), &handlers[i])
	}
	e.Run(200_000) // grow the slot pool and overflow heap to steady state
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(int64(b.N))
}
