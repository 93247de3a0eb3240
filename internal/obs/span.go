package obs

import (
	"fmt"
	"io"
	"strconv"
)

// The span layer: every memory-system transaction (and every stall the
// processor model charges) becomes one lifecycle record with per-hop
// virtual-time stamps — issue, network dispatch, directory arrival,
// service start, reply, reply arrival, fill. Spans are stamped in place
// inside the machine's pooled transaction records (no allocation on the
// simulation path) and handed to a SpanRecorder exactly once, at
// completion. The recorder aggregates every span into per-class
// latency-breakdown statistics and keeps a fixed ring of raw spans
// (written on the hot path with no allocation and no I/O, optionally
// sampled 1-in-N) that is serialized as JSONL once, when the run
// flushes it. A full ring overwrites its oldest spans — the ring keeps
// the tail of the run — and the drop count is reported in the summary
// so a truncated span file is never mistaken for a complete one.

// SpanClass classifies one completed span.
type SpanClass uint8

const (
	// SpanMissCold is a demand read miss to a never-cached block.
	SpanMissCold SpanClass = iota
	// SpanMissCoherence is a demand read miss caused by an invalidation.
	SpanMissCoherence
	// SpanMissReplacement is a demand read miss caused by SLC eviction.
	SpanMissReplacement
	// SpanWrite is an ownership transaction with no demand read merged
	// onto it (write misses and upgrade requests).
	SpanWrite
	// SpanPrefetch is a prefetch transaction that completed before any
	// demand reference asked for the block (timely or unconsumed).
	SpanPrefetch
	// SpanPrefetchLate is a prefetch a demand read caught in flight; the
	// Wait field measures the pclocks the demand reference stalled.
	SpanPrefetchLate
	// SpanSLCHit is a demand read that hit in the SLC; Wait is the
	// stall beyond the FLC hit time. Not a network transaction: only
	// Issue/Done/Wait are meaningful.
	SpanSLCHit
	// SpanFLWB is a processor write stalled on first-level write-buffer
	// admission.
	SpanFLWB
	// SpanSCWrite is a write stall charged by the sequential-
	// consistency model (blocking write completion or drain).
	SpanSCWrite
	// SpanAcquire is a lock acquire; Wait is the time to grant.
	SpanAcquire
	// SpanBarrier is a barrier episode; Wait is the arrive-to-release
	// time.
	SpanBarrier
	// SpanRelease is a release stalled draining pending transactions
	// under the RC write-completion rule.
	SpanRelease
	// SpanInvalidate is an invalidation applied at a sharer or at the
	// owner: Issue is its arrival at the node, Done is when the SLC has
	// applied it. It charges no stall (Wait is 0).
	SpanInvalidate

	// NumSpanClasses bounds per-class arrays.
	NumSpanClasses
)

var spanClassNames = [NumSpanClasses]string{
	"miss.cold", "miss.coherence", "miss.replacement", "write",
	"prefetch", "prefetch.late", "slc.hit", "flwb", "sc.write",
	"acquire", "barrier", "release", "invalidate",
}

// String returns the class's JSONL name.
func (c SpanClass) String() string {
	if int(c) < len(spanClassNames) {
		return spanClassNames[c]
	}
	return "unknown"
}

// ParseSpanClass inverts String. It returns NumSpanClasses and false
// for an unknown name.
func ParseSpanClass(s string) (SpanClass, bool) {
	for i, n := range spanClassNames {
		if n == s {
			return SpanClass(i), true
		}
	}
	return NumSpanClasses, false
}

// IsTransaction reports whether the class is a full network
// transaction, i.e. whether the per-hop stamps (Req…Arrive) are
// meaningful.
func (c SpanClass) IsTransaction() bool { return c <= SpanPrefetchLate }

// Span is one completed lifecycle record. All times are virtual
// (pclocks). For transaction classes every hop stamp is set; for the
// local stall classes only Issue, Done and Wait are meaningful.
type Span struct {
	// Issue is when the processor (or prefetcher) issued the reference.
	Issue int64
	// Req is when the transaction entered the network (after any SLWB
	// admission wait).
	Req int64
	// Home is when the request arrived at the home node.
	Home int64
	// Svc is when the home directory entry was acquired and service
	// began (Svc-Home is directory queueing).
	Svc int64
	// Reply is when the data reply or ownership grant left its source.
	Reply int64
	// Arrive is when the reply arrived back at the requester.
	Arrive int64
	// Done is when the fill or grant finished applying at the SLC.
	Done int64
	// Demand is the merged demand reference's issue time, or -1 when no
	// demand reference waited on this span.
	Demand int64
	// Wait is the stall this span charged to the processor, in pclocks
	// (read stall for miss/late-prefetch/SLC-hit spans, write stall for
	// FLWB/SC spans, sync stall for acquire/barrier/release spans).
	Wait  int64
	Block uint64
	Node  int32
	Class SpanClass
}

// Total returns the span's end-to-end latency.
func (s *Span) Total() int64 { return s.Done - s.Issue }

// SpanConfig configures a SpanRecorder.
type SpanConfig struct {
	// W receives the sampled raw spans as JSONL when Flush runs. nil
	// discards them (aggregation still sees every span). Flush drains
	// the ring exactly once.
	W io.Writer
	// Cap is the raw-span ring capacity (default 1<<15). When the ring
	// wraps, the oldest spans are overwritten.
	Cap int
	// Sample keeps one in Sample raw spans (default 1 = keep all).
	// Aggregated per-class statistics always include every span.
	Sample int
}

// SpanClassStats aggregates every completed span of one class. Unlike
// the raw ring these are exact: sampling and capacity never drop a
// span from the aggregates.
type SpanClassStats struct {
	// Count is the number of completed spans.
	Count int64
	// TotalPclocks sums end-to-end latency (Done-Issue).
	TotalPclocks int64
	// WaitPclocks sums the processor stall charged by these spans.
	WaitPclocks int64
	// Queue, ReqNet, Dir, Service, ReplyNet and Fill sum the per-hop
	// latencies (transaction classes only).
	Queue, ReqNet, Dir, Service, ReplyNet, Fill int64
	// Latency is the end-to-end latency histogram.
	Latency Histogram
}

// SpanStats is the exact aggregate over all completed spans.
type SpanStats struct {
	Classes [NumSpanClasses]SpanClassStats
	// IdleCount/IdlePclocks aggregate prefetch fill-to-first-use idle
	// times (how early a consumed prefetch arrived); Idle is their
	// histogram.
	IdleCount   int64
	IdlePclocks int64
	Idle        Histogram
}

// Class returns the aggregate for c.
func (st *SpanStats) Class(c SpanClass) *SpanClassStats { return &st.Classes[c] }

// SpanClassSummary is the JSON-stable per-class slice of a SpanStats.
type SpanClassSummary struct {
	Count        int64 `json:"count"`
	TotalPclocks int64 `json:"total_pclocks"`
	WaitPclocks  int64 `json:"wait_pclocks"`
}

// TraceSummary reports what a span ring saw and kept.
type TraceSummary struct {
	// Seen counts every span offered to the ring.
	Seen uint64 `json:"seen"`
	// Kept counts spans in the ring at flush time.
	Kept uint64 `json:"kept"`
	// Dropped counts sampled-in spans overwritten by ring wrap-around.
	Dropped uint64 `json:"dropped"`
	// Sampled counts spans discarded by 1-in-N sampling.
	Sampled uint64 `json:"sampled"`
}

// SpanSummary is the manifest view of a span recording: ring counters
// plus the exact per-class aggregates.
type SpanSummary struct {
	Ring    TraceSummary                `json:"ring"`
	Classes map[string]SpanClassSummary `json:"classes,omitempty"`
	// IdleCount/IdlePclocks summarize prefetch fill-to-first-use.
	IdleCount   int64 `json:"idle_count,omitempty"`
	IdlePclocks int64 `json:"idle_pclocks,omitempty"`
}

// SpanRecorder aggregates completed spans and retains a sampled ring
// of raw spans for JSONL export. Single-goroutine, like the metric
// instruments; Complete allocates nothing and performs no I/O.
type SpanRecorder struct {
	w       io.Writer
	ring    []Span
	next    int
	stored  uint64
	seen    uint64
	sample  int
	skip    int
	flushed bool
	stats   SpanStats
}

// NewSpanRecorder builds a recorder from cfg, applying defaults.
func NewSpanRecorder(cfg SpanConfig) *SpanRecorder {
	if cfg.Cap <= 0 {
		cfg.Cap = 1 << 15
	}
	if cfg.Sample <= 0 {
		cfg.Sample = 1
	}
	return &SpanRecorder{w: cfg.W, ring: make([]Span, cfg.Cap), sample: cfg.Sample}
}

// Complete records one finished span: always into the aggregates,
// and (subject to sampling and capacity) into the raw ring.
func (r *SpanRecorder) Complete(s Span) {
	st := &r.stats.Classes[s.Class]
	st.Count++
	total := s.Done - s.Issue
	st.TotalPclocks += total
	st.WaitPclocks += s.Wait
	st.Latency.Observe(total)
	if s.Class.IsTransaction() {
		st.Queue += s.Req - s.Issue
		st.ReqNet += s.Home - s.Req
		st.Dir += s.Svc - s.Home
		st.Service += s.Reply - s.Svc
		st.ReplyNet += s.Arrive - s.Reply
		st.Fill += s.Done - s.Arrive
	}
	r.seen++
	if r.skip > 0 {
		r.skip--
		return
	}
	r.skip = r.sample - 1
	r.ring[r.next] = s
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
	}
	r.stored++
}

// ObserveIdle records a prefetch fill-to-first-use idle time.
func (r *SpanRecorder) ObserveIdle(pclocks int64) {
	r.stats.IdleCount++
	r.stats.IdlePclocks += pclocks
	r.stats.Idle.Observe(pclocks)
}

// Stats returns the exact aggregates (live; do not retain across
// further Complete calls if a stable copy is needed).
func (r *SpanRecorder) Stats() *SpanStats { return &r.stats }

// Summary returns the raw-ring counters: Kept spans are in the ring,
// Dropped were overwritten, Sampled were discarded by 1-in-N sampling.
func (r *SpanRecorder) Summary() TraceSummary {
	kept := r.stored
	if max := uint64(len(r.ring)); kept > max {
		kept = max
	}
	return TraceSummary{
		Seen:    r.seen,
		Kept:    kept,
		Dropped: r.stored - kept,
		Sampled: r.seen - r.stored,
	}
}

// Summarize builds the manifest view: ring counters plus per-class
// aggregates (classes with no spans are omitted).
func (r *SpanRecorder) Summarize() *SpanSummary {
	return SummarizeSpanStats(&r.stats, r.Summary())
}

// SummarizeSpanStats builds the manifest view from detached aggregates
// and ring counters (what a Result carries after the run).
func SummarizeSpanStats(stats *SpanStats, ring TraceSummary) *SpanSummary {
	sum := &SpanSummary{
		Ring:        ring,
		IdleCount:   stats.IdleCount,
		IdlePclocks: stats.IdlePclocks,
	}
	for c := SpanClass(0); c < NumSpanClasses; c++ {
		st := &stats.Classes[c]
		if st.Count == 0 {
			continue
		}
		if sum.Classes == nil {
			sum.Classes = make(map[string]SpanClassSummary, int(NumSpanClasses))
		}
		sum.Classes[c.String()] = SpanClassSummary{
			Count:        st.Count,
			TotalPclocks: st.TotalPclocks,
			WaitPclocks:  st.WaitPclocks,
		}
	}
	return sum
}

// Spans returns the ring's spans in completion order (oldest kept span
// first). The returned slice is freshly allocated.
func (r *SpanRecorder) Spans() []Span {
	if r.stored <= uint64(len(r.ring)) {
		return append([]Span(nil), r.ring[:r.stored]...)
	}
	out := make([]Span, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

// AppendJSON appends the span's JSONL object (no trailing newline).
func (s *Span) AppendJSON(buf []byte) []byte {
	buf = append(buf, `{"class":"`...)
	buf = append(buf, s.Class.String()...)
	buf = append(buf, `","node":`...)
	buf = strconv.AppendInt(buf, int64(s.Node), 10)
	buf = append(buf, `,"block":`...)
	buf = strconv.AppendUint(buf, s.Block, 10)
	buf = append(buf, `,"issue":`...)
	buf = strconv.AppendInt(buf, s.Issue, 10)
	buf = append(buf, `,"req":`...)
	buf = strconv.AppendInt(buf, s.Req, 10)
	buf = append(buf, `,"home":`...)
	buf = strconv.AppendInt(buf, s.Home, 10)
	buf = append(buf, `,"svc":`...)
	buf = strconv.AppendInt(buf, s.Svc, 10)
	buf = append(buf, `,"reply":`...)
	buf = strconv.AppendInt(buf, s.Reply, 10)
	buf = append(buf, `,"arrive":`...)
	buf = strconv.AppendInt(buf, s.Arrive, 10)
	buf = append(buf, `,"done":`...)
	buf = strconv.AppendInt(buf, s.Done, 10)
	buf = append(buf, `,"demand":`...)
	buf = strconv.AppendInt(buf, s.Demand, 10)
	buf = append(buf, `,"wait":`...)
	buf = strconv.AppendInt(buf, s.Wait, 10)
	return append(buf, '}')
}

// Flush serializes the kept raw spans as JSONL to the configured
// writer, draining the ring exactly once (later calls write nothing
// and return nil). With no writer it is a no-op.
func (r *SpanRecorder) Flush() error {
	if r.flushed {
		return nil
	}
	r.flushed = true
	if r.w == nil {
		return nil
	}
	buf := make([]byte, 0, 224)
	for _, s := range r.Spans() {
		buf = s.AppendJSON(buf[:0])
		buf = append(buf, '\n')
		if _, err := r.w.Write(buf); err != nil {
			return fmt.Errorf("obs: span flush: %w", err)
		}
	}
	return nil
}
