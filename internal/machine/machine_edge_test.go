package machine

import (
	"testing"

	"prefetchsim/internal/cache"
	"prefetchsim/internal/coherence"
	"prefetchsim/internal/mem"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/prefetch"
	"prefetchsim/internal/trace"
)

// Edge-case and race tests for the protocol and buffer machinery.

func TestReadAfterEvictingModifiedBlockWaitsForWriteback(t *testing.T) {
	// Write b0 (Modified), evict it with a conflicting read, then
	// immediately re-read b0: the read must serialize behind the
	// writeback (wbPending guard) rather than confuse the directory.
	cfg := cfgN(1)
	cfg.SLCSize = 16384
	b0 := page1
	conflict := page1 + 512*mem.BlockBytes
	p := prog([]trace.Op{
		wr(b0, 0),
		rd(conflict, 10),
		rd(b0, 0), // races with the writeback
	})
	m, _ := run(t, cfg, p)
	st := &m.Stats.Nodes[0]
	if st.Writebacks != 1 || st.ReadMisses != 2 {
		t.Fatalf("writebacks=%d misses=%d", st.Writebacks, st.ReadMisses)
	}
	e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(b0)))
	if e.State != coherence.SharedClean || !e.IsSharer(0) {
		t.Fatalf("directory after writeback race: %v sharers=%v", e.State, e.Sharers())
	}
}

func TestWriteAfterEvictingModifiedBlockWaitsForWriteback(t *testing.T) {
	cfg := cfgN(1)
	cfg.SLCSize = 16384
	b0 := page1
	conflict := page1 + 512*mem.BlockBytes
	p := prog([]trace.Op{
		wr(b0, 0),
		rd(conflict, 10),
		wr(b0, 0), // races with the writeback
		rd(page1+64, 500),
	})
	m, _ := run(t, cfg, p)
	e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(b0)))
	if e.State != coherence.Dirty || e.Owner != 0 {
		t.Fatalf("directory after write-back/write race: %v", e.State)
	}
	if m.nodes[0].outWrites != 0 {
		t.Fatal("outstanding writes not drained")
	}
}

func TestRemoteReadOfEvictedDirtyBlockServedFromVictimBuffer(t *testing.T) {
	// Node 0 modifies a block homed at node 1, evicts it (writeback in
	// flight), while node 1 reads it. Whatever the interleaving, the
	// simulation must complete with consistent state.
	cfg := cfgN(2)
	cfg.SLCSize = 16384
	x := page1 // home node 1
	conflict := page1 + 512*mem.BlockBytes
	p := prog(
		[]trace.Op{wr(x, 0), rd(conflict, 40)}, // node 0: own then evict
		[]trace.Op{rd(x, 60)},                  // node 1 reads during the window
	)
	m, _ := run(t, cfg, p)
	if m.Stats.Nodes[1].ReadMisses != 2 { // conflict read counts on node 0 only
		// node 1 performed exactly one read
		if m.Stats.Nodes[1].ReadMisses != 1 {
			t.Fatalf("node 1 misses = %d", m.Stats.Nodes[1].ReadMisses)
		}
	}
	e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(x)))
	if e == nil || e.Busy() {
		t.Fatal("directory entry leaked busy state")
	}
}

func TestInvalidationRacingFillIsConsumedOnce(t *testing.T) {
	// Node 0 reads x; node 1 writes x at nearly the same time. If the
	// invalidation reaches node 0 while its fill is in flight, the fill
	// must be consumed once and not cached.
	x := page1
	for gap := uint32(0); gap < 60; gap += 7 {
		p := prog(
			[]trace.Op{rd(x, gap), rd(x, 400)},
			[]trace.Op{wr(x, 20)},
		)
		m, _ := run(t, cfgN(2), p)
		// Whatever the interleaving, the run completes and the second
		// read sees a consistent block.
		if m.Stats.Nodes[0].ReadMisses < 1 {
			t.Fatalf("gap %d: node 0 misses = %d", gap, m.Stats.Nodes[0].ReadMisses)
		}
		e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(x)))
		if e.Busy() {
			t.Fatalf("gap %d: entry left busy", gap)
		}
	}
}

func TestManyWritesToOneBlockMergeIntoOneTransaction(t *testing.T) {
	var ops []trace.Op
	for i := 0; i < 10; i++ {
		ops = append(ops, wr(page1+uint64(i%4)*8, 0))
	}
	m, _ := run(t, cfgN(1), prog(ops))
	// One block: one ownership transaction, one memory access.
	if m.mems[0].Accesses != 1 {
		t.Fatalf("memory accesses = %d, want 1 (writes must merge)", m.mems[0].Accesses)
	}
	if m.nodes[0].outWrites != 0 {
		t.Fatal("outstanding writes not drained")
	}
}

func TestFLWBFillsAndStallsProcessor(t *testing.T) {
	// A burst of writes to distinct blocks outruns the FLWB drain rate
	// (one SLC cycle each): the processor must eventually stall.
	var ops []trace.Op
	for i := 0; i < 64; i++ {
		ops = append(ops, wr(page1+uint64(i)*mem.BlockBytes, 0))
	}
	m, _ := run(t, cfgN(1), prog(ops))
	if m.Stats.Nodes[0].WriteStall == 0 {
		t.Fatal("64 back-to-back writes never stalled on the 8-entry FLWB")
	}
}

func TestReadMergesOntoPendingWrite(t *testing.T) {
	// A read of a block whose ownership transaction is in flight merges
	// onto it and completes when the grant arrives.
	p := prog([]trace.Op{
		wr(page1, 0),
		rd(page1, 0), // write tx still in flight
	})
	m, _ := run(t, cfgN(1), p)
	st := &m.Stats.Nodes[0]
	if st.ReadMisses != 1 {
		t.Fatalf("merged read misses = %d, want 1", st.ReadMisses)
	}
	line, ok := m.nodes[0].slc.Lookup(mem.BlockOf(mem.Addr(page1)))
	if !ok || line.State != cache.Modified {
		t.Fatalf("line after merged read = %+v ok=%v", line, ok)
	}
}

func TestWriteMergesOntoPendingPrefetch(t *testing.T) {
	// Sequential prefetching launches a prefetch of B+1; a write to B+1
	// while the prefetch is in flight must upgrade after the fill, not
	// duplicate the transaction.
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(1) }
	p := prog([]trace.Op{
		rd(page1, 0),                    // miss: prefetches block+1
		wr(page1+mem.BlockBytes, 0),     // write the in-flight block
		rd(page1+2*mem.BlockBytes, 500), // let everything settle
	})
	m, _ := run(t, cfg, p)
	line, ok := m.nodes[0].slc.Lookup(mem.BlockOf(mem.Addr(page1 + mem.BlockBytes)))
	if !ok || line.State != cache.Modified {
		t.Fatalf("prefetched-then-written line = %+v ok=%v", line, ok)
	}
	if m.nodes[0].outWrites != 0 {
		t.Fatal("outstanding writes not drained")
	}
}

func TestDelayedHitNotCountedAsMiss(t *testing.T) {
	// With zero think time a sequential stream chases its own
	// prefetches: those reads are delayed hits, not misses.
	reads := seqReads(1, 1, 1, 0)
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(1) }
	m, _ := run(t, cfg, prog(reads))
	st := &m.Stats.Nodes[0]
	if st.DelayedHits == 0 {
		t.Fatal("no delayed hits on a zero-think sequential stream")
	}
	if st.ReadMisses+st.DelayedHits+st.SLCReadHits != 128 {
		t.Fatalf("misses(%d) + delayed hits(%d) + SLC hits(%d) != 128 block touches",
			st.ReadMisses, st.DelayedHits, st.SLCReadHits)
	}
	if st.ReadMisses > 16 {
		t.Fatalf("misses = %d; delayed hits leaked into the miss count", st.ReadMisses)
	}
}

func TestAdaptivePrefetcherRunsInMachine(t *testing.T) {
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewAdaptive(1) }
	m, _ := run(t, cfg, prog(seqReads(1, 1, 2, 20)))
	if m.Stats.TotalPrefetchesIssued() == 0 {
		t.Fatal("adaptive prefetcher never issued")
	}
	if m.Stats.TotalReadMisses() >= 256 {
		t.Fatal("adaptive prefetcher removed nothing")
	}
}

func TestLockHandoffOrderIsFIFO(t *testing.T) {
	// Three processors contend for one lock; grants must follow queue
	// order (the DASH-like queue-based lock).
	lock := uint64(3 * mem.PageBytes)
	mk := func(gap uint32) []trace.Op {
		return []trace.Op{
			{Kind: trace.Read, Addr: 2 * page1, Gap: gap}, // stagger arrival
			{Kind: trace.Acquire, Addr: lock},
			rd(page1, 200),
			{Kind: trace.Release, Addr: lock},
		}
	}
	m, _ := run(t, cfgN(4), prog(mk(0), mk(50), mk(100), mk(150)))
	// Arrival order 0,1,2,3 → completion times strictly increasing.
	var prev int64
	for i := 0; i < 4; i++ {
		et := int64(m.Stats.Nodes[i].ExecTime)
		if et <= prev {
			t.Fatalf("node %d finished at %d, not after node %d (%d): lock handoff out of order",
				i, et, i-1, prev)
		}
		prev = et
	}
}

func TestBarrierReusableAcrossEpisodes(t *testing.T) {
	mk := func() []trace.Op {
		var ops []trace.Op
		for e := 0; e < 5; e++ {
			ops = append(ops, rd(page1+uint64(e)*mem.BlockBytes, uint32(10*e)))
			ops = append(ops, trace.Op{Kind: trace.Barrier, Addr: uint64(e)})
		}
		return ops
	}
	m, _ := run(t, cfgN(2), prog(mk(), mk()))
	if m.Stats.Nodes[0].ExecTime == 0 || m.Stats.Nodes[1].ExecTime == 0 {
		t.Fatal("barrier episodes did not complete")
	}
}

func TestMalformedBarrierEpisodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched barrier episode did not panic")
		}
	}()
	p := prog(
		[]trace.Op{{Kind: trace.Barrier, Addr: 3}}, // wrong episode
		[]trace.Op{{Kind: trace.Barrier, Addr: 0}},
	)
	m, err := New(cfgN(2), p)
	if err != nil {
		t.Fatal(err)
	}
	m.Run() //nolint:errcheck // panics before returning
}

func TestSharersAcrossManyNodesAllInvalidated(t *testing.T) {
	// All 16 processors read x, then one writes it: 15 invalidations.
	x := page1
	streams := make([][]trace.Op, 16)
	for i := range streams {
		streams[i] = []trace.Op{rd(x, uint32(10*i))}
	}
	streams[3] = append(streams[3], wr(x, 3000))
	m, _ := run(t, cfgN(16), prog(streams...))
	var invs int64
	for i := range m.Stats.Nodes {
		invs += m.Stats.Nodes[i].InvalidationsReceived
	}
	if invs != 15 {
		t.Fatalf("invalidations = %d, want 15", invs)
	}
	e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(x)))
	if e.State != coherence.Dirty || e.Owner != 3 {
		t.Fatalf("directory = %v owner %d", e.State, e.Owner)
	}
}

// invalidateSpans returns the recorder's invalidate spans, checking the
// fields every one of them must satisfy.
func invalidateSpans(t *testing.T, sp *obs.SpanRecorder, x uint64) []obs.Span {
	t.Helper()
	var out []obs.Span
	for _, s := range sp.Spans() {
		if s.Class != obs.SpanInvalidate {
			continue
		}
		if s.Wait != 0 || s.Demand != -1 || s.Done <= s.Issue ||
			s.Block != uint64(mem.BlockOf(mem.Addr(x))) {
			t.Errorf("invalidate span %+v: want Wait 0, Demand -1, Done after Issue, block of x", s)
		}
		out = append(out, s)
	}
	if got := sp.Stats().Class(obs.SpanInvalidate); got.Count != int64(len(out)) || got.WaitPclocks != 0 {
		t.Errorf("invalidate aggregate = %d spans, %d wait; ring has %d", got.Count, got.WaitPclocks, len(out))
	}
	return out
}

func TestInvalidateSpansOnePerSharer(t *testing.T) {
	// Eight processors read x, then one writes it: k = 7 sharers are
	// invalidated, each recording one span on its own node.
	const procs, writer = 8, 3
	x := page1
	streams := make([][]trace.Op, procs)
	for i := range streams {
		streams[i] = []trace.Op{rd(x, uint32(10*i))}
	}
	streams[writer] = append(streams[writer], wr(x, 3000))
	cfg := cfgN(procs)
	sp := obs.NewSpanRecorder(obs.SpanConfig{Cap: 1 << 10})
	cfg.Spans = sp
	run(t, cfg, prog(streams...))

	perNode := make(map[int32]int)
	for _, s := range invalidateSpans(t, sp, x) {
		perNode[s.Node]++
	}
	if len(perNode) != procs-1 || perNode[writer] != 0 {
		t.Fatalf("invalidate spans per node = %v, want one on each of the %d sharers", perNode, procs-1)
	}
	for node, c := range perNode {
		if c != 1 {
			t.Errorf("node %d has %d invalidate spans, want 1", node, c)
		}
	}
}

func TestInvalidateSpanAtOwner(t *testing.T) {
	// Node 0 owns x, then node 1 writes it: the owner is invalidated.
	x := page1
	cfg := cfgN(2)
	sp := obs.NewSpanRecorder(obs.SpanConfig{Cap: 1 << 10})
	cfg.Spans = sp
	run(t, cfg, prog([]trace.Op{wr(x, 0)}, []trace.Op{wr(x, 3000)}))
	spans := invalidateSpans(t, sp, x)
	if len(spans) != 1 || spans[0].Node != 0 {
		t.Fatalf("invalidate spans = %+v, want one on the owner, node 0", spans)
	}
}

func TestPrefetchIntoFiniteSLCReplacesAndAccounts(t *testing.T) {
	// Degree-8 sequential prefetching into a tiny SLC: prefetched
	// blocks evict each other; the prefetch bookkeeping must not leak.
	cfg := cfgN(1)
	cfg.SLCSize = 4096 // 128 blocks
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher { return prefetch.NewSequential(8) }
	var ops []trace.Op
	for i := 0; i < 1024; i++ {
		ops = append(ops, rd(page1+uint64(i)*mem.BlockBytes, 5))
	}
	m, _ := run(t, cfg, prog(ops))
	st := &m.Stats.Nodes[0]
	if st.PrefetchesUseful > st.PrefetchesIssued {
		t.Fatalf("useful (%d) > issued (%d)", st.PrefetchesUseful, st.PrefetchesIssued)
	}
	if st.PrefetchesUnconsumed < 0 || st.PrefetchesUnconsumed > st.PrefetchesIssued {
		t.Fatalf("unconsumed = %d out of range", st.PrefetchesUnconsumed)
	}
}

func TestDeferredReadAndWriteBehindWritebackMerge(t *testing.T) {
	// Both a write and a read to a block are issued while its eviction
	// writeback is still in flight: the deferred operations must merge
	// into a single transaction (regression: the second callback used
	// to overwrite the first's pending entry, leaving two transactions
	// in flight for one block).
	cfg := cfgN(1)
	cfg.SLCSize = 16384
	b0 := page1
	conflict := page1 + 512*mem.BlockBytes
	p := prog([]trace.Op{
		wr(b0, 0),
		rd(conflict, 10), // evicts b0 (Modified): writeback in flight
		wr(b0, 0),        // deferred behind the writeback
		rd(b0, 0),        // also deferred; must merge with the write
	})
	m, _ := run(t, cfg, p)
	if m.nodes[0].outWrites != 0 {
		t.Fatal("outstanding writes not drained")
	}
	line, ok := m.nodes[0].slc.Lookup(mem.BlockOf(mem.Addr(b0)))
	if !ok || line.State != cache.Modified {
		t.Fatalf("line after deferred merge = %+v ok=%v", line, ok)
	}
	e, _ := m.dir.Peek(mem.BlockOf(mem.Addr(b0)))
	if e.State != coherence.Dirty || e.Owner != 0 || e.Busy() {
		t.Fatalf("directory after deferred merge: %v owner=%d busy=%v",
			e.State, e.Owner, e.Busy())
	}
}

func TestSequentialConsistencyBlocksWrites(t *testing.T) {
	// Under SC each write stalls the processor for the full ownership
	// latency; under RC it costs ~1 pclock. A write-heavy program must
	// therefore run much longer under SC.
	var ops []trace.Op
	for i := 0; i < 32; i++ {
		ops = append(ops, wr(page1+uint64(i)*mem.BlockBytes, 2))
	}
	rc, _ := run(t, cfgN(2), prog(ops, nil))
	scCfg := cfgN(2)
	scCfg.SequentialConsistency = true
	sc, _ := run(t, scCfg, prog(ops, nil))
	if sc.Stats.Nodes[0].ExecTime < 3*rc.Stats.Nodes[0].ExecTime {
		t.Fatalf("SC exec %d not much slower than RC %d",
			sc.Stats.Nodes[0].ExecTime, rc.Stats.Nodes[0].ExecTime)
	}
	if sc.Stats.Nodes[0].WriteStall == 0 {
		t.Fatal("SC writes recorded no write stall")
	}
}

func TestSequentialConsistencyReleaseNeedsNoDrain(t *testing.T) {
	// Under SC every write is already performed when the release
	// executes, so the release never waits on the drain path.
	lock := uint64(3 * mem.PageBytes)
	cfg := cfgN(1)
	cfg.SequentialConsistency = true
	p := prog([]trace.Op{
		{Kind: trace.Acquire, Addr: lock},
		wr(page1, 0),
		{Kind: trace.Release, Addr: lock},
	})
	m, _ := run(t, cfg, p)
	if m.nodes[0].outWrites != 0 {
		t.Fatal("outstanding writes under SC")
	}
}

func TestLookaheadIDetReducesMergesOnFastStream(t *testing.T) {
	// A tight stride stream where d=1 prefetches are always late: the
	// lookahead variant must convert late (merged) prefetches into
	// timely ones, reducing stall.
	var reads []trace.Op
	for i := 0; i < 256; i++ {
		reads = append(reads, rdpc(7, page1+uint64(i)*mem.BlockBytes*2, 6))
	}
	mk := func(pf func(int) prefetch.Prefetcher) *Machine {
		cfg := cfgN(1)
		cfg.NewPrefetcher = pf
		m, _ := run(t, cfg, prog(reads))
		return m
	}
	plain := mk(func(int) prefetch.Prefetcher { return prefetch.NewIDetection(256, 1) })
	la := mk(func(int) prefetch.Prefetcher { return prefetch.NewLookaheadIDetection(256, 1) })
	if la.Stats.TotalReadStall() >= plain.Stats.TotalReadStall() {
		t.Fatalf("lookahead stall %d not below plain %d",
			la.Stats.TotalReadStall(), plain.Stats.TotalReadStall())
	}
}

func TestHybridPrefetcherInMachine(t *testing.T) {
	cfg := cfgN(1)
	cfg.NewPrefetcher = func(int) prefetch.Prefetcher {
		return prefetch.NewHybrid(map[trace.PC]int64{7: mem.BlockBytes}, 1)
	}
	m, _ := run(t, cfg, prog(seqReads(7, 1, 1, 40)))
	if m.Stats.TotalReadMisses() > 8 {
		t.Fatalf("hybrid left %d misses with a perfect hint", m.Stats.TotalReadMisses())
	}
}
