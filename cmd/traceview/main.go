// Command traceview analyzes the span and timeline JSONL files a run
// writes (prefetchsim -spans / -timeline): per-class latency
// percentiles, the slowest transactions with their per-hop breakdown,
// per-node heat tables, the processor stall-time decomposition the
// paper's Figure 6 plots, and CSV export for plotting elsewhere.
//
// Usage:
//
//	traceview spans.jsonl                  per-class latency percentiles
//	traceview -top 10 spans.jsonl          slowest transactions, hop by hop
//	traceview -nodes spans.jsonl           per-node heat table
//	traceview -stalls spans.jsonl          read/write/sync stall decomposition
//	traceview -csv out.csv spans.jsonl     span CSV export
//	traceview -timeline tl.jsonl           windowed time-series table
//	traceview -timeline tl.jsonl -timeline-csv out.csv
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"prefetchsim/internal/obs"
)

func main() {
	top := flag.Int("top", 0, "print the N slowest transactions with their hop breakdown")
	nodes := flag.Bool("nodes", false, "print the per-node heat table")
	stalls := flag.Bool("stalls", false, "print the read/write/sync stall decomposition (Figure 6 split)")
	csvOut := flag.String("csv", "", "export the spans as CSV to this file")
	timeline := flag.String("timeline", "", "read a timeline JSONL file and print its windows")
	tlCSV := flag.String("timeline-csv", "", "export the timeline windows as CSV to this file")
	flag.Parse()

	if *timeline != "" {
		points, err := readTimeline(*timeline)
		exitOn(err)
		if *tlCSV != "" {
			exitOn(writeFileWith(*tlCSV, func(w io.Writer) error {
				return timelineCSV(w, points)
			}))
			fmt.Printf("wrote %d windows to %s\n", len(points), *tlCSV)
		} else {
			renderTimeline(os.Stdout, points)
		}
		if flag.NArg() == 0 {
			return
		}
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "traceview: need one span JSONL file (from prefetchsim -spans)")
		flag.Usage()
		os.Exit(2)
	}
	spans, err := readSpans(flag.Arg(0))
	exitOn(err)
	if len(spans) == 0 {
		fmt.Fprintln(os.Stderr, "traceview: no spans in", flag.Arg(0))
		os.Exit(1)
	}

	switch {
	case *csvOut != "":
		exitOn(writeFileWith(*csvOut, func(w io.Writer) error {
			return spanCSV(w, spans)
		}))
		fmt.Printf("wrote %d spans to %s\n", len(spans), *csvOut)
	case *top > 0:
		renderTop(os.Stdout, spans, *top)
	case *nodes:
		renderNodes(os.Stdout, spans)
	case *stalls:
		renderStalls(os.Stdout, spans)
	default:
		renderLatency(os.Stdout, spans)
	}
}

// readSpans loads one span JSONL file.
func readSpans(path string) ([]obs.Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseSpans(f)
}

// jsonSpan mirrors Span.AppendJSON's field names for decoding.
type jsonSpan struct {
	Class  string `json:"class"`
	Node   int32  `json:"node"`
	Block  uint64 `json:"block"`
	Issue  int64  `json:"issue"`
	Req    int64  `json:"req"`
	Home   int64  `json:"home"`
	Svc    int64  `json:"svc"`
	Reply  int64  `json:"reply"`
	Arrive int64  `json:"arrive"`
	Done   int64  `json:"done"`
	Demand int64  `json:"demand"`
	Wait   int64  `json:"wait"`
}

// parseSpans decodes span JSONL (one object per line, as written by
// SpanRecorder.Flush). Blank lines are skipped; a malformed line or an
// unknown class is an error with its line number.
func parseSpans(r io.Reader) ([]obs.Span, error) {
	var spans []obs.Span
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var j jsonSpan
		if err := json.Unmarshal(b, &j); err != nil {
			return nil, fmt.Errorf("traceview: line %d: %v", line, err)
		}
		cls, ok := obs.ParseSpanClass(j.Class)
		if !ok {
			return nil, fmt.Errorf("traceview: line %d: unknown span class %q", line, j.Class)
		}
		spans = append(spans, obs.Span{
			Issue: j.Issue, Req: j.Req, Home: j.Home, Svc: j.Svc,
			Reply: j.Reply, Arrive: j.Arrive, Done: j.Done,
			Demand: j.Demand, Wait: j.Wait,
			Block: j.Block, Node: j.Node, Class: cls,
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceview: %v", err)
	}
	return spans, nil
}

// readTimeline loads one timeline JSONL file.
func readTimeline(path string) ([]obs.TimePoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parseTimeline(f)
}

// parseTimeline decodes timeline JSONL (one window per line, as
// written by Timeline.Flush).
func parseTimeline(r io.Reader) ([]obs.TimePoint, error) {
	var points []obs.TimePoint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var p obs.TimePoint
		if err := json.Unmarshal(b, &p); err != nil {
			return nil, fmt.Errorf("traceview: line %d: %v", line, err)
		}
		points = append(points, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceview: %v", err)
	}
	return points, nil
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted,
// using the nearest-rank method.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// renderLatency prints the per-class latency percentile table: one row
// per span class present in the file, with count, mean, p50/p90/p99
// and max end-to-end latency plus the summed processor wait.
func renderLatency(w io.Writer, spans []obs.Span) {
	byClass := make(map[obs.SpanClass][]int64)
	wait := make(map[obs.SpanClass]int64)
	for i := range spans {
		s := &spans[i]
		byClass[s.Class] = append(byClass[s.Class], s.Total())
		wait[s.Class] += s.Wait
	}
	fmt.Fprintf(w, "%-16s %8s %9s %9s %9s %9s %9s %11s\n",
		"class", "count", "mean", "p50", "p90", "p99", "max", "wait")
	for c := obs.SpanClass(0); c < obs.NumSpanClasses; c++ {
		lat := byClass[c]
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		var sum int64
		for _, v := range lat {
			sum += v
		}
		fmt.Fprintf(w, "%-16s %8d %9.1f %9d %9d %9d %9d %11d\n",
			c, len(lat), float64(sum)/float64(len(lat)),
			percentile(lat, 50), percentile(lat, 90), percentile(lat, 99),
			lat[len(lat)-1], wait[c])
	}
	fmt.Fprintf(w, "%d spans (latencies in pclocks)\n", len(spans))
}

// hops returns the per-hop latencies of a transaction span, in
// pipeline order.
func hops(s *obs.Span) [6]int64 {
	return [6]int64{
		s.Req - s.Issue,    // queue (SLWB admission / dispatch wait)
		s.Home - s.Req,     // request network
		s.Svc - s.Home,     // directory queue
		s.Reply - s.Svc,    // directory + memory service
		s.Arrive - s.Reply, // reply network
		s.Done - s.Arrive,  // SLC fill
	}
}

var hopNames = [6]string{"queue", "reqnet", "dir", "service", "replynet", "fill"}

// renderTop prints the n slowest transaction spans with their hop
// breakdown. Local stall classes have no hop stamps and are excluded.
func renderTop(w io.Writer, spans []obs.Span, n int) {
	var tx []obs.Span
	for i := range spans {
		if spans[i].Class.IsTransaction() {
			tx = append(tx, spans[i])
		}
	}
	if len(tx) == 0 {
		fmt.Fprintln(w, "no transaction spans")
		return
	}
	sort.Slice(tx, func(i, j int) bool {
		if d := tx[i].Total() - tx[j].Total(); d != 0 {
			return d > 0
		}
		return tx[i].Issue < tx[j].Issue // stable order among ties
	})
	if n > len(tx) {
		n = len(tx)
	}
	fmt.Fprintf(w, "%-16s %5s %10s %10s %8s", "class", "node", "block", "issue", "total")
	for _, h := range hopNames {
		fmt.Fprintf(w, " %8s", h)
	}
	fmt.Fprintf(w, " %8s\n", "wait")
	for i := 0; i < n; i++ {
		s := &tx[i]
		fmt.Fprintf(w, "%-16s %5d %10d %10d %8d", s.Class, s.Node, s.Block, s.Issue, s.Total())
		for _, h := range hops(s) {
			fmt.Fprintf(w, " %8d", h)
		}
		fmt.Fprintf(w, " %8d\n", s.Wait)
	}
	fmt.Fprintf(w, "top %d of %d transactions (latencies in pclocks)\n", n, len(tx))
}

// nodeHeat is one node's row in the heat table.
type nodeHeat struct {
	spans, misses, prefetches                int64
	readWait, writeWait, syncWait, totalWait int64
}

// heatByNode folds spans into per-node heat rows, indexed by node id.
func heatByNode(spans []obs.Span) map[int32]*nodeHeat {
	heat := make(map[int32]*nodeHeat)
	for i := range spans {
		s := &spans[i]
		h := heat[s.Node]
		if h == nil {
			h = &nodeHeat{}
			heat[s.Node] = h
		}
		h.spans++
		h.totalWait += s.Wait
		switch s.Class {
		case obs.SpanMissCold, obs.SpanMissCoherence, obs.SpanMissReplacement:
			h.misses++
			h.readWait += s.Wait
		case obs.SpanPrefetch:
			h.prefetches++
		case obs.SpanPrefetchLate:
			h.prefetches++
			h.readWait += s.Wait
		case obs.SpanSLCHit:
			h.readWait += s.Wait
		case obs.SpanFLWB, obs.SpanSCWrite:
			h.writeWait += s.Wait
		case obs.SpanAcquire, obs.SpanBarrier, obs.SpanRelease:
			h.syncWait += s.Wait
		}
	}
	return heat
}

// renderNodes prints the per-node heat table: span counts and the
// stall pclocks each node's spans charged, split by stall kind, with a
// crude bar so hot nodes stand out.
func renderNodes(w io.Writer, spans []obs.Span) {
	heat := heatByNode(spans)
	ids := make([]int32, 0, len(heat))
	var maxWait int64
	for id, h := range heat {
		ids = append(ids, id)
		if h.totalWait > maxWait {
			maxWait = h.totalWait
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Fprintf(w, "%5s %8s %8s %8s %12s %12s %12s %12s  %s\n",
		"node", "spans", "misses", "pref", "read_wait", "write_wait", "sync_wait", "total_wait", "heat")
	for _, id := range ids {
		h := heat[id]
		bar := 0
		if maxWait > 0 {
			bar = int(h.totalWait * 20 / maxWait)
		}
		fmt.Fprintf(w, "%5d %8d %8d %8d %12d %12d %12d %12d  %s\n",
			id, h.spans, h.misses, h.prefetches,
			h.readWait, h.writeWait, h.syncWait, h.totalWait,
			bars[:bar])
	}
}

const bars = "####################"

// stallSplit sums the processor wait the spans charged, split the way
// the paper's Figure 6 splits execution time: read stall (miss,
// late-prefetch and SLC-hit spans), write stall (write-buffer and
// sequential-consistency spans) and sync stall (acquire, barrier,
// release). Ownership transactions, timely prefetches and invalidations
// charge no stall and fall in no bucket. With an unsampled, unwrapped recording these sums equal
// the run's ReadStall/WriteStall/SyncStall statistics exactly.
func stallSplit(spans []obs.Span) (read, write, sync int64) {
	for i := range spans {
		s := &spans[i]
		switch s.Class {
		case obs.SpanMissCold, obs.SpanMissCoherence, obs.SpanMissReplacement,
			obs.SpanPrefetchLate, obs.SpanSLCHit:
			read += s.Wait
		case obs.SpanFLWB, obs.SpanSCWrite:
			write += s.Wait
		case obs.SpanAcquire, obs.SpanBarrier, obs.SpanRelease:
			sync += s.Wait
		}
	}
	return read, write, sync
}

// renderStalls prints the span-derived stall decomposition.
func renderStalls(w io.Writer, spans []obs.Span) {
	read, write, sync := stallSplit(spans)
	total := read + write + sync
	pct := func(v int64) float64 {
		if total == 0 {
			return 0
		}
		return 100 * float64(v) / float64(total)
	}
	fmt.Fprintf(w, "stall decomposition over %d spans (pclocks):\n", len(spans))
	fmt.Fprintf(w, "  read stall   %12d  %5.1f%%\n", read, pct(read))
	fmt.Fprintf(w, "  write stall  %12d  %5.1f%%\n", write, pct(write))
	fmt.Fprintf(w, "  sync stall   %12d  %5.1f%%\n", sync, pct(sync))
	fmt.Fprintf(w, "  total        %12d\n", total)
}

// spanCSV writes the spans as CSV with one column per JSONL field.
func spanCSV(w io.Writer, spans []obs.Span) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "class,node,block,issue,req,home,svc,reply,arrive,done,demand,wait")
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			s.Class, s.Node, s.Block, s.Issue, s.Req, s.Home, s.Svc,
			s.Reply, s.Arrive, s.Done, s.Demand, s.Wait)
	}
	return bw.Flush()
}

// renderTimeline prints the windowed time-series with derived rates.
func renderTimeline(w io.Writer, points []obs.TimePoint) {
	fmt.Fprintf(w, "%10s %9s %9s %8s %8s %8s %7s %6s %10s\n",
		"t", "reads", "writes", "misses", "missrate", "pref_eff", "stall%", "slwb", "flits")
	for i := range points {
		p := &points[i]
		missRate := 0.0
		if p.Reads > 0 {
			missRate = float64(p.Misses) / float64(p.Reads)
		}
		prefEff := 0.0
		if p.PrefIssued > 0 {
			prefEff = float64(p.PrefUseful) / float64(p.PrefIssued)
		}
		var window int64
		if i == 0 {
			window = p.T
		} else {
			window = p.T - points[i-1].T
		}
		stallPct := 0.0
		if window > 0 {
			// Stall pclocks are summed across nodes; a window covers
			// window pclocks on each node, so normalize per-node.
			stallPct = 100 * float64(p.ReadStall+p.WriteStall+p.SyncStall) / float64(window)
		}
		fmt.Fprintf(w, "%10d %9d %9d %8d %8.4f %8.4f %7.1f %6d %10d\n",
			p.T, p.Reads, p.Writes, p.Misses, missRate, prefEff, stallPct, p.SLWB, p.NetFlits)
	}
	fmt.Fprintf(w, "%d windows\n", len(points))
}

// timelineCSV writes the windows as CSV with one column per field.
func timelineCSV(w io.Writer, points []obs.TimePoint) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "t,reads,writes,misses,miss_cold,miss_coherence,miss_replacement,"+
		"pref_issued,pref_useful,pref_late,read_stall,write_stall,sync_stall,"+
		"slwb,net_msgs,net_flits,net_flit_hops,events")
	for i := range points {
		p := &points[i]
		vals := []int64{
			p.T, p.Reads, p.Writes, p.Misses, p.MissCold, p.MissCoherence,
			p.MissReplacement, p.PrefIssued, p.PrefUseful, p.PrefLate,
			p.ReadStall, p.WriteStall, p.SyncStall, p.SLWB,
			p.NetMsgs, p.NetFlits, p.NetFlitHops, p.Events,
		}
		for j, v := range vals {
			if j > 0 {
				bw.WriteByte(',')
			}
			bw.WriteString(strconv.FormatInt(v, 10))
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// writeFileWith creates path and streams fn's output into it.
func writeFileWith(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceview:", err)
		os.Exit(1)
	}
}
