package main

import (
	"bytes"
	"strings"
	"testing"

	"prefetchsim"
	"prefetchsim/internal/obs"
)

const sampleSpans = `{"class":"miss.cold","node":0,"block":42,"issue":100,"req":101,"home":104,"svc":105,"reply":120,"arrive":130,"done":136,"demand":100,"wait":40}
{"class":"prefetch.late","node":1,"block":43,"issue":200,"req":200,"home":205,"svc":206,"reply":220,"arrive":228,"done":234,"demand":210,"wait":28}
{"class":"slc.hit","node":0,"block":44,"issue":300,"req":0,"home":0,"svc":0,"reply":0,"arrive":0,"done":306,"demand":-1,"wait":5}
{"class":"flwb","node":2,"block":45,"issue":400,"req":0,"home":0,"svc":0,"reply":0,"arrive":0,"done":410,"demand":-1,"wait":10}
{"class":"acquire","node":3,"block":7,"issue":500,"req":0,"home":0,"svc":0,"reply":0,"arrive":0,"done":517,"demand":-1,"wait":17}
{"class":"prefetch","node":1,"block":46,"issue":600,"req":600,"home":603,"svc":603,"reply":615,"arrive":620,"done":626,"demand":-1,"wait":0}
`

func TestParseSpans(t *testing.T) {
	spans, err := parseSpans(strings.NewReader(sampleSpans))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 6 {
		t.Fatalf("parsed %d spans, want 6", len(spans))
	}
	s := spans[0]
	if s.Class != obs.SpanMissCold || s.Node != 0 || s.Block != 42 ||
		s.Issue != 100 || s.Done != 136 || s.Demand != 100 || s.Wait != 40 {
		t.Fatalf("span 0 = %+v", s)
	}
	if got := s.Total(); got != 36 {
		t.Fatalf("span 0 total = %d, want 36", got)
	}

	if _, err := parseSpans(strings.NewReader(`{"class":"nosuch"}`)); err == nil {
		t.Fatal("unknown class accepted")
	}
	if _, err := parseSpans(strings.NewReader(`not json`)); err == nil {
		t.Fatal("malformed line accepted")
	}
}

func TestStallSplit(t *testing.T) {
	spans, err := parseSpans(strings.NewReader(sampleSpans))
	if err != nil {
		t.Fatal(err)
	}
	read, write, sync := stallSplit(spans)
	// read: miss.cold 40 + prefetch.late 28 + slc.hit 5; write: flwb 10;
	// sync: acquire 17. Timely prefetches charge nothing.
	if read != 73 || write != 10 || sync != 17 {
		t.Fatalf("split = %d/%d/%d, want 73/10/17", read, write, sync)
	}

	// An invalidation falls in no stall bucket. Recorded ones carry
	// Wait 0; the nonzero wait here shows the class is not counted.
	inv, err := parseSpans(strings.NewReader(
		`{"class":"invalidate","node":2,"block":45,"issue":700,"done":706,"demand":-1,"wait":99}`))
	if err != nil {
		t.Fatal(err)
	}
	if inv[0].Class != obs.SpanInvalidate {
		t.Fatalf("parsed class %v, want invalidate", inv[0].Class)
	}
	read, write, sync = stallSplit(append(spans, inv...))
	if read != 73 || write != 10 || sync != 17 {
		t.Fatalf("with invalidate: split = %d/%d/%d, want 73/10/17", read, write, sync)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    int
		want int64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%d = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %d, want 0", got)
	}
}

func TestRenderers(t *testing.T) {
	spans, err := parseSpans(strings.NewReader(sampleSpans))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	renderLatency(&buf, spans)
	for _, want := range []string{"miss.cold", "prefetch.late", "acquire", "6 spans"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("latency table missing %q:\n%s", want, buf.String())
		}
	}

	buf.Reset()
	renderTop(&buf, spans, 2)
	// Slowest transactions: miss.cold (36) then prefetch.late (34);
	// local stalls (acquire, 17 pclocks) are not transactions.
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 || !strings.Contains(lines[1], "miss.cold") ||
		!strings.Contains(lines[2], "prefetch.late") {
		t.Errorf("top table wrong:\n%s", buf.String())
	}
	if !strings.Contains(lines[0], "reqnet") || !strings.Contains(lines[0], "fill") {
		t.Errorf("top table missing hop columns:\n%s", lines[0])
	}

	buf.Reset()
	renderNodes(&buf, spans)
	if !strings.Contains(buf.String(), "read_wait") || !strings.Contains(buf.String(), "sync_wait") {
		t.Errorf("node table missing columns:\n%s", buf.String())
	}

	buf.Reset()
	renderStalls(&buf, spans)
	if !strings.Contains(buf.String(), "read stall") || !strings.Contains(buf.String(), "73") {
		t.Errorf("stall table wrong:\n%s", buf.String())
	}

	buf.Reset()
	if err := spanCSV(&buf, spans); err != nil {
		t.Fatal(err)
	}
	csv := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(csv) != 7 {
		t.Fatalf("CSV has %d lines, want header + 6", len(csv))
	}
	if csv[0] != "class,node,block,issue,req,home,svc,reply,arrive,done,demand,wait" {
		t.Fatalf("CSV header = %q", csv[0])
	}
	if csv[1] != "miss.cold,0,42,100,101,104,105,120,130,136,100,40" {
		t.Fatalf("CSV row 0 = %q", csv[1])
	}
}

func TestParseTimelineAndRender(t *testing.T) {
	input := `{"t":5000,"reads":632,"writes":0,"misses":322,"miss_cold":322,"pref_issued":398,"pref_useful":76,"read_stall":17984,"slwb":7,"net_flits":7482}
{"t":10000,"reads":2886,"writes":16,"misses":70,"pref_issued":100,"pref_useful":90,"read_stall":9000,"slwb":16,"net_flits":4042}
`
	points, err := parseTimeline(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || points[0].T != 5000 || points[0].Misses != 322 || points[1].SLWB != 16 {
		t.Fatalf("points = %+v", points)
	}
	var buf bytes.Buffer
	renderTimeline(&buf, points)
	if !strings.Contains(buf.String(), "2 windows") {
		t.Errorf("timeline table wrong:\n%s", buf.String())
	}
	buf.Reset()
	if err := timelineCSV(&buf, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[1], "5000,632,0,322,322,") {
		t.Fatalf("timeline CSV wrong:\n%s", buf.String())
	}
}

// TestStallSplitMatchesRun is the toolchain acceptance test: run a
// scaled-down Figure 6 configuration (LU under sequential prefetching)
// with an unsampled, unwrapped span recording, feed the JSONL through
// the same parse path the CLI uses, and require the span-derived
// read/write/sync stall decomposition to reproduce Result.Stats
// exactly — every stall pclock the simulator charged is accounted for
// by exactly one span.
func TestStallSplitMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full span capture of an LU run (~1M spans)")
	}
	var buf bytes.Buffer
	cfg := prefetchsim.Config{
		App: "lu", Scheme: prefetchsim.Seq, Processors: 4, Seed: 12345,
		Spans: &prefetchsim.SpanConfig{W: &buf, Cap: 1 << 20, Sample: 1},
	}
	res, err := prefetchsim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpanTrace.Dropped != 0 || res.SpanTrace.Sampled != 0 {
		t.Fatalf("capture not lossless: %+v (raise Cap)", res.SpanTrace)
	}

	spans, err := parseSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(spans)) != res.SpanTrace.Seen {
		t.Fatalf("parsed %d spans, run saw %d", len(spans), res.SpanTrace.Seen)
	}

	read, write, sync := stallSplit(spans)
	var wantRead, wantWrite, wantSync int64
	for i := range res.Stats.Nodes {
		n := &res.Stats.Nodes[i]
		wantRead += int64(n.ReadStall)
		wantWrite += int64(n.WriteStall)
		wantSync += int64(n.SyncStall)
	}
	if read != wantRead {
		t.Errorf("span read stall = %d, stats charge %d", read, wantRead)
	}
	if write != wantWrite {
		t.Errorf("span write stall = %d, stats charge %d", write, wantWrite)
	}
	if sync != wantSync {
		t.Errorf("span sync stall = %d, stats charge %d", sync, wantSync)
	}
	if wantRead == 0 || wantSync == 0 {
		t.Error("LU run charged no read or sync stall; the comparison is vacuous")
	}

	// The decomposition agrees with the experiment API's reference
	// split (StallSplit renders fractions of summed per-node time).
	row := prefetchsim.StallSplit("lu", prefetchsim.Seq, res)
	var exec int64
	for i := range res.Stats.Nodes {
		exec += int64(res.Stats.Nodes[i].ExecTime)
	}
	if got := float64(read) / float64(exec); !close(got, row.Read) {
		t.Errorf("span read fraction = %f, StallSplit says %f", got, row.Read)
	}
	if got := float64(sync) / float64(exec); !close(got, row.Sync) {
		t.Errorf("span sync fraction = %f, StallSplit says %f", got, row.Sync)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-12 && d > -1e-12
}
