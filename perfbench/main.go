// Command perfbench is the repository benchmark: it runs one named
// workload against the simulator (through the prefetchsim library) or
// against the prefetchd job server (as a built binary over loopback
// HTTP), checks every output, and prints the workload's metrics.
//
//	perfbench -workload fig6-local -seed 1 -seconds 15 -trace 0
//
// With -trace 0 the last line of standard output is a JSON object
// carrying the end-to-end metrics; with -trace 1 the same workload runs
// untraced once and then traced (CPU profile, collected metrics and
// benchmark-side spans) and the JSON carries the per-layer metrics.
// The lines before it repeat every metric in readable form, each
// percentile with its sample count. run.sh builds this program and the
// server from the checkout and passes their paths as flags.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// processStart anchors setup_s for the fig6 workloads.
var processStart = time.Now()

// defaultSeed is the seed whose simulation digests are pinned in
// expected.json.
const defaultSeed = 0

type env struct {
	root      string // checkout root (module prefetchsim)
	prefetchd string // built server binary
	work      string // scratch directory for caches, profiles and spans
	seed      uint64
	seconds   float64
	traced    bool
}

// report accumulates one run's checks and metrics.
type report struct {
	attempted, failed int
	failures          []string
	metrics           map[string]metric
	order             []string
	notes             map[string]string
	spans             []span
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// check counts one checked operation; a false ok names the mismatch.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 50 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// note attaches a readable annotation (a sample count, a ratio's base)
// to a metric's printed line.
func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// percentile sets name to the p-quantile of xs when at least ten
// samples lie beyond it, and 0 otherwise; the note carries the count.
func (r *report) percentile(name string, xs []float64, p float64, unit string) {
	v, beyond, ok := quantile(xs, p)
	if !ok {
		r.set(name, 0, unit)
		r.note(name, "n=%d, %d beyond: too few samples, not measured", len(xs), beyond)
		return
	}
	r.set(name, v, unit)
	r.note(name, "n=%d, %d beyond", len(xs), beyond)
}

// span is one benchmark-side timing of a call into a layer.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Detail  string `json:"detail,omitempty"`
}

// timed runs fn and records it as a span.
func (r *report) timed(name, parent, detail string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	r.spans = append(r.spans, span{Name: name, Parent: parent, StartNS: start.UnixNano(), EndNS: end.UnixNano(), Detail: detail})
	return end.Sub(start)
}

// spanTotal sums the durations of the spans called name.
func (r *report) spanTotal(name string) time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			d += time.Duration(s.EndNS - s.StartNS)
		}
	}
	return d
}

func (r *report) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// median of xs (xs is not modified); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank p-quantile of xs and the number of
// samples strictly beyond its rank; ok requires ten of them.
func quantile(xs []float64, p float64) (v float64, beyond int, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	beyond = len(s) - rank
	return s[rank-1], beyond, beyond >= 10
}

type workload func(e *env, r *report) error

var workloads = map[string]workload{
	"fig6-local":  sweepWorkload(sweeps["fig6-local"]),
	"fig6-remote": sweepWorkload(sweeps["fig6-remote"]),
	"fig6-finite": sweepWorkload(sweeps["fig6-finite"]),
	"service-mix": serviceWorkload,
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares;
// every workload reports all of them (a layer a workload does not
// exercise reports 0).
var endToEnd = []string{"setup_s", "wall_s", "cpu_s", "refs_per_s", "jobs_per_s",
	"peak_rss_mb", "alloc_mb", "allocs", "success_rate"}

func main() {
	var (
		name     = flag.String("workload", "", "workload: fig6-local, fig6-remote, fig6-finite or service-mix")
		seed     = flag.Uint64("seed", defaultSeed, "input seed")
		seconds  = flag.Float64("seconds", 15, "measured seconds per pass")
		traced   = flag.Int("trace", 0, "1 = report per-layer metrics from a traced pass")
		root     = flag.String("root", ".", "checkout root holding the prefetchsim module")
		server   = flag.String("prefetchd", "", "prefetchd binary (service-mix)")
		work     = flag.String("work", ".bench_build", "scratch directory")
		expected = flag.String("write-expected", "", "regenerate the expected digests into this file and exit")
	)
	flag.Parse()
	if *expected != "" {
		if err := writeExpected(*expected); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		os.Exit(2)
	}
	e := &env{root: *root, prefetchd: *server, work: *work, seed: *seed,
		seconds: *seconds, traced: *traced == 1}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := newReport()
	if err := wl(e, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if e.traced {
		if err := r.writeSpans(filepath.Join(e.work, "spans-"+*name+".jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write spans:", err)
			os.Exit(1)
		}
	} else if r.attempted > 0 {
		r.set("success_rate", float64(r.attempted-r.failed)/float64(r.attempted), "ratio")
		r.note("success_rate", "%d of %d checked operations", r.attempted-r.failed, r.attempted)
	}
	want := endToEnd
	if e.traced {
		want = perLayer()
	}
	out := map[string]metric{}
	for _, n := range want {
		m, ok := r.metrics[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s not measured\n", *name, n)
			os.Exit(1)
		}
		out[n] = m
	}
	for _, f := range r.failures {
		fmt.Printf("FAILED %s\n", f)
	}
	for _, n := range r.order {
		m := r.metrics[n]
		line := fmt.Sprintf("%-28s %16.6g %s", n, m.Value, m.Unit)
		if s := r.notes[n]; s != "" {
			line += "  (" + s + ")"
		}
		fmt.Println(line)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, out}
	buf, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(buf))
}

// cpuLayers are the ledger buckets (see ledger.go); each becomes a
// <layer>.cpu_share metric.
var cpuLayers = []string{"sim", "blockmap", "machine", "cache", "coherence", "network",
	"prefetch", "apps", "trace", "obs", "runner", "resultcache", "prefetchd",
	"encoding", "io", "runtime", "other"}

// perLayer lists the per-layer metric names in report order.
func perLayer() []string {
	names := []string{"bench.trace_overhead",
		"sim.events", "sim.events_per_ref", "sim.queue_max", "sim.ns_per_event",
		"machine.read_stall_pclk",
		"cache.flc_hits", "cache.slc_hits", "cache.read_misses",
		"cache.miss_cold", "cache.miss_coherence", "cache.miss_replacement",
		"coherence.invalidations", "coherence.writebacks",
		"network.messages", "network.flit_hops",
		"prefetch.issued", "prefetch.useful", "prefetch.late", "prefetch.efficiency",
		"apps.build_ms", "trace.ns_per_op", "runtime.gc_cycles", "obs.digest_ms",
		"job_miss_ms_p50", "job_miss_ms_p90", "job_hit_ms_p50", "job_hit_ms_p90",
		"prefetchd.submit_ms_p50", "prefetchd.stream_ms_p50",
		"runner.wait_ms_p50", "runner.run_ms_p50",
		"resultcache.hits", "resultcache.misses", "resultcache.bytes",
		"resultcache.put_us_p50", "resultcache.get_us_p50", "jobs.coalesced"}
	for _, l := range cpuLayers {
		names = append(names, l+".cpu_share")
	}
	return names
}

// notExercised sets layer metrics a workload does not touch to 0.
func notExercised(r *report, names ...string) {
	for _, n := range names {
		r.set(n, 0, unitOf(n))
		r.note(n, "layer not exercised by this workload")
	}
}

func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms_p50"), strings.HasSuffix(name, "_ms_p90"), strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us_p50"):
		return "us"
	case strings.HasSuffix(name, ".bytes"):
		return "bytes"
	}
	return "count"
}
