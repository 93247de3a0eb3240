package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"prefetchsim"
	"prefetchsim/internal/trace"
)

// sweepDef is one Figure 6 workload: the paper's 16-node machine, the
// baseline plus I-det, D-det and Seq at degree 1, on a subset of the
// applications, with the infinite or the §5.3 16 KB SLC.
type sweepDef struct {
	name   string
	apps   []string
	finite bool
}

// The three sweeps split the paper's applications by which layer does
// the work: hit-dominated apps (engine queues, the fused FLC hit loop),
// miss-dominated apps (engine, per-block tables, mesh, directory,
// prefetchers), and the finite SLC (the direct-mapped store, with
// replacement misses and writebacks).
var sweeps = map[string]sweepDef{
	"fig6-local":  {name: "fig6-local", apps: []string{"lu", "water", "ocean"}},
	"fig6-remote": {name: "fig6-remote", apps: []string{"pthor", "mp3d", "cholesky"}},
	"fig6-finite": {name: "fig6-finite", apps: []string{"mp3d", "water", "ocean", "cholesky"}, finite: true},
}

const sweepProcs = 16

func (d sweepDef) slcBytes() int {
	if d.finite {
		return prefetchsim.FiniteSLCBytes
	}
	return 0
}

// sweepSchemes is every simulation of the sweep per app, in the order
// Figure6 runs them serially: the shared baseline, then each scheme.
func sweepSchemes() []prefetchsim.Scheme {
	return append([]prefetchsim.Scheme{prefetchsim.Baseline}, prefetchsim.Schemes()...)
}

// progOps counts the reads and writes each processor's stream emits.
type progOps struct {
	reads, writes []int64
	all           int64 // every op, sync operations included
}

func (p progOps) refs() int64 {
	var n int64
	for i := range p.reads {
		n += p.reads[i] + p.writes[i]
	}
	return n
}

func (p progOps) equal(q progOps) bool {
	if len(p.reads) != len(q.reads) || p.all != q.all {
		return false
	}
	for i := range p.reads {
		if p.reads[i] != q.reads[i] || p.writes[i] != q.writes[i] {
			return false
		}
	}
	return true
}

// drain consumes every stream of prog with no machine behind it.
func drain(prog *prefetchsim.Program) progOps {
	defer prog.Stop()
	ops := progOps{reads: make([]int64, len(prog.Streams)), writes: make([]int64, len(prog.Streams))}
	count := func(i int, op trace.Op) {
		ops.all++
		switch op.Kind {
		case trace.Read:
			ops.reads[i]++
		case trace.Write:
			ops.writes[i]++
		}
	}
	for i, s := range prog.Streams {
		if bs, ok := s.(trace.BatchStream); ok {
			for b := bs.NextBatch(); b != nil; b = bs.NextBatch() {
				for _, op := range b {
					if op.Kind != trace.End {
						count(i, op)
					}
				}
				bs.Recycle(b)
			}
			continue
		}
		for op := s.Next(); op.Kind != trace.End; op = s.Next() {
			count(i, op)
		}
	}
	return ops
}

// buildOps builds and drains one app's program.
func buildOps(app string, procs int, seed uint64) (progOps, error) {
	prog, err := prefetchsim.BuildApp(app, prefetchsim.Params{Procs: procs, Scale: 1, Seed: seed})
	if err != nil {
		return progOps{}, err
	}
	return drain(prog), nil
}

type simKey struct {
	app    string
	scheme prefetchsim.Scheme
}

func (k simKey) String() string { return k.app + "/" + string(k.scheme) }

// sweepRun is one measured Figure 6 sweep.
type sweepRun struct {
	wall, cpu      time.Duration
	alloc, mallocs uint64
	digests        map[simKey]string
	rowsDigest     string
	sims           int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runSweep runs the sweep once through Figure6 / Figure6Finite,
// serially, recording one manifest (with its stats digest) per
// simulation.
func runSweep(d sweepDef, seed uint64) (sweepRun, error) {
	rec := new(prefetchsim.ManifestRecorder)
	o := prefetchsim.ExpOptions{Apps: d.apps, Seed: seed, Procs: sweepProcs, Workers: 1, Record: rec}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0, t0 := cpuTime(), time.Now()
	var rows []prefetchsim.Fig6Row
	var err error
	if d.finite {
		rows, err = prefetchsim.Figure6Finite(o)
	} else {
		rows, err = prefetchsim.Figure6(o)
	}
	wall, cpu := time.Since(t0), cpuTime()-c0
	runtime.ReadMemStats(&after)
	if err != nil {
		return sweepRun{}, err
	}
	texts := make([]string, len(rows))
	for i, row := range rows {
		texts[i] = row.String()
	}
	sr := sweepRun{wall: wall, cpu: cpu,
		alloc: after.TotalAlloc - before.TotalAlloc, mallocs: after.Mallocs - before.Mallocs,
		digests: map[simKey]string{}, rowsDigest: prefetchsim.DigestRows(texts)}
	for _, m := range rec.Runs() {
		sr.digests[simKey{m.Config.App, prefetchsim.Scheme(m.Config.Scheme)}] = m.StatsDigest
		sr.sims++
	}
	return sr, nil
}

// checkSweep compares one sweep's digests with the reference: the
// pinned digests for the default seed, otherwise the first sweep of
// this run (so every repeat must reproduce it exactly).
func checkSweep(r *report, d sweepDef, sr sweepRun, ref *sweepExpect) {
	r.check(sr.sims == len(d.apps)*len(sweepSchemes()), "%s: %d simulations, want %d", d.name, sr.sims, len(d.apps)*len(sweepSchemes()))
	for _, app := range d.apps {
		for _, s := range sweepSchemes() {
			k := simKey{app, s}
			got, ok := sr.digests[k]
			r.check(ok && got == ref.Sims[k.String()], "%s: %s stats digest %.12s, want %.12s", d.name, k, got, ref.Sims[k.String()])
		}
	}
	r.check(sr.rowsDigest == ref.Rows, "%s: rows digest %.12s, want %.12s", d.name, sr.rowsDigest, ref.Rows)
}

func expectFrom(sr sweepRun) *sweepExpect {
	e := &sweepExpect{Rows: sr.rowsDigest, Sims: map[string]string{}}
	for k, v := range sr.digests {
		e.Sims[k.String()] = v
	}
	return e
}

// sweepSetup loads the pinned digests and builds and drains every
// app's program once, which gives the op counts refs_per_s and the
// per-run op check use. It runs five times; setup_s is the median,
// the first sample counted from process start.
func sweepSetup(e *env, d sweepDef, r *report) (map[string]progOps, *sweepExpect, error) {
	var times []float64
	var ops map[string]progOps
	var pinned *sweepExpect
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		if rep == 0 {
			start = processStart
		}
		exp, err := loadExpected(e.root)
		if err != nil {
			return nil, nil, err
		}
		cur := map[string]progOps{}
		for _, app := range d.apps {
			o, err := buildOps(app, sweepProcs, e.seed)
			if err != nil {
				return nil, nil, err
			}
			cur[app] = o
		}
		times = append(times, time.Since(start).Seconds())
		for app, o := range cur {
			if ops != nil {
				r.check(o.equal(ops[app]), "%s: program %s emitted different ops on rebuild", d.name, app)
			}
		}
		ops = cur
		if e.seed == defaultSeed {
			pinned = exp.Sweeps[d.name]
			if pinned == nil {
				return nil, nil, fmt.Errorf("expected.json has no digests for %s", d.name)
			}
		}
	}
	r.set("setup_s", median(times), "s")
	r.note("setup_s", "median of %d set-ups: load digests, build and drain %d programs", len(times), len(d.apps))
	return ops, pinned, nil
}

func sweepWorkload(d sweepDef) workload {
	return func(e *env, r *report) error {
		ops, ref, err := sweepSetup(e, d, r)
		if err != nil {
			return err
		}
		var refs int64
		for _, app := range d.apps {
			refs += ops[app].refs() * int64(len(sweepSchemes()))
		}
		// Measure: whole sweeps until the pass has lasted -seconds
		// (one sweep for the traced run's untraced reference).
		var runs []sweepRun
		stopRSS := sampleRSS(os.Getpid())
		start := time.Now()
		for len(runs) == 0 || (!e.traced && time.Since(start).Seconds() < e.seconds) {
			sr, err := runSweep(d, e.seed)
			if err != nil {
				stopRSS()
				return err
			}
			if ref == nil {
				ref = expectFrom(sr)
			}
			checkSweep(r, d, sr, ref)
			runs = append(runs, sr)
		}
		rss, err := stopRSS()
		if err != nil {
			return err
		}
		if e.traced {
			return tracedSweep(e, d, r, ops, runs[0])
		}
		var wall, cpu, alloc, mallocs, refRate, jobRate []float64
		for _, sr := range runs {
			wall = append(wall, sr.wall.Seconds())
			cpu = append(cpu, sr.cpu.Seconds())
			alloc = append(alloc, float64(sr.alloc)/1e6)
			mallocs = append(mallocs, float64(sr.mallocs))
			refRate = append(refRate, float64(refs)/sr.wall.Seconds())
			jobRate = append(jobRate, float64(sr.sims)/sr.wall.Seconds())
		}
		n := len(runs)
		r.set("wall_s", median(wall), "s")
		r.note("wall_s", "median of %d sweeps of %d simulations", n, runs[0].sims)
		r.set("cpu_s", median(cpu), "s")
		r.note("cpu_s", "user+system CPU per sweep, median of %d", n)
		r.set("refs_per_s", median(refRate), "1/s")
		r.note("refs_per_s", "%d simulated references per sweep", refs)
		r.set("jobs_per_s", median(jobRate), "1/s")
		r.note("jobs_per_s", "simulations per second, median of %d sweeps", n)
		r.set("peak_rss_mb", median(rss), "MB")
		r.note("peak_rss_mb", "median of %d one-second high-water marks", len(rss))
		r.set("alloc_mb", median(alloc), "MB")
		r.note("alloc_mb", "heap bytes allocated per sweep, median of %d", n)
		r.set("allocs", median(mallocs), "count")
		r.note("allocs", "heap objects allocated per sweep, median of %d", n)
		return nil
	}
}

// tracedSweep re-runs the sweep one simulation at a time with metrics
// collected and the CPU profiler on, timing each call into a layer,
// then replays the apps' programs alone and groups the profile by
// layer. untraced is the run's untraced sweep, the reference for both
// the digests and the overhead ratio.
func tracedSweep(e *env, d sweepDef, r *report, ops map[string]progOps, untraced sweepRun) error {
	profPath := filepath.Join(e.work, "cpu-"+d.name+".pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	counts := simCounts{}
	var runErr error
	t0 := time.Now()
	for _, app := range d.apps {
		for _, s := range sweepSchemes() {
			k := simKey{app, s}
			cfg := prefetchsim.Config{App: app, Scheme: s, Degree: 1, Processors: sweepProcs,
				Seed: e.seed, SLCBytes: d.slcBytes(), CollectMetrics: true}
			var res *prefetchsim.Result
			r.timed("sim.run", "sweep", k.String(), func() { res, runErr = prefetchsim.Run(cfg) })
			if runErr != nil {
				break
			}
			var dg string
			r.timed("obs.digest", "sim.run", k.String(), func() { dg = prefetchsim.StatsDigest(res.Stats) })
			r.check(dg == untraced.digests[k], "%s: %s traced digest %.12s, untraced %.12s", d.name, k, dg, untraced.digests[k])
			err := sameOps(res.Stats, ops[app])
			r.check(err == nil, "%s: %s: %v", d.name, k, err)
			counts.add(prefetchsim.StatsLines(res.Stats), res.Metrics.Totals())
		}
		if runErr != nil {
			break
		}
	}
	traced := time.Since(t0)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	if err := pf.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	r.set("bench.trace_overhead", traced.Seconds()/untraced.wall.Seconds(), "ratio")
	r.note("bench.trace_overhead", "traced %.3f s / untraced %.3f s", traced.Seconds(), untraced.wall.Seconds())
	setSimCounts(r, counts, r.spanTotal("sim.run"))
	r.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	r.set("obs.digest_ms", float64(r.spanTotal("obs.digest").Microseconds())/1e3, "ms")
	r.note("obs.digest_ms", "StatsDigest over %d simulations", untraced.sims)

	if err := replayApps(r, d.apps, sweepProcs, e.seed); err != nil {
		return err
	}
	shares, err := ledger(profPath, "other")
	if err != nil {
		return err
	}
	setShares(r, shares, "the benchmark process's CPU profile of the traced sweep")
	notExercised(r, "job_miss_ms_p50", "job_miss_ms_p90", "job_hit_ms_p50", "job_hit_ms_p90",
		"prefetchd.submit_ms_p50", "prefetchd.stream_ms_p50", "runner.wait_ms_p50", "runner.run_ms_p50",
		"resultcache.hits", "resultcache.misses", "resultcache.bytes",
		"resultcache.put_us_p50", "resultcache.get_us_p50", "jobs.coalesced")
	return nil
}

// simCounts sums a pass's simulated statistics: the StatsLines fields
// ("node.<Field>" over every node, "machine.<field>") and the metric
// totals ("engine.events", ...), keeping the maximum of
// engine.queue.max.
type simCounts map[string]int64

func (c simCounts) add(rows []string, metrics map[string]int64) {
	for _, row := range rows {
		prefix := "node."
		if strings.HasPrefix(row, "machine ") {
			prefix = "machine."
		}
		for k, v := range fieldsOf(row) {
			c[prefix+k] += v
		}
	}
	for k, v := range metrics {
		if k == "engine.queue.max" {
			c[k] = max(c[k], v)
		} else {
			c[k] += v
		}
	}
}

// setSimCounts reports the simulated counts of a pass; they repeat
// exactly for a given seed. simTime is the host time the simulations
// took.
func setSimCounts(r *report, c simCounts, simTime time.Duration) {
	events, refs := c["engine.events"], c["node.Reads"]+c["node.Writes"]
	r.set("sim.events", float64(events), "count")
	r.set("sim.events_per_ref", float64(events)/float64(refs), "ratio")
	r.note("sim.events_per_ref", "%d events / %d references", events, refs)
	r.set("sim.queue_max", float64(c["engine.queue.max"]), "count")
	r.set("sim.ns_per_event", float64(simTime.Nanoseconds())/float64(events), "ns")
	r.note("sim.ns_per_event", "%.3f s in simulations / %d events", simTime.Seconds(), events)
	for _, m := range []struct{ name, key, unit string }{
		{"machine.read_stall_pclk", "node.ReadStall", "pclk"},
		{"cache.flc_hits", "node.FLCReadHits", "count"},
		{"cache.slc_hits", "node.SLCReadHits", "count"},
		{"cache.read_misses", "node.ReadMisses", "count"},
		{"cache.miss_cold", "node.ColdMisses", "count"},
		{"cache.miss_coherence", "node.CoherenceMisses", "count"},
		{"cache.miss_replacement", "node.ReplacementMisses", "count"},
		{"coherence.invalidations", "node.InvalidationsReceived", "count"},
		{"coherence.writebacks", "node.Writebacks", "count"},
		{"network.messages", "machine.msgs", "count"},
		{"network.flit_hops", "machine.flithops", "count"},
		{"prefetch.issued", "node.PrefetchesIssued", "count"},
		{"prefetch.useful", "node.PrefetchesUseful", "count"},
		{"prefetch.late", "node.prefetch.late", "count"},
	} {
		r.set(m.name, float64(c[m.key]), m.unit)
	}
	issued, useful := c["node.PrefetchesIssued"], c["node.PrefetchesUseful"]
	eff := 0.0
	if issued > 0 {
		eff = float64(useful) / float64(issued)
	}
	r.set("prefetch.efficiency", eff, "ratio")
	r.note("prefetch.efficiency", "%d useful / %d issued", useful, issued)
}

// replayApps times BuildApp and drains each program with no machine
// behind it: apps.build_ms sums the per-app medians, trace.ns_per_op
// is the median over repeats of drain time per op.
func replayApps(r *report, apps []string, procs int, seed uint64) error {
	const reps = 5
	var buildMS float64
	var perOp []float64
	builds := map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		var drainT time.Duration
		var n int64
		for _, app := range apps {
			var prog *prefetchsim.Program
			var err error
			b := r.timed("apps.build", "replay", app, func() {
				prog, err = prefetchsim.BuildApp(app, prefetchsim.Params{Procs: procs, Scale: 1, Seed: seed})
			})
			if err != nil {
				return err
			}
			builds[app] = append(builds[app], float64(b.Microseconds())/1e3)
			var o progOps
			drainT += r.timed("trace.drain", "replay", app, func() { o = drain(prog) })
			n += o.all
		}
		perOp = append(perOp, float64(drainT.Nanoseconds())/float64(n))
	}
	for _, app := range apps {
		buildMS += median(builds[app])
	}
	r.set("apps.build_ms", buildMS, "ms")
	r.note("apps.build_ms", "sum over %d programs of the median of %d BuildApp calls", len(apps), reps)
	r.set("trace.ns_per_op", median(perOp), "ns")
	r.note("trace.ns_per_op", "median of %d drains of %d programs", reps, len(apps))
	return nil
}

func setShares(r *report, shares map[string]float64, source string) {
	for _, l := range cpuLayers {
		r.set(l+".cpu_share", shares[l], "ratio")
	}
	r.note("sim.cpu_share", "%s", source)
}
