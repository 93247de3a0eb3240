package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prefetchsim"
	"prefetchsim/internal/resultcache"
)

// service-mix drives prefetchd with a closed loop of two clients (the
// container has two cores). Each client owns a seeded pool of
// single-run specs; it submits each spec once (a result-cache miss
// that simulates and stores) and then hitsPerMiss more times (hits).
// The pools share no spec, so the seed alone fixes which jobs hit and
// which miss, and no job coalesces.
const (
	clients      = 2
	hitsPerMiss  = 10
	serviceProcs = 4
	// specRate sizes a client's pool: about this many specs (one miss
	// and its hits each) per measured second on the reference machine,
	// rounded up to whole cycles of the app×scheme pairs so both
	// clients carry the same mix.
	specRate = 8.0
	// maxSeconds bounds -seconds so the pinned default-seed digests
	// cover every spec a run can submit.
	maxSeconds = 60
)

// The pool spans the apps and schemes a single-run job typically asks
// for, at 4 processors: a count every app accepts (Ocean needs a
// perfect square).
var (
	serviceApps    = []string{"cholesky", "ocean", "water", "matmul", "listchase", "hashjoin", "bfs"}
	serviceSchemes = []prefetchsim.Scheme{prefetchsim.Baseline, prefetchsim.IDet, prefetchsim.DDet, prefetchsim.Seq}
)

type poolSpec struct {
	App    string
	Scheme prefetchsim.Scheme
	Seed   uint64
}

func specsPerClient(seconds float64) int {
	cycle := len(serviceApps) * len(serviceSchemes)
	return int(math.Ceil(seconds*specRate/float64(cycle))) * cycle
}

// mix is splitmix64 over the words, for seeding the pools.
func mix(words ...uint64) uint64 {
	var x uint64 = 0x9e3779b97f4a7c15
	for _, w := range words {
		x ^= w
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x = z ^ (z >> 31)
	}
	return x
}

// clientPool is client c's spec sequence: every app×scheme pair once
// per cycle, in a seeded order, each with its own workload seed. The
// pairs are stratified so every run sees the same mix of job sizes.
func clientPool(seed uint64, c, n int) []poolSpec {
	type pair struct {
		app    string
		scheme prefetchsim.Scheme
	}
	var pairs []pair
	for _, a := range serviceApps {
		for _, s := range serviceSchemes {
			pairs = append(pairs, pair{a, s})
		}
	}
	pool := make([]poolSpec, 0, n)
	for cycle := 0; len(pool) < n; cycle++ {
		order := append([]pair(nil), pairs...)
		for i := len(order) - 1; i > 0; i-- {
			j := int(mix(seed, uint64(c), uint64(cycle), uint64(i)) % uint64(i+1))
			order[i], order[j] = order[j], order[i]
		}
		for _, p := range order {
			if len(pool) == n {
				break
			}
			pool = append(pool, poolSpec{p.app, p.scheme, mix(seed, uint64(c), uint64(len(pool)), 0x5eed)})
		}
	}
	return pool
}

func (p poolSpec) body() []byte {
	// Marshal cannot fail on strings and integers.
	buf, _ := json.Marshal(map[string]any{
		"config":  map[string]any{"app": p.App, "scheme": string(p.Scheme), "processors": serviceProcs, "seed": p.Seed},
		"metrics": true,
	})
	return buf
}

func (p poolSpec) config() prefetchsim.Config {
	return prefetchsim.Config{App: p.App, Scheme: p.Scheme, Degree: 1, Processors: serviceProcs, Seed: p.Seed}
}

// daemon is one running prefetchd.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

// startDaemon boots prefetchd on a fresh cache directory and returns
// once /readyz answers 200, with the time that took.
func startDaemon(e *env, tag string) (*daemon, time.Duration, error) {
	dir := filepath.Join(e.work, "cache-"+tag)
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(e.work, "prefetchd-"+tag+".log"))
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	start := time.Now()
	cmd := exec.Command(e.prefetchd, "-http", "127.0.0.1:0", "-cache-dir", dir,
		"-max-jobs", "2", "-j", "1", "-pprof", "-log-level", "warn")
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "prefetchd: serving on "); ok {
				addr <- a
			}
		}
		d.done <- cmd.Wait()
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, err
	}
	select {
	case d.base = <-addr:
	case err := <-d.done:
		d.done <- err
		return nil, 0, fmt.Errorf("prefetchd exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		return fail(errors.New("prefetchd did not report its address"))
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("prefetchd never became ready"))
		}
		time.Sleep(time.Millisecond)
	}
	return d, time.Since(start), nil
}

// stop drains the server with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if d == nil {
		return nil
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		// A server stopped before it installed its signal handler
		// dies of the SIGTERM itself; that is a clean stop too.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		return errors.Join(errors.New("prefetchd ignored SIGTERM"), <-d.done)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// heapStats reads the server's runtime.MemStats from the heap profile
// header (TotalAlloc, Mallocs, NumGC, ...).
func (d *daemon) heapStats() (map[string]float64, error) {
	body, err := d.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if k, v, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = "); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
				m[k] = f
			}
		}
	}
	if _, ok := m["TotalAlloc"]; !ok {
		return nil, errors.New("heap profile carries no MemStats")
	}
	return m, nil
}

// scrape reads the server's Prometheus exposition.
func (d *daemon) scrape() (map[string]float64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				m[f[0]] = v
			}
		}
	}
	return m, nil
}

// job is one submission as the client saw it.
type job struct {
	spec               int // index into the client's pool
	class, status, id  string
	digest             string // the server's result-cache key
	totalMS            float64
	submitMS, streamMS float64
	payload            [][]byte // lines between the job and done lines
	waitUS, runUS      int64    // server lifecycle span (traced misses)
}

// submit posts one spec with ?stream=1 and reads its NDJSON to the
// done line. Latency runs from the request to the done line.
func submit(hc *http.Client, base string, body []byte) (job, error) {
	var j job
	start := time.Now()
	resp, err := hc.Post(base+"/jobs?stream=1", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return j, fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	var first time.Time
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return j, fmt.Errorf("stream ended before its done line: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte{'\n'})
		// Only the per-request framing lines are decoded here; the
		// payload lines between them are kept as bytes.
		var head struct {
			Type, ID, Digest, Status, Cache string
		}
		if bytes.HasPrefix(line, []byte(`{"type":"job"`)) || bytes.HasPrefix(line, []byte(`{"type":"done"`)) {
			if err := json.Unmarshal(line, &head); err != nil {
				return j, fmt.Errorf("bad NDJSON line: %w", err)
			}
		}
		switch head.Type {
		case "job":
			first = time.Now()
			j.id, j.digest = head.ID, head.Digest
		case "done":
			end := time.Now()
			j.status, j.class = head.Status, head.Cache
			j.totalMS = float64(end.Sub(start).Microseconds()) / 1e3
			j.submitMS = float64(first.Sub(start).Microseconds()) / 1e3
			j.streamMS = float64(end.Sub(first).Microseconds()) / 1e3
			// Read to EOF so the connection is reused.
			_, err := io.Copy(io.Discard, br)
			return j, err
		default:
			j.payload = append(j.payload, line)
		}
	}
}

// pass is one closed-loop window against one server.
type pass struct {
	wall  time.Duration
	jobs  [clients][]job
	pools [clients][]poolSpec
}

// drive runs both clients over their pools. With spans set, each miss
// is followed by a GET /jobs/<id> for its server lifecycle span.
func drive(d *daemon, pools [clients][]poolSpec, spans bool) (*pass, error) {
	p := &pass{pools: pools}
	var wg sync.WaitGroup
	var errs [clients]error
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
			defer hc.CloseIdleConnections()
			for i, spec := range pools[c] {
				body := spec.body()
				for k := 0; k <= hitsPerMiss; k++ {
					j, err := submit(hc, d.base, body)
					if err != nil {
						errs[c] = fmt.Errorf("client %d spec %d: %w", c, i, err)
						return
					}
					j.spec = i
					if spans && k == 0 {
						if err := fetchSpan(hc, d.base, &j); err != nil {
							errs[c] = err
							return
						}
					}
					p.jobs[c] = append(p.jobs[c], j)
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p, errors.Join(errs[:]...)
}

func fetchSpan(hc *http.Client, base string, j *job) error {
	resp, err := hc.Get(base + "/jobs/" + j.id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var rec struct {
		Spans struct {
			WaitUS int64 `json:"wait_us"`
			RunUS  int64 `json:"run_us"`
		} `json:"spans"`
	}
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		err = json.Unmarshal(body, &rec)
	}
	if err != nil {
		return fmt.Errorf("GET /jobs/%s: %w", j.id, err)
	}
	j.waitUS, j.runUS = rec.Spans.WaitUS, rec.Spans.RunUS
	return nil
}

// missPayload is a miss's payload, decoded.
type missPayload struct {
	rows        []string
	nodes       []map[string]int64
	machine     map[string]int64
	metrics     map[string]int64
	rowsDigest  string
	statsDigest string
}

func decodePayload(lines [][]byte) (*missPayload, error) {
	mp := &missPayload{}
	for _, l := range lines {
		var v struct {
			Type        string           `json:"type"`
			Text        string           `json:"text"`
			Totals      map[string]int64 `json:"totals"`
			RowsDigest  string           `json:"rows_digest"`
			StatsDigest string           `json:"stats_digest"`
		}
		if err := json.Unmarshal(l, &v); err != nil {
			return nil, err
		}
		switch v.Type {
		case "row":
			mp.rows = append(mp.rows, v.Text)
			kv := fieldsOf(v.Text)
			if strings.HasPrefix(v.Text, "machine ") {
				mp.machine = kv
			} else {
				mp.nodes = append(mp.nodes, kv)
			}
		case "metrics":
			mp.metrics = v.Totals
		case "result":
			mp.rowsDigest, mp.statsDigest = v.RowsDigest, v.StatsDigest
		}
	}
	if mp.machine == nil || mp.metrics == nil || mp.statsDigest == "" {
		return nil, errors.New("payload lacks rows, metrics or result")
	}
	return mp, nil
}

// fieldsOf parses a StatsLines row ("node3 {Reads:1 Writes:2 ...}" or
// "machine msgs=1 flits=2 ...") into its integer fields.
func fieldsOf(text string) map[string]int64 {
	m := map[string]int64{}
	for _, f := range strings.Fields(strings.NewReplacer("{", " ", "}", " ", "=", ":").Replace(text)) {
		if k, v, ok := strings.Cut(f, ":"); ok {
			if n, err := strconv.ParseInt(v, 10, 64); err == nil {
				m[k] = n
			}
		}
	}
	return m
}

// checkPass verifies every job of a pass: each spec's first job is a
// miss whose payload is well-formed, self-consistent and (when pinned
// is given) carries the pinned digest; every later job is a hit whose
// payload is byte-identical to the miss's. It returns the decoded
// misses.
func checkPass(r *report, p *pass, pinned [][]string) map[[2]int]*missPayload {
	misses := map[[2]int]*missPayload{}
	for c := 0; c < clients; c++ {
		var first *job
		for idx := range p.jobs[c] {
			j := &p.jobs[c][idx]
			spec := p.pools[c][j.spec]
			if first == nil || first.spec != j.spec {
				first = j
				mp, err := decodePayload(j.payload)
				why := ""
				if err != nil || j.status != "done" || j.class != "miss" {
					why = fmt.Sprintf("status %s cache %s, payload error %v", j.status, j.class, err)
				} else {
					var rowsOK bool
					r.timed("obs.digest", "job", j.id, func() { rowsOK = prefetchsim.DigestRows(mp.rows) == mp.rowsDigest })
					switch {
					case !rowsOK:
						why = "rows digest does not match its rows"
					case mp.statsDigest != mp.rowsDigest:
						why = "stats digest differs from rows digest"
					case pinned != nil && (j.spec >= len(pinned[c]) || pinned[c][j.spec] != mp.statsDigest):
						why = fmt.Sprintf("stats digest %.12s differs from the pinned digest", mp.statsDigest)
					}
				}
				if why == "" {
					misses[[2]int{c, j.spec}] = mp
				}
				r.check(why == "", "client %d job %s (%s/%s seed %d, miss): %s", c, j.id, spec.App, spec.Scheme, spec.Seed, why)
				continue
			}
			ok := j.status == "done" && j.class == "hit" && len(j.payload) == len(first.payload)
			for k := 0; ok && k < len(j.payload); k++ {
				ok = bytes.Equal(j.payload[k], first.payload[k])
			}
			r.check(ok, "client %d job %s (%s/%s seed %d, hit): status %s cache %s, payload differs from the miss's",
				c, j.id, spec.App, spec.Scheme, spec.Seed, j.status, j.class)
		}
	}
	return misses
}

// checkOps compares each miss's per-node read and write counts with
// the ops its program emits, drained here with no machine.
func checkOps(r *report, p *pass, misses map[[2]int]*missPayload) error {
	for key, mp := range misses {
		spec := p.pools[key[0]][key[1]]
		want, err := buildOps(spec.App, serviceProcs, spec.Seed)
		if err != nil {
			return err
		}
		ok := len(mp.nodes) == len(want.reads)
		for i := 0; ok && i < len(want.reads); i++ {
			ok = mp.nodes[i]["Reads"] == want.reads[i] && mp.nodes[i]["Writes"] == want.writes[i]
		}
		r.check(ok, "%s/%s seed %d: simulated ops differ from the ops its program emits", spec.App, spec.Scheme, spec.Seed)
	}
	return nil
}

func servicePools(seed uint64, seconds float64) ([clients][]poolSpec, error) {
	var pools [clients][]poolSpec
	seen := map[string]bool{}
	for c := range pools {
		pools[c] = clientPool(seed, c, specsPerClient(seconds))
		for _, s := range pools[c] {
			d := prefetchsim.ConfigDigest(s.config())
			if seen[d] {
				return pools, fmt.Errorf("spec %s/%s seed %d repeats in the pools", s.App, s.Scheme, s.Seed)
			}
			seen[d] = true
		}
	}
	return pools, nil
}

func serviceWorkload(e *env, r *report) error {
	if e.seconds > maxSeconds {
		return fmt.Errorf("-seconds above %d is not pinned", maxSeconds)
	}
	exp, err := loadExpected(e.root)
	if err != nil {
		return err
	}
	var pinned [][]string
	if e.seed == defaultSeed {
		pinned = exp.Service
	}
	pools, err := servicePools(e.seed, e.seconds)
	if err != nil {
		return err
	}

	// Set-up is a server boot on a fresh cache until /readyz answers;
	// fifteen boots (each a few milliseconds), the last one serves the
	// pass.
	var boots []float64
	var d *daemon
	for i := 0; i < 15; i++ {
		if err := d.stop(); err != nil {
			return fmt.Errorf("stop prefetchd: %w", err)
		}
		var t time.Duration
		d, t, err = startDaemon(e, "untraced")
		if err != nil {
			return err
		}
		boots = append(boots, t.Seconds())
	}
	defer func() { d.stop() }()
	r.set("setup_s", median(boots), "s")
	r.note("setup_s", "median of %d boots to /readyz", len(boots))

	cpu0, err1 := procCPU(d.pid())
	heap0, err2 := d.heapStats()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	rssWindows := sampleRSS(d.pid())
	p, err := drive(d, pools, false)
	rss, err3 := rssWindows()
	if err != nil {
		return err
	}
	cpu1, err1 := procCPU(d.pid())
	heap1, err2 := d.heapStats()
	if err := errors.Join(err1, err2, err3); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return fmt.Errorf("stop prefetchd: %w", err)
	}
	d = nil

	misses := checkPass(r, p, pinned)
	if err := checkOps(r, p, misses); err != nil {
		return err
	}
	var refs int64
	for _, mp := range misses {
		for _, n := range mp.nodes {
			refs += n["Reads"] + n["Writes"]
		}
	}
	var jobs int
	var missMS, hitMS, submitMS, streamMS []float64
	for c := range p.jobs {
		for _, j := range p.jobs[c] {
			jobs++
			if j.class == "miss" {
				missMS = append(missMS, j.totalMS)
			} else {
				hitMS = append(hitMS, j.totalMS)
			}
			submitMS = append(submitMS, j.submitMS)
			streamMS = append(streamMS, j.streamMS)
		}
	}
	wall := p.wall.Seconds()
	r.set("wall_s", wall, "s")
	r.note("wall_s", "%d jobs from %d clients, closed loop", jobs, clients)
	r.set("cpu_s", (cpu1 - cpu0).Seconds(), "s")
	r.note("cpu_s", "server user+system CPU over the pass")
	r.set("refs_per_s", float64(refs)/wall, "1/s")
	r.note("refs_per_s", "%d references simulated by %d misses", refs, len(misses))
	r.set("jobs_per_s", float64(jobs)/wall, "1/s")
	r.set("peak_rss_mb", median(rss), "MB")
	r.note("peak_rss_mb", "server, median of %d one-second high-water marks", len(rss))
	r.set("alloc_mb", (heap1["TotalAlloc"]-heap0["TotalAlloc"])/1e6, "MB")
	r.note("alloc_mb", "server heap bytes allocated over the pass")
	r.set("allocs", heap1["Mallocs"]-heap0["Mallocs"], "count")
	r.note("allocs", "server heap objects allocated over the pass")
	r.percentile("job_miss_ms_p50", missMS, 0.5, "ms")
	r.percentile("job_miss_ms_p90", missMS, 0.9, "ms")
	r.percentile("job_hit_ms_p50", hitMS, 0.5, "ms")
	r.percentile("job_hit_ms_p90", hitMS, 0.9, "ms")
	r.percentile("prefetchd.submit_ms_p50", submitMS, 0.5, "ms")
	r.percentile("prefetchd.stream_ms_p50", streamMS, 0.5, "ms")
	if !e.traced {
		return nil
	}
	return tracedService(e, r, pools, p, misses)
}

// tracedService repeats the pass against a fresh server with its CPU
// profiled and each miss's lifecycle span fetched, checks its digests
// against the untraced pass, and replays its payloads through a fresh
// result cache.
func tracedService(e *env, r *report, pools [clients][]poolSpec, untraced *pass, uMisses map[[2]int]*missPayload) error {
	d, _, err := startDaemon(e, "traced")
	if err != nil {
		return err
	}
	defer func() { d.stop() }()
	heap0, err := d.heapStats()
	if err != nil {
		return err
	}
	profPath := filepath.Join(e.work, "cpu-service-mix.pprof")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	profErr := make(chan error, 1)
	go func() {
		secs := max(1, int(untraced.wall.Seconds()))
		req, err := http.NewRequestWithContext(ctx, "GET", fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.base, secs), nil)
		if err != nil {
			profErr <- err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			profErr <- err
			return
		}
		defer resp.Body.Close()
		f, err := os.Create(profPath)
		if err != nil {
			profErr <- err
			return
		}
		_, err = io.Copy(f, resp.Body)
		profErr <- errors.Join(err, f.Close())
	}()
	p, err := drive(d, pools, true)
	if err != nil {
		return err
	}
	if err := <-profErr; err != nil {
		return fmt.Errorf("server CPU profile: %w", err)
	}
	heap1, err1 := d.heapStats()
	prom, err2 := d.scrape()
	if err := errors.Join(err1, err2); err != nil {
		return err
	}

	misses := checkPass(r, p, nil)
	counts := simCounts{}
	for key, mp := range misses {
		u := uMisses[key]
		r.check(u != nil && u.statsDigest == mp.statsDigest, "traced %v: stats digest differs from the untraced pass", key)
		counts.add(mp.rows, mp.metrics)
	}
	var runUS int64
	var waitMS, runMS []float64
	var jobs int
	for c := range p.jobs {
		for _, j := range p.jobs[c] {
			jobs++
			if j.class == "miss" {
				waitMS = append(waitMS, float64(j.waitUS)/1e3)
				runMS = append(runMS, float64(j.runUS)/1e3)
				runUS += j.runUS
			}
		}
	}
	r.set("bench.trace_overhead", p.wall.Seconds()/untraced.wall.Seconds(), "ratio")
	r.note("bench.trace_overhead", "traced %.3f s / untraced %.3f s", p.wall.Seconds(), untraced.wall.Seconds())
	setSimCounts(r, counts, time.Duration(runUS)*time.Microsecond)
	r.note("sim.ns_per_event", "server run time of %d misses / %d events", len(misses), counts["engine.events"])
	r.percentile("runner.wait_ms_p50", waitMS, 0.5, "ms")
	r.percentile("runner.run_ms_p50", runMS, 0.5, "ms")
	r.set("runtime.gc_cycles", heap1["NumGC"]-heap0["NumGC"], "count")
	r.note("runtime.gc_cycles", "server")
	r.set("obs.digest_ms", float64(r.spanTotal("obs.digest").Microseconds())/1e3, "ms")
	r.note("obs.digest_ms", "DigestRows over both passes' miss payloads")

	hits, missesN := prom["resultcache_hits_total"], prom["resultcache_misses_total"]
	coalesced := prom["jobs_cache_coalesced_total"]
	r.set("resultcache.hits", hits, "count")
	r.set("resultcache.misses", missesN, "count")
	r.set("resultcache.bytes", prom["resultcache_bytes"], "bytes")
	r.set("jobs.coalesced", coalesced, "count")
	nMiss := len(pools[0]) + len(pools[1])
	r.check(coalesced == 0 && int(hits) == jobs-nMiss && int(missesN) == nMiss,
		"server counted %v hits, %v misses, %v coalesced; want %d, %d, 0", hits, missesN, coalesced, jobs-nMiss, nMiss)

	if err := replayCache(e, r, p); err != nil {
		return err
	}
	if err := replayApps(r, serviceApps, serviceProcs, e.seed); err != nil {
		return err
	}
	shares, err := ledger(profPath, "prefetchd")
	if err != nil {
		return err
	}
	setShares(r, shares, "the server's CPU profile of the traced pass")
	return nil
}

// replayCache puts every miss payload of the pass into a fresh
// resultcache.Store under the server's own key, then gets each back.
func replayCache(e *env, r *report, p *pass) error {
	dir := filepath.Join(e.work, "replay-cache")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	store, err := resultcache.Open(dir, 0)
	if err != nil {
		return err
	}
	type obj struct {
		key  string
		data []byte
	}
	var objs []obj
	for c := range p.jobs {
		for _, j := range p.jobs[c] {
			if j.class == "miss" {
				objs = append(objs, obj{j.digest, append(bytes.Join(j.payload, []byte{'\n'}), '\n')})
			}
		}
	}
	var puts, gets []float64
	for _, o := range objs {
		var perr error
		d := r.timed("resultcache.put", "replay", o.key, func() { perr = store.Put(o.key, o.data) })
		if perr != nil {
			store.Close()
			return perr
		}
		puts = append(puts, float64(d.Nanoseconds())/1e3)
	}
	for _, o := range objs {
		var got []byte
		var ok bool
		d := r.timed("resultcache.get", "replay", o.key, func() { got, ok = store.Get(o.key) })
		r.check(ok && bytes.Equal(got, o.data), "replayed cache object %.16s came back different", o.key)
		gets = append(gets, float64(d.Nanoseconds())/1e3)
	}
	if err := store.Close(); err != nil {
		return err
	}
	r.percentile("resultcache.put_us_p50", puts, 0.5, "us")
	r.percentile("resultcache.get_us_p50", gets, 0.5, "us")
	return nil
}
