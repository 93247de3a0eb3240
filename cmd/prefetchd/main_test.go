package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"prefetchsim"
	"prefetchsim/internal/resultcache"
	"prefetchsim/internal/webstatus"
)

func TestSpecNormalize(t *testing.T) {
	t.Parallel()

	// Kind inference + defaults.
	s, err := jobSpec{Config: &prefetchsim.RunConfig{App: "matmul"}}.normalize()
	if err != nil {
		t.Fatalf("normalize run: %v", err)
	}
	if s.Kind != kindRun || s.Config.Scheme != string(prefetchsim.Baseline) ||
		s.Config.Degree != 1 || s.Config.Processors != 16 || s.Config.Scale != 1 {
		t.Fatalf("run defaults not applied: %+v %+v", s, *s.Config)
	}

	s, err = jobSpec{Apps: []string{"lu"}}.normalize()
	if err != nil {
		t.Fatalf("normalize figure6: %v", err)
	}
	if s.Kind != kindFig6 || len(s.Schemes) == 0 || s.Procs != 16 || s.Scale != 1 {
		t.Fatalf("figure6 defaults not applied: %+v", s)
	}

	// Equivalent spellings digest identically; different work doesn't.
	a, _ := jobSpec{Config: &prefetchsim.RunConfig{App: "matmul"}}.normalize()
	b, _ := jobSpec{Kind: kindRun, Config: &prefetchsim.RunConfig{
		App: "matmul", Scheme: "baseline", Degree: 1, Processors: 16, Scale: 1}}.normalize()
	if a.digest() != b.digest() {
		t.Errorf("equivalent specs digest differently: %s vs %s", a.digest(), b.digest())
	}
	c, _ := jobSpec{Config: &prefetchsim.RunConfig{App: "matmul", Seed: 7}}.normalize()
	if a.digest() == c.digest() {
		t.Errorf("different seeds share a digest: %s", a.digest())
	}
	d, _ := a, error(nil)
	d.Metrics = true
	if a.digest() == d.digest() {
		t.Errorf("metrics flag not part of the digest")
	}

	// Invalid specs are rejected.
	for _, bad := range []jobSpec{
		{},
		{Kind: "nope"},
		{Kind: kindRun},
		{Kind: kindRun, Config: &prefetchsim.RunConfig{}},
		{Config: &prefetchsim.RunConfig{App: "matmul"}, Apps: []string{"lu"}},
		{Kind: kindFig6, Spans: true},
	} {
		if _, err := bad.normalize(); err == nil {
			t.Errorf("spec %+v: want error", bad)
		}
	}
}

// startTestServer boots a full prefetchd (ephemeral port, temp cache
// dir) and tears it down with the test.
func startTestServer(t *testing.T, maxJobs int) (*server, string) {
	t.Helper()
	store, err := resultcache.Open(t.TempDir(), 64<<20)
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	s := newServer(store, 2, maxJobs)
	srv, err := webstatus.ServeOpts("127.0.0.1:0", s.status, webstatus.Options{
		Register: s.register, Metrics: s.reg, Ready: s.ready,
	})
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() {
		s.drain(time.Minute)
		srv.Close()
		store.Close()
	})
	return s, "http://" + srv.Addr()
}

// ndjson splits a streamed response into its job header, payload
// lines, and done trailer.
func parseStream(t *testing.T, body []byte) (header jobLine, payload [][]byte, done doneLine) {
	t.Helper()
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	first := true
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch {
		case first:
			if probe.Type != "job" {
				t.Fatalf("stream starts with %q, want job", probe.Type)
			}
			if err := json.Unmarshal(line, &header); err != nil {
				t.Fatalf("decode job line: %v", err)
			}
			first = false
		case probe.Type == "done":
			if err := json.Unmarshal(line, &done); err != nil {
				t.Fatalf("decode done line: %v", err)
			}
		default:
			payload = append(payload, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan stream: %v", err)
	}
	if done.Type != "done" {
		t.Fatalf("stream has no done trailer; %d lines", len(payload))
	}
	return header, payload, done
}

func submitStream(t *testing.T, base, spec string) (jobLine, [][]byte, doneLine) {
	t.Helper()
	resp, err := http.Post(base+"/jobs?stream=1", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /jobs?stream=1: status %d: %s", resp.StatusCode, buf.String())
	}
	return parseStream(t, buf.Bytes())
}

// TestCacheHitByteIdentical is the acceptance criterion: the same spec
// submitted twice simulates once; the repeat is served from the result
// cache with a byte-identical payload, proven by hashing both streams.
func TestCacheHitByteIdentical(t *testing.T) {
	s, base := startTestServer(t, 2)

	spec := `{"kind":"figure6","apps":["matmul"],"schemes":["Seq"],"procs":4,"metrics":true}`
	_, payload1, done1 := submitStream(t, base, spec)
	if done1.Status != statusDone || done1.Cache != "miss" {
		t.Fatalf("first submission: status %q cache %q, want done/miss", done1.Status, done1.Cache)
	}
	if len(payload1) == 0 {
		t.Fatal("first submission streamed no payload lines")
	}

	_, payload2, done2 := submitStream(t, base, spec)
	if done2.Status != statusDone || done2.Cache != "hit" {
		t.Fatalf("second submission: status %q cache %q, want done/hit", done2.Status, done2.Cache)
	}

	h1 := sha256.Sum256(joinLines(payload1))
	h2 := sha256.Sum256(joinLines(payload2))
	if h1 != h2 {
		t.Fatalf("cache hit payload differs from the original:\n%s\n----\n%s",
			joinLines(payload1), joinLines(payload2))
	}
	if hits, misses := s.hits.Value(), s.misses.Value(); hits != 1 || misses != 1 {
		t.Fatalf("cache counters: hits=%d misses=%d, want 1/1", hits, misses)
	}

	// The payload survives a cache reopen: a fresh server on the same
	// directory also answers from cache.
	var rows int
	for _, l := range payload1 {
		if bytes.Contains(l, []byte(`"type":"row"`)) {
			rows++
		}
	}
	if rows == 0 {
		t.Fatal("payload has no row lines")
	}
}

// TestRunJobPayload checks a single-run job's payload shape: node rows,
// metrics totals, and a result line carrying the canonical digests.
func TestRunJobPayload(t *testing.T) {
	_, base := startTestServer(t, 2)

	spec := `{"config":{"app":"matmul","processors":4},"metrics":true,"spans":true}`
	header, payload, done := submitStream(t, base, spec)
	if done.Status != statusDone {
		t.Fatalf("run job failed: %+v", done)
	}
	if !strings.HasPrefix(header.Digest, "run-") {
		t.Fatalf("run job digest %q lacks run- prefix", header.Digest)
	}
	// Span payloads carry invalidate spans; their digest suffix is
	// versioned so an older cache entry without them is never served.
	if !strings.HasSuffix(header.Digest, "-m-s2") {
		t.Fatalf("run job digest %q lacks the -m-s2 payload suffix", header.Digest)
	}

	var rows []string
	var sawMetrics, sawSpans bool
	var res resultLine
	for _, l := range payload {
		var probe struct {
			Type string `json:"type"`
			Text string `json:"text"`
		}
		if err := json.Unmarshal(l, &probe); err != nil {
			t.Fatalf("bad payload line %q: %v", l, err)
		}
		switch probe.Type {
		case "row":
			rows = append(rows, probe.Text)
		case "metrics":
			sawMetrics = true
		case "spans":
			sawSpans = true
		case "result":
			if err := json.Unmarshal(l, &res); err != nil {
				t.Fatalf("decode result line: %v", err)
			}
		}
	}
	// 4 processors -> 4 node rows + 1 machine row.
	if len(rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(rows))
	}
	if !sawMetrics || !sawSpans {
		t.Fatalf("payload missing metrics (%v) or spans (%v) line", sawMetrics, sawSpans)
	}
	if res.RowsDigest != prefetchsim.DigestRows(rows) {
		t.Fatalf("rows digest mismatch: line says %s, recomputed %s", res.RowsDigest, prefetchsim.DigestRows(rows))
	}
	if res.StatsDigest == "" || res.ConfigDigest == "" || res.VirtualTime <= 0 {
		t.Fatalf("result line incomplete: %+v", res)
	}

	// The result line's config digest matches the library's notion for
	// the same configuration.
	want := prefetchsim.ConfigDigest(prefetchsim.Config{App: "matmul", Processors: 4})
	if res.ConfigDigest != want {
		t.Fatalf("config digest %s, want %s", res.ConfigDigest, want)
	}
}

// TestBadAppParamsJobFails: an app that cannot run at the requested
// processor count (Ocean needs a perfect square) fails its job with an
// error instead of taking the server down, and the next job runs.
func TestBadAppParamsJobFails(t *testing.T) {
	_, base := startTestServer(t, 2)

	_, _, done := submitStream(t, base, `{"config":{"app":"ocean","processors":8}}`)
	if done.Status != statusFailed || !strings.Contains(done.Error, "perfect square") {
		t.Fatalf("ocean/8 job: %+v, want failed with a perfect-square error", done)
	}

	_, _, done = submitStream(t, base, `{"config":{"app":"matmul","processors":4}}`)
	if done.Status != statusDone {
		t.Fatalf("job after the failed one: %+v, want done", done)
	}
}

// TestOversizedSpecRejected: a body over maxSpecBytes is refused with
// 413 and counted as a bad spec, and the server goes on to complete
// the next valid job.
func TestOversizedSpecRejected(t *testing.T) {
	s, base := startTestServer(t, 2)

	huge := `{"apps":["` + strings.Repeat("a", maxSpecBytes) + `"]}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatalf("POST oversized spec: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized spec: status %d, want 413", resp.StatusCode)
	}
	if got := s.badSpec.Value(); got != 1 {
		t.Fatalf("jobs.spec.invalid = %d after the oversized spec, want 1", got)
	}

	_, _, done := submitStream(t, base, `{"config":{"app":"matmul","processors":4}}`)
	if done.Status != statusDone {
		t.Fatalf("job after the oversized spec: %+v, want done", done)
	}
}

// TestCancelQueuedJob: with one execution slot, a queued job cancels
// cleanly while the slot holder keeps running.
func TestCancelQueuedJob(t *testing.T) {
	s, base := startTestServer(t, 1)

	// Occupy the only slot with a real sweep...
	slow := `{"kind":"figure6","apps":["lu"],"schemes":["I-det","D-det","Seq"],"procs":4}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatalf("POST slow job: %v", err)
	}
	var slowRec jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&slowRec); err != nil {
		t.Fatalf("decode slow job record: %v", err)
	}
	resp.Body.Close()

	// ...then queue a second and cancel it before it can start.
	queued := `{"kind":"figure6","apps":["cholesky"],"schemes":["Seq"],"procs":4}`
	resp, err = http.Post(base+"/jobs", "application/json", strings.NewReader(queued))
	if err != nil {
		t.Fatalf("POST queued job: %v", err)
	}
	var qRec jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&qRec); err != nil {
		t.Fatalf("decode queued job record: %v", err)
	}
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+qRec.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE queued job: %v", err)
	}
	resp.Body.Close()

	// The cancelled job settles without waiting for the slot holder.
	deadline := time.Now().Add(10 * time.Second)
	for {
		j := s.getJob(qRec.ID)
		if rec := j.record(); terminal(rec.Status) {
			if rec.Status != statusCancelled {
				t.Fatalf("queued job settled as %q, want cancelled", rec.Status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never settled")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Cancel the slot holder too so cleanup's drain is quick.
	req, _ = http.NewRequest(http.MethodDelete, base+"/jobs/"+slowRec.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatalf("DELETE slow job: %v", err)
	}
	resp.Body.Close()
}

// TestDrainRejectsNewJobs: a draining server 503s submissions.
func TestDrainRejectsNewJobs(t *testing.T) {
	s, base := startTestServer(t, 2)
	s.drain(time.Second)

	resp, err := http.Post(base+"/jobs", "application/json",
		strings.NewReader(`{"config":{"app":"matmul"}}`))
	if err != nil {
		t.Fatalf("POST after drain: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d after drain, want 503", resp.StatusCode)
	}

	// Draining also flips readiness: /readyz reports 503 so a load
	// balancer stops routing before the listener closes.
	ready, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	ready.Body.Close()
	if ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining = %d, want 503", ready.StatusCode)
	}
}

// TestStreamEndpointReplays: GET /jobs/{id}/stream after completion
// replays the identical payload the submission streamed.
func TestStreamEndpointReplays(t *testing.T) {
	_, base := startTestServer(t, 2)

	spec := `{"config":{"app":"matmul","processors":4}}`
	header, payload1, _ := submitStream(t, base, spec)

	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/stream", base, header.ID))
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	_, payload2, done := parseStream(t, buf.Bytes())
	if done.Status != statusDone {
		t.Fatalf("replay done: %+v", done)
	}
	if !bytes.Equal(joinLines(payload1), joinLines(payload2)) {
		t.Fatal("replayed payload differs from the original stream")
	}
}

// TestEventsEndpoint: SSE progress ends with a done event.
func TestEventsEndpoint(t *testing.T) {
	_, base := startTestServer(t, 2)

	spec := `{"kind":"figure6","apps":["matmul"],"schemes":["Seq"],"procs":4}`
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	var rec jobRecord
	if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
		t.Fatalf("decode record: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(fmt.Sprintf("%s/jobs/%s/events", base, rec.ID))
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content-type %q", ct)
	}
	var sawDone bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "event: done" {
			sawDone = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scan events: %v", err)
	}
	if !sawDone {
		t.Fatal("SSE stream ended without a done event")
	}
}
