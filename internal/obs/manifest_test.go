package obs

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleManifest() *Manifest {
	return &Manifest{
		Schema:        ManifestSchema,
		GoVersion:     "go1.24.0",
		GitSHA:        strings.Repeat("ab", 20),
		CreatedUnixNS: 1754500000000000000,
		Config: RunConfig{
			App: "matmul", Scheme: "Seq", Degree: 2, Processors: 4,
			SLCBytes: 16384, SLCWays: 2, Scale: 1, Seed: 12345,
			SequentialConsistency: true, BandwidthFactor: 2,
		},
		ConfigDigest: RunConfig{
			App: "matmul", Scheme: "Seq", Degree: 2, Processors: 4,
			SLCBytes: 16384, SLCWays: 2, Scale: 1, Seed: 12345,
			SequentialConsistency: true, BandwidthFactor: 2,
		}.Digest(),
		WallNS:      123456789,
		VirtualTime: 987654,
		StatsDigest: DigestStrings([]string{"a", "b"}),
		Metrics:     map[string]int64{"node.miss.cold": 17, "engine.events": 40},
		Spans:       &SpanSummary{Ring: TraceSummary{Seen: 100, Kept: 64, Dropped: 36}},
	}
}

// TestManifestRoundTrip is the write → parse → deep-equal contract:
// every field of a run manifest survives serialization exactly.
func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip diverged:\ngot  %+v\nwant %+v", got, m)
	}
}

// TestManifestLegacyTraceKey: manifests written while runs could carry
// an event-trace summary have a "trace" key; they still decode, and the
// key is ignored.
func TestManifestLegacyTraceKey(t *testing.T) {
	doc := `{"schema":` + strconv.Itoa(ManifestSchema) +
		`,"go_version":"go1.22","wall_ns":1,"virtual_time":2,"stats_digest":"d",` +
		`"trace":{"seen":100,"kept":64,"dropped":36,"sampled":0}}`
	m, err := DecodeManifest(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if m.VirtualTime != 2 || m.StatsDigest != "d" {
		t.Fatalf("decoded %+v", m)
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	m := sampleManifest()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("file round trip diverged:\ngot  %+v\nwant %+v", got, m)
	}
}

func TestManifestSchemaRejected(t *testing.T) {
	m := sampleManifest()
	m.Schema = ManifestSchema + 1
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeManifest(&buf); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestSweepManifestRoundTrip(t *testing.T) {
	sm := &SweepManifest{
		Schema:     ManifestSchema,
		GoVersion:  "go1.24.0",
		Tool:       "sweep",
		Args:       []string{"-apps", "matmul", "-procs", "4"},
		WallNS:     42,
		Rows:       2,
		RowsDigest: DigestStrings([]string{"row1", "row2"}),
		Runs:       []Manifest{*sampleManifest()},
	}
	var buf bytes.Buffer
	if err := sm.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSweepManifest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sm) {
		t.Fatalf("sweep round trip diverged:\ngot  %+v\nwant %+v", got, sm)
	}
}

// TestRunConfigDigest pins the content-address contract: equal configs
// share a digest, any field change (the seed included) moves it, and
// the digest is stable hex SHA-256.
func TestRunConfigDigest(t *testing.T) {
	base := sampleManifest().Config
	d := base.Digest()
	if len(d) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(d))
	}
	if base.Digest() != d {
		t.Fatal("digest not deterministic")
	}
	mutations := map[string]func(*RunConfig){
		"app":    func(c *RunConfig) { c.App = "lu" },
		"scheme": func(c *RunConfig) { c.Scheme = "I-det" },
		"degree": func(c *RunConfig) { c.Degree++ },
		"procs":  func(c *RunConfig) { c.Processors *= 2 },
		"slc":    func(c *RunConfig) { c.SLCBytes *= 2 },
		"ways":   func(c *RunConfig) { c.SLCWays++ },
		"scale":  func(c *RunConfig) { c.Scale++ },
		"seed":   func(c *RunConfig) { c.Seed++ },
		"sc":     func(c *RunConfig) { c.SequentialConsistency = false },
		"bw":     func(c *RunConfig) { c.BandwidthFactor++ },
	}
	for name, mutate := range mutations {
		c := base
		mutate(&c)
		if c.Digest() == d {
			t.Errorf("%s: digest unchanged after mutation", name)
		}
	}
}

func TestDigestStringsStable(t *testing.T) {
	a := DigestStrings([]string{"x", "y"})
	b := DigestStrings([]string{"x", "y"})
	c := DigestStrings([]string{"x", "z"})
	if a != b {
		t.Fatal("digest not deterministic")
	}
	if a == c {
		t.Fatal("digest insensitive to content")
	}
	if len(a) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(a))
	}
}

// TestGitSHA resolves this repository's own HEAD (the tests run inside
// a git checkout) and tolerates running outside one.
func TestGitSHA(t *testing.T) {
	sha := GitSHA(".")
	if sha == "" {
		t.Skip("not inside a git checkout")
	}
	if plausibleSHA(sha) == "" {
		t.Fatalf("GitSHA returned implausible %q", sha)
	}
}

func TestGitSHAOutsideRepo(t *testing.T) {
	if sha := GitSHA(t.TempDir()); sha != "" {
		// A tmpdir under a git checkout would legitimately resolve; only
		// fail on implausible output.
		if plausibleSHA(sha) == "" {
			t.Fatalf("implausible sha %q", sha)
		}
	}
}
