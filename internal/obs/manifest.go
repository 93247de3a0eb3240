package obs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// ManifestSchema is the current manifest document version. Readers
// reject documents whose schema they do not know, so the format can
// evolve without silently misparsing old records.
const ManifestSchema = 1

// RunConfig is the flat, JSON-stable view of one simulation's
// configuration: every scalar knob that shapes the result, and nothing
// that cannot round-trip (no programs, no callbacks).
type RunConfig struct {
	App                   string `json:"app"`
	Scheme                string `json:"scheme"`
	Degree                int    `json:"degree"`
	Processors            int    `json:"processors"`
	SLCBytes              int    `json:"slc_bytes"`
	SLCWays               int    `json:"slc_ways"`
	Scale                 int    `json:"scale"`
	Seed                  uint64 `json:"seed"`
	SequentialConsistency bool   `json:"sequential_consistency"`
	BandwidthFactor       int    `json:"bandwidth_factor"`
}

// Digest is the content address of the configuration: the SHA-256 of
// its canonical JSON encoding (fixed field order, no indentation).
// Every knob that shapes a run's result — including the seed — is part
// of RunConfig, so two runs with equal digests produce byte-identical
// statistics, which is what lets a result cache serve the second one
// without simulating.
func (c RunConfig) Digest() string {
	buf, err := json.Marshal(c)
	if err != nil {
		// RunConfig is a flat struct of scalars; Marshal cannot fail.
		panic("obs: marshal RunConfig: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// Manifest is the provenance record of one simulation run: enough to
// reproduce it (config, seed, toolchain, source revision) and enough
// to check it (the stats digest and the metric totals). One run, one
// JSON document.
type Manifest struct {
	Schema        int       `json:"schema"`
	GoVersion     string    `json:"go_version"`
	GitSHA        string    `json:"git_sha,omitempty"`
	CreatedUnixNS int64     `json:"created_unix_ns,omitempty"`
	Config        RunConfig `json:"config"`
	// ConfigDigest is Config.Digest(): the content address a result
	// cache keys this run under.
	ConfigDigest string `json:"config_digest,omitempty"`
	// WallNS is the run's host wall-clock duration.
	WallNS int64 `json:"wall_ns"`
	// VirtualTime is the simulated execution time in pclocks.
	VirtualTime int64 `json:"virtual_time"`
	// StatsDigest is the canonical SHA-256 digest of every statistic
	// of the run — the golden-test currency, now a run artifact.
	StatsDigest string `json:"stats_digest"`
	// Metrics holds the machine-wide metric totals (Snapshot.Totals).
	Metrics map[string]int64 `json:"metrics,omitempty"`
	// Spans summarizes the transaction-span recording, when one was
	// collected (ring counters + exact per-class aggregates).
	Spans *SpanSummary `json:"spans,omitempty"`
	// Timeline summarizes the windowed time-series, when one was
	// collected.
	Timeline *TimelineSummary `json:"timeline,omitempty"`
}

// SweepManifest aggregates one experiment sweep: the invocation, the
// digest of the rows it produced, and (when the sweep collects them)
// the per-run manifests.
type SweepManifest struct {
	Schema        int    `json:"schema"`
	GoVersion     string `json:"go_version"`
	GitSHA        string `json:"git_sha,omitempty"`
	CreatedUnixNS int64  `json:"created_unix_ns,omitempty"`
	// Tool and Args record the generating command.
	Tool string   `json:"tool"`
	Args []string `json:"args,omitempty"`
	// WallNS is the whole sweep's host wall-clock duration.
	WallNS int64 `json:"wall_ns"`
	// Rows counts emitted result rows; RowsDigest is their canonical
	// SHA-256 digest (DigestStrings over the rendered rows).
	Rows       int    `json:"rows"`
	RowsDigest string `json:"rows_digest"`
	// Runs holds the per-run manifests, in sweep submission order.
	Runs []Manifest `json:"runs,omitempty"`
}

// DigestStrings is the canonical line digest used for stats digests
// and sweep row digests: SHA-256 over the lines, each terminated with
// a newline.
func DigestStrings(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Encode writes m as indented JSON followed by a newline.
func (m *Manifest) Encode(w io.Writer) error { return encodeJSON(w, m) }

// Encode writes m as indented JSON followed by a newline.
func (m *SweepManifest) Encode(w io.Writer) error { return encodeJSON(w, m) }

func encodeJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: encode manifest: %w", err)
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// DecodeManifest parses a run manifest, rejecting unknown schemas.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := decodeJSON(r, &m); err != nil {
		return nil, err
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("obs: manifest schema %d, want %d", m.Schema, ManifestSchema)
	}
	return &m, nil
}

// DecodeSweepManifest parses a sweep manifest, rejecting unknown
// schemas.
func DecodeSweepManifest(r io.Reader) (*SweepManifest, error) {
	var m SweepManifest
	if err := decodeJSON(r, &m); err != nil {
		return nil, err
	}
	if m.Schema != ManifestSchema {
		return nil, fmt.Errorf("obs: sweep manifest schema %d, want %d", m.Schema, ManifestSchema)
	}
	return &m, nil
}

func decodeJSON(r io.Reader, v any) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("obs: read manifest: %w", err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("obs: parse manifest: %w", err)
	}
	return nil
}

// WriteFile writes m to path.
func (m *Manifest) WriteFile(path string) error { return writeFile(path, m.Encode) }

// WriteFile writes m to path.
func (m *SweepManifest) WriteFile(path string) error { return writeFile(path, m.Encode) }

func writeFile(path string, encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadManifestFile loads a run manifest from path.
func ReadManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeManifest(f)
}

// repoSHA memoizes GitSHA(".") — the revision is immutable for the
// life of the process, and both per-run manifests and serving-path
// build info want it without repeating the .git walk.
var repoSHA struct {
	sync.Once
	v string
}

// RepoSHA returns the process-wide memoized GitSHA of the current
// working directory's repository ("" outside a checkout).
func RepoSHA() string {
	repoSHA.Do(func() { repoSHA.v = GitSHA(".") })
	return repoSHA.v
}

// GitSHA best-effort resolves the current commit of the repository
// containing dir by reading .git directly (no subprocess): HEAD, the
// ref file it points at, or packed-refs. It returns "" when dir is not
// inside a git checkout or the layout is unrecognized.
func GitSHA(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return ""
	}
	for d := abs; ; d = filepath.Dir(d) {
		if sha := gitSHAAt(filepath.Join(d, ".git")); sha != "" {
			return sha
		}
		if filepath.Dir(d) == d {
			return ""
		}
	}
}

func gitSHAAt(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	if !strings.HasPrefix(h, "ref: ") {
		return plausibleSHA(h)
	}
	ref := strings.TrimSpace(strings.TrimPrefix(h, "ref: "))
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return plausibleSHA(strings.TrimSpace(string(b)))
	}
	// Ref may only exist packed.
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] == ref {
			return plausibleSHA(fields[0])
		}
	}
	return ""
}

// plausibleSHA accepts 40- or 64-hex-digit object names.
func plausibleSHA(s string) string {
	if len(s) != 40 && len(s) != 64 {
		return ""
	}
	for _, c := range s {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return ""
		}
	}
	return s
}
