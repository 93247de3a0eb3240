package prefetchsim_test

// Golden determinism digests. The serial/parallel equivalence tests
// compare two runs of the *same* binary, so they cannot catch a change
// that perturbs simulated event order consistently in both. These
// digests pin the exact experiment output of one small configuration
// across commits: any fast-path rewrite (event queue, block tables,
// protocol scheduling) that changes simulation results — even
// "harmlessly" — fails loudly here and must consciously re-bless the
// digest with an explanation.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"prefetchsim"
)

// Digests of the matmul/4-processor/seed-12345 Figure 6 and Table 2
// rows, computed at the commit that introduced this test. Re-bless only
// when a change is *supposed* to alter simulation results.
const (
	goldenFigure6Digest = "3e762c98b9ba9100cbb0aa75af30ee3db49b04d6ae0c3b4793c26bfca89fc050"
	goldenTable2Digest  = "5b975542bde90ecc50a748327fdab86567064bcdebfb0825d197bce919659687"

	// Digests of two single-run configurations off the Figure 6 / Table 2
	// path, pinned before the batched-streaming rework (PR 3) so the
	// rework is proven byte-identical on them too: a sequential-
	// consistency run (blocking writes exercise the write-stall path) and
	// a D-detection stride config (the miss-address detector's stream
	// table). Both digest every per-node counter of the run.
	goldenSCDigest   = "6c86aca78c41d816b2c8bc3ac87071a62477ebb4c660343516d16d5be52931bb"
	goldenDDetDigest = "b6eeb87e27a45de384d30f3ec06c6f2aa86116e62d25fd3b5f68c5dea0d83676"
)

// Digests of one listchase/4-processor/seed-12345 run per zoo scheme
// under the finite SLC (the configuration where correlation prefetching
// actually fires: the working set exceeds the cache, so every round
// misses again). Pinned at the commit that introduced the zoo.
var goldenZooDigests = map[prefetchsim.Scheme]string{
	prefetchsim.Markov:     "731065ce134de50503c4f4af43cc86038e91f580e092b181ecf2298b7700ea99",
	prefetchsim.Perceptron: "f7c14e43bcdcf23ea14bf0f502a35ba8201d420e0376bed890e89cdb7de0208a",
	prefetchsim.BestOff:    "ad20c3416b9931fd4c5555c938c3a14e9a49d494a5d468d104d0a7cee07249a3",
}

func goldenOpts() prefetchsim.ExpOptions {
	return prefetchsim.ExpOptions{Procs: 4, Apps: []string{"matmul"}, Seed: 12345, Workers: 1}
}

// f formats a float with full round-trip precision so the digest is
// sensitive to the last bit of every statistic.
func f(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func digestLines(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		fmt.Fprintln(h, l)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGoldenFigure6Digest(t *testing.T) {
	rows, err := prefetchsim.Figure6(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range rows {
		lines = append(lines, strings.Join([]string{
			r.App, string(r.Scheme),
			f(r.RelMisses), f(r.Efficiency), f(r.RelStall), f(r.RelTraffic),
		}, ","))
	}
	if got := digestLines(lines); got != goldenFigure6Digest {
		t.Errorf("Figure 6 digest changed: got %s, want %s\nrows:\n%s",
			got, goldenFigure6Digest, strings.Join(lines, "\n"))
	}
}

// digestStats digests every field of a run's statistics — all per-node
// counters plus the machine-wide traffic — so any divergence anywhere
// in the simulation shows up.
func digestStats(st *prefetchsim.Stats) string {
	var lines []string
	for i := range st.Nodes {
		lines = append(lines, fmt.Sprintf("node%d %+v", i, st.Nodes[i]))
	}
	lines = append(lines, fmt.Sprintf("machine msgs=%d flits=%d flithops=%d exec=%d",
		st.NetMessages, st.NetFlits, st.NetFlitHops, st.ExecTime))
	return digestLines(lines)
}

func TestGoldenSequentialConsistencyDigest(t *testing.T) {
	res, err := prefetchsim.Run(prefetchsim.Config{
		App: "matmul", Scheme: prefetchsim.Seq, Processors: 4, Seed: 12345,
		SequentialConsistency: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := digestStats(res.Stats); got != goldenSCDigest {
		t.Errorf("sequential-consistency digest changed: got %s, want %s\nstats:\n%s",
			got, goldenSCDigest, res.Stats)
	}
}

func TestGoldenDDetectionDigest(t *testing.T) {
	res, err := prefetchsim.Run(prefetchsim.Config{
		App: "matmul", Scheme: prefetchsim.DDet, Processors: 4, Seed: 12345,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := digestStats(res.Stats); got != goldenDDetDigest {
		t.Errorf("D-detection digest changed: got %s, want %s\nstats:\n%s",
			got, goldenDDetDigest, res.Stats)
	}
}

func TestGoldenZooDigests(t *testing.T) {
	for _, s := range prefetchsim.ZooSchemes() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			want, ok := goldenZooDigests[s]
			if !ok {
				t.Fatalf("no golden digest pinned for zoo scheme %s", s)
			}
			res, err := prefetchsim.Run(prefetchsim.Config{
				App: "listchase", Scheme: s, Processors: 4, Seed: 12345,
				SLCBytes: prefetchsim.FiniteSLCBytes,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := digestStats(res.Stats); got != want {
				t.Errorf("%s digest changed: got %s, want %s\nstats:\n%s",
					s, got, want, res.Stats)
			}
		})
	}
}

func TestGoldenTable2Digest(t *testing.T) {
	rows, err := prefetchsim.Table2(goldenOpts())
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, r := range rows {
		parts := []string{r.App, f(r.ReplacementFrac), f(r.InStrideFrac), f(r.AvgSeqLen)}
		for _, s := range r.Dominant {
			parts = append(parts, fmt.Sprintf("%d:%s", s.Stride, f(s.Share)))
		}
		lines = append(lines, strings.Join(parts, ","))
	}
	if got := digestLines(lines); got != goldenTable2Digest {
		t.Errorf("Table 2 digest changed: got %s, want %s\nrows:\n%s",
			got, goldenTable2Digest, strings.Join(lines, "\n"))
	}
}

// Digests of the full metrics snapshot ("name value" lines in snapshot
// order) of the matmul/4-processor/seed-12345 Seq run, with the paper's
// infinite SLC and with a 16 KB SLC (where the replacement, useless and
// late prefetch counts are all nonzero). They pin every exported metric
// name and value, so binding the registry to other storage must leave
// both byte-identical.
var goldenMetricsDigests = map[int]string{
	0:     "81a8cf073d9712b108a0259f362fc2177f21bca6f6313a0bfcc794e824da7d26",
	16384: "49e841bebe539d3a0596b1d1250da81c4534c723b19cf60e66ad0d17aa97d380",
}

func TestGoldenMetricsSnapshotDigest(t *testing.T) {
	for _, slc := range []int{0, 16384} {
		res, err := prefetchsim.Run(prefetchsim.Config{
			App: "matmul", Scheme: prefetchsim.Seq, Processors: 4, Seed: 12345,
			SLCBytes: slc, CollectMetrics: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		lines := make([]string, len(res.Metrics))
		for i, s := range res.Metrics {
			lines[i] = fmt.Sprintf("%s %d", s.Name, s.Value)
		}
		if got, want := prefetchsim.DigestRows(lines), goldenMetricsDigests[slc]; got != want {
			t.Errorf("SLC %d: metrics digest changed: got %s, want %s\nsnapshot:\n%s",
				slc, got, want, strings.Join(lines, "\n"))
		}
	}
}
