package machine

import (
	"fmt"

	"prefetchsim/internal/obs"
)

// NodeMetrics are one node's observability instruments (internal/obs)
// for what stats.Node does not count: write-buffer occupancy and the
// stall distributions. They are embedded by value in the node, so
// instrumentation adds no allocation. Counts that stats.Node already
// keeps are exported by binding the registry to the stats fields (see
// BindMetrics), so an exported count cannot drift from the paper's
// tables. Unlike stats.Node — whose printed form is pinned by the
// golden digests — this struct may grow freely.
type NodeMetrics struct {
	// SLWB tracks second-level write-buffer occupancy; its high-water
	// mark shows how close the run came to the 16-entry limit.
	SLWB obs.Gauge

	// FLWBWait records nonzero first-level write-buffer admission
	// stalls. Zero-stall admissions are not observed: both write paths
	// (the fused batch loop and doWrite) observe inside their existing
	// stall branch, so unstalled writes — the hot case — pay nothing.
	FLWBWait obs.Histogram
	// ReadMissStall records the processor stall of each demand read
	// serviced by a transaction (miss or delayed hit), in pclocks.
	ReadMissStall obs.Histogram
	// LockWait and BarrierWait record synchronization stalls, from
	// acquire/arrival issue to grant/release arrival.
	LockWait    obs.Histogram
	BarrierWait obs.Histogram
}

// slwbSet records an SLWB occupancy change on the node's gauge.
func (n *node) slwbSet() { n.met.SLWB.Set(int64(n.slwbUsed)) }

// BindMetrics registers the machine's instruments — the engine's
// dispatch counters, every node's NodeMetrics, and the per-node
// statistics behind the demand-miss taxonomy (§5.1, §5.3) and prefetch
// effectiveness (§3, §6) — under hierarchical names ("engine.events",
// "node3.miss.cold") in r. A late prefetch is a delayed hit (in flight
// when demanded: useful but late); a useless one was still tagged at
// the end of the run. It only stores pointers, so it may run before
// Run; snapshots must wait until Run returns (see internal/obs's
// ownership rule).
func (m *Machine) BindMetrics(r *obs.Registry) {
	r.BindCounter("engine.events", &m.engMet.Events)
	r.BindGauge("engine.queue", &m.engMet.Queue)
	for _, n := range m.nodes {
		p := fmt.Sprintf("node%d.", n.id)
		r.BindInt64(p+"miss.cold", &n.st.ColdMisses)
		r.BindInt64(p+"miss.coherence", &n.st.CoherenceMisses)
		r.BindInt64(p+"miss.replacement", &n.st.ReplacementMisses)
		r.BindInt64(p+"prefetch.issued", &n.st.PrefetchesIssued)
		r.BindInt64(p+"prefetch.useful", &n.st.PrefetchesUseful)
		r.BindInt64(p+"prefetch.late", &n.st.DelayedHits)
		r.BindInt64(p+"prefetch.useless", &n.st.PrefetchesUnconsumed)
		r.BindGauge(p+"slwb", &n.met.SLWB)
		r.BindHistogram(p+"flwb.wait", &n.met.FLWBWait)
		r.BindHistogram(p+"read.miss.stall", &n.met.ReadMissStall)
		r.BindHistogram(p+"lock.wait", &n.met.LockWait)
		r.BindHistogram(p+"barrier.wait", &n.met.BarrierWait)
	}
}
