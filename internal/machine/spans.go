package machine

import (
	"prefetchsim/internal/mem"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/sim"
)

// Span completion helpers (internal/obs span layer). Every function
// here is called behind an `m.sp != nil` check at the call site, so
// the disabled configuration pays only that nil test — and only on
// paths that already left the fused hot loop.

// completeReadSpan finalizes a read transaction's span at the fill:
// the final class is resolved (a prefetch a demand read caught in
// flight becomes SpanPrefetchLate), the demand wait is computed with
// exactly resumeDemand's arithmetic, and a tagged fill is remembered
// for the fill-to-first-use idle measurement.
func (m *Machine) completeReadSpan(n *node, tx *pendingTx, arrive, done sim.Time, tag bool, b mem.Block) {
	s := &tx.span
	s.Arrive = int64(arrive)
	s.Done = int64(done)
	if tx.prefetch {
		if tx.demand {
			s.Class = obs.SpanPrefetchLate
		} else {
			s.Class = obs.SpanPrefetch
		}
	}
	if tx.demand {
		s.Demand = int64(tx.issue)
		s.Wait = int64(done + FLCFillForward - tx.issue - FLCHit)
	} else {
		s.Demand = -1
	}
	m.sp.Complete(*s)
	if tag {
		n.pfFill.Put(b, done)
	}
}

// completeTxSpan finalizes an ownership transaction's span at the
// grant. A demand read merged onto the transaction already stamped its
// miss class; otherwise the class is SpanWrite from startWriteTx.
func (m *Machine) completeTxSpan(tx *pendingTx, arrive, done sim.Time) {
	s := &tx.span
	s.Arrive = int64(arrive)
	s.Done = int64(done)
	if tx.demand {
		s.Demand = int64(tx.issue)
		s.Wait = int64(done + FLCFillForward - tx.issue - FLCHit)
	} else {
		s.Demand = -1
	}
	m.sp.Complete(*s)
}

// stallSpan records a local episode (SLC hit, write-buffer admission,
// SC write completion, acquire/barrier/release, an applied
// invalidation) that is not a network transaction: only
// Issue/Done/Wait are meaningful.
func (m *Machine) stallSpan(cls obs.SpanClass, n *node, block uint64, issue, done, wait sim.Time) {
	m.sp.Complete(obs.Span{
		Class: cls, Node: int32(n.id), Block: block,
		Issue: int64(issue), Done: int64(done), Wait: int64(wait), Demand: -1,
	})
}

// consumePrefetchSpan observes the fill-to-first-use idle time of a
// tagged prefetched block consumed by a demand reference at time at.
func (m *Machine) consumePrefetchSpan(n *node, b mem.Block, at sim.Time) {
	t0, ok := n.pfFill.Get(b)
	if !ok {
		return
	}
	n.pfFill.Delete(b)
	idle := int64(at - t0)
	if idle < 0 {
		idle = 0
	}
	m.sp.ObserveIdle(idle)
}
