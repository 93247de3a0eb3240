package machine

import (
	"fmt"

	"prefetchsim/internal/mem"
	"prefetchsim/internal/network"
	"prefetchsim/internal/obs"
	"prefetchsim/internal/sim"
)

// Synchronization (paper §4): a queue-based lock mechanism at memory
// similar to DASH's, with a single lock variable per memory block, and
// barriers built from arrive/release messages collected at node 0's
// memory. Under release consistency, releases and barrier arrivals wait
// until the processor's outstanding writes have been performed.

// lockState is the memory-side queue of one lock variable.
type lockState struct {
	held  bool
	queue []lockWaiter
}

type lockWaiter struct {
	n     *node
	issue sim.Time
}

func (m *Machine) lock(addr uint64) *lockState {
	l, ok := m.locks[addr]
	if !ok {
		l = &lockState{}
		m.locks[addr] = l
	}
	return l
}

// doAcquire sends an acquire request to the lock's home memory and
// blocks the processor until the grant returns.
func (m *Machine) doAcquire(n *node, addr uint64) {
	issue := n.time
	home := m.home(mem.BlockOf(mem.Addr(addr)))
	arrive := m.mesh.Send(network.ReqPlane, n.id, home, network.CtrlFlits, issue+1)
	c := m.newEv(evLockReq)
	c.n, c.home, c.addr, c.issue = n, home, addr, issue
	m.eng.Schedule(arrive, c)
}

// lockRequest runs an acquire request at the lock's home: a free lock
// is granted at once, a held one queues the requester.
func (m *Machine) lockRequest(c *ev, t sim.Time) {
	done := m.mems[c.home].Control(t)
	l := m.lock(c.addr)
	if !l.held {
		l.held = true
		m.grantLock(c.home, c.n, c.addr, c.issue, done)
		return
	}
	l.queue = append(l.queue, lockWaiter{n: c.n, issue: c.issue})
}

// grantLock sends the grant back to the requester.
func (m *Machine) grantLock(home int, n *node, addr uint64, issue, t sim.Time) {
	arrive := m.mesh.Send(network.ReplyPlane, home, n.id, network.CtrlFlits, t)
	c := m.newEv(evLockGrant)
	c.n, c.addr, c.issue = n, addr, issue
	m.eng.Schedule(arrive, c)
}

// syncGranted resumes a processor when its lock grant or barrier
// release arrives at t, charging the wait since its issue time.
func (m *Machine) syncGranted(c *ev, t sim.Time) {
	n, wait := c.n, t-c.issue
	n.st.SyncStall += wait
	cls := obs.SpanAcquire
	if c.kind == evLockGrant {
		n.met.LockWait.Observe(int64(wait))
	} else {
		n.met.BarrierWait.Observe(int64(wait))
		cls = obs.SpanBarrier
	}
	if m.sp != nil {
		m.stallSpan(cls, n, c.addr, c.issue, t, wait)
	}
	n.time = t + 1
	m.eng.Schedule(n.time, n)
}

// doRelease implements a release under release consistency: the
// processor first waits for its outstanding writes to be performed,
// then sends the release message and continues without waiting for it
// to reach memory. It returns true if the processor may continue
// immediately.
func (m *Machine) doRelease(n *node, addr uint64) bool {
	if n.outWrites > 0 {
		issue := n.time
		if n.drainWait != nil {
			panic(fmt.Sprintf("machine: node %d has overlapping drain waits", n.id))
		}
		n.drainWait = func(t sim.Time) {
			n.st.SyncStall += t - issue
			if m.sp != nil {
				m.stallSpan(obs.SpanRelease, n, addr, issue, t, t-issue)
			}
			n.time = t
			m.sendRelease(n, addr)
			n.time++
			m.eng.Schedule(n.time, n)
		}
		return false
	}
	m.sendRelease(n, addr)
	n.time++
	return true
}

// sendRelease fires the release message.
func (m *Machine) sendRelease(n *node, addr uint64) {
	home := m.home(mem.BlockOf(mem.Addr(addr)))
	arrive := m.mesh.Send(network.ReqPlane, n.id, home, network.CtrlFlits, n.time)
	c := m.newEv(evLockRelease)
	c.n, c.home, c.addr = n, home, addr
	m.eng.Schedule(arrive, c)
}

// lockReleased runs a release at the lock's home, handing the lock to
// the next queued waiter, if any.
func (m *Machine) lockReleased(c *ev, t sim.Time) {
	done := m.mems[c.home].Control(t)
	l := m.lock(c.addr)
	if !l.held {
		panic(fmt.Sprintf("machine: node %d released lock %#x that is not held", c.n.id, c.addr))
	}
	if len(l.queue) == 0 {
		l.held = false
		return
	}
	w := l.queue[0]
	l.queue = l.queue[1:]
	m.grantLock(c.home, w.n, c.addr, w.issue, done)
}

// barrier collects arrivals at node 0's memory and releases everyone
// when the last processor arrives.
type barrier struct {
	episode uint64
	arrived int
	waiters []lockWaiter
}

// barrierHome is the node whose memory collects barrier arrivals.
const barrierHome = 0

// doBarrier sends the barrier arrival (after draining writes, as a
// release point under release consistency) and blocks until released.
func (m *Machine) doBarrier(n *node, episode uint64) {
	issue := n.time
	if n.outWrites > 0 {
		if n.drainWait != nil {
			panic(fmt.Sprintf("machine: node %d has overlapping drain waits", n.id))
		}
		n.drainWait = func(t sim.Time) {
			n.time = t
			m.sendBarrierArrive(n, episode, issue)
		}
		return
	}
	m.sendBarrierArrive(n, episode, issue)
}

func (m *Machine) sendBarrierArrive(n *node, episode uint64, issue sim.Time) {
	if episode != m.bar.episode {
		panic(fmt.Sprintf("machine: node %d arrived at barrier %d, machine is at %d (malformed program)",
			n.id, episode, m.bar.episode))
	}
	arrive := m.mesh.Send(network.ReqPlane, n.id, barrierHome, network.CtrlFlits, n.time+1)
	c := m.newEv(evBarrierArrive)
	c.n, c.addr, c.issue = n, episode, issue
	m.eng.Schedule(arrive, c)
}

// barrierArrived counts one arrival at the barrier's home; the last
// one sends every waiter its release, in arrival order.
func (m *Machine) barrierArrived(c *ev, t sim.Time) {
	done := m.mems[barrierHome].Control(t)
	m.bar.arrived++
	m.bar.waiters = append(m.bar.waiters, lockWaiter{n: c.n, issue: c.issue})
	if m.bar.arrived < m.cfg.Processors {
		return
	}
	waiters := m.bar.waiters
	m.bar.arrived = 0
	m.bar.waiters = nil
	m.bar.episode++
	for _, w := range waiters {
		grantArrive := m.mesh.Send(network.ReplyPlane, barrierHome, w.n.id, network.CtrlFlits, done)
		g := m.newEv(evBarrierGrant)
		g.n, g.addr, g.issue = w.n, c.addr, w.issue
		m.eng.Schedule(grantArrive, g)
	}
}
