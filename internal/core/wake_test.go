package core

import (
	"testing"

	"multicluster/internal/isa"
)

// This file holds the reference readiness predicate the wake bounds are
// checked against: the checks the issue scan applied to every queue entry
// on every cycle before it kept wake bounds. checkWakeBounds runs after
// every cycle of runInvariants, so machineInvariants, the random-stream
// tests, the ring tests and FuzzCore all police the bounds.

// srcsReady reports whether all of u's local register sources are
// readable at t. A producer that has left the window is retired, and a
// retired value is architectural: readyIn never exceeds doneCycle.
func (p *Processor) srcsReady(u *uop, t int64) bool {
	for i := int8(0); i < u.nSrcs; i++ {
		if h := u.srcs[i]; h >= p.head && p.at(h).readyIn[u.cluster] > t {
			return false
		}
	}
	return true
}

// interCopyReady checks the dependence between the two copies of a
// dual-distributed instruction (§2.1): a master waits one cycle past its
// operand-forwarding slave's issue; a result-receiving slave is released
// max(1, L-1) cycles after the master issues (two cycles before the result
// is due).
func (d *dynInst) interCopyReady(u *uop, t int64) bool {
	if u.master {
		if u.fwdOperands > 0 {
			s := &d.slave
			if !s.issued || s.issueCycle+1 > t {
				return false
			}
		}
		return true
	}
	// Slave.
	if u.recvsResult && !u.opFwdSlave {
		m := &d.master
		if !m.issued {
			return false
		}
		// Released two cycles before the master's result is due (so the
		// forwarded value meets the slave in the buffer), but never in the
		// master's own issue cycle. Using the actual result cycle matters
		// for loads, whose completion depends on the data cache.
		rel := d.resultCycle - 1
		if min := m.issueCycle + 1; rel < min {
			rel = min
		}
		return rel <= t
	}
	// Operand-forwarding slave: gated only by its sources (and resources).
	return true
}

// referenceReady is the readiness predicate for copy u of d at cycle t,
// short of the divider: inserted before t, sources readable, the
// inter-copy dependence met, and a forwarding store issued at least a
// cycle ago.
func (p *Processor) referenceReady(d *dynInst, u *uop, t int64) bool {
	if u.distributedAt >= t || !p.srcsReady(u, t) || !d.interCopyReady(u, t) {
		return false
	}
	if h := u.memDep; h >= p.head {
		if st := &p.at(h).master; !st.issued || st.issueCycle+1 > t {
			return false
		}
	}
	return true
}

// checkWakeBounds asserts, between cycles, that readyAt, which is also the
// issue scan's readiness test, agrees with the reference predicate; that
// every queue entry whose wake bound lies in the future cannot issue now
// (the reference predicate fails, or the divider a divide master needs is
// busy); that the entry and its uop agree on the bound; and that the
// cluster minimum lets the scan reach every entry by the cycle it is due.
func checkWakeBounds(t testing.TB, p *Processor) {
	t.Helper()
	now := p.cycle
	for c := 0; c < p.cfg.Clusters; c++ {
		for _, e := range p.queue[c] {
			d := p.at(e.seq)
			u := d.copyIn(c)
			ready := p.referenceReady(d, u, now)
			if got := p.readyAt(d, u, now) <= now; got != ready {
				t.Fatalf("cycle %d: seq %d (%v) in cluster %d: readyAt says ready=%v, the reference %v", now, e.seq, d.in.Op, c, got, ready)
			}
			divBusy := u.master && u.slotClass == isa.ClassFPDiv && p.freeDivider(c, now) < 0
			if e.wake > now && ready && !divBusy {
				t.Fatalf("cycle %d: seq %d (%v) in cluster %d is ready but its wake bound is %d", now, e.seq, d.in.Op, c, e.wake)
			}
			if u.wake != e.wake {
				t.Fatalf("cycle %d: seq %d in cluster %d: queue wake %d, uop wake %d", now, e.seq, c, e.wake, u.wake)
			}
			if max(e.wake, now) < p.minWake[c] {
				t.Fatalf("cycle %d: seq %d in cluster %d is due at %d, before the cluster minimum %d", now, e.seq, c, max(e.wake, now), p.minWake[c])
			}
		}
	}
}
