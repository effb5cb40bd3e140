package core

import (
	"slices"

	"multicluster/internal/isa"
)

// queueEntry is one dispatch-queue slot: the seq of the instruction whose
// copy waits in it, and a copy of that copy's wake bound (uop.wake), kept
// here so the issue scan can pass over a copy that is not due without
// reading the ring.
type queueEntry struct {
	seq, wake int64
}

// issueCluster runs one cluster's instruction-scheduling logic for cycle t:
// a greedy pass over the dispatch queue in age order, issuing every ready
// copy that fits within the Table 1 limits and resource constraints. A
// copy whose wake bound lies past t cannot be ready, so the pass skips it
// without touching the ring, and skips the whole queue when no copy is
// due.
func (p *Processor) issueCluster(c int, t int64) bool {
	if p.minWake[c] > t {
		return false
	}
	rules := p.cfg.Rules
	var total, fpTotal, memTotal int
	var classCount [isa.NumClasses]int

	issuedAny := false
	ring, mask := p.ring, p.ringMask // held in registers across the loop's stores
	q := p.queue[c]
	n := 0 // entries kept so far, compacted to the front of q
	minWake := never
	for i, e := range q {
		if e.wake <= t {
			d := &ring[e.seq&mask]
			u := d.copyIn(c)
			next, bufferBlocked := p.canIssue(d, u, c, t, rules, &classCount, fpTotal, memTotal)
			if next <= t {
				p.doIssue(d, u, c, t)
				issuedAny = true
				total++
				classCount[u.slotClass]++
				if u.slotClass.IsFP() {
					fpTotal++
				}
				if u.master && u.slotClass.IsMem() {
					memTotal++
				}
				if total == rules.All {
					// The cycle's issue slots are spent; the rest of the
					// queue is kept as is (squashed copies cannot appear
					// here — replay filters the queues when it squashes)
					// and may be due next cycle.
					n += copy(q[n:], q[i+1:])
					minWake = t + 1
					break
				}
				continue
			}
			// Record when the machine's oldest unissued instruction is
			// held up purely by transfer-buffer space: the §2.1 deadlock
			// precondition the replay exception exists for.
			if bufferBlocked && e.seq == p.oldestUnissuedSeq {
				p.bufBlockedNow = true
			}
			u.wake, e.wake = next, next
		}
		minWake = min(minWake, e.wake)
		q[n] = e
		n++
	}
	p.queue[c] = q[:n]
	p.minWake[c] = minWake
	return issuedAny
}

// canIssue checks readiness and every per-cycle resource constraint for
// copy u of d at cycle t without side effects. It returns t when the copy
// can issue. Otherwise it returns the copy's next wake bound: the
// readiness bound (see readyAt), the divider's release for a divide
// blocked on it, or t+1 when only an issue slot or transfer-buffer space
// was missing. bufferBlocked reports that the only thing missing was
// transfer-buffer space.
func (p *Processor) canIssue(d *dynInst, u *uop, c int, t int64, rules isa.IssueRules, classCount *[isa.NumClasses]int, fpTotal, memTotal int) (next int64, bufferBlocked bool) {
	if w := p.readyAt(d, u, t); w > t {
		return w, false
	}
	if classCount[u.slotClass] >= rules.ClassLimit(u.slotClass) ||
		u.slotClass.IsFP() && fpTotal >= rules.FPAll ||
		u.master && u.slotClass.IsMem() && memTotal >= rules.Mem {
		return t + 1, false
	}
	// Structural: the floating-point divider is not pipelined. A unit's
	// busy-until cycle only ever moves later, so none is free before the
	// earliest of them.
	if u.master && u.slotClass == isa.ClassFPDiv && p.freeDivider(c, t) < 0 {
		return slices.Min(p.divFree[c]), false
	}
	// Transfer-buffer space: the last gate; a copy blocked here is ready in
	// every other respect.
	if u.master && u.sendsResult && !p.bufferFits(1-c, 1, false) ||
		u.opFwdSlave && !p.bufferFits(1-c, d.master.fwdOperands, true) {
		return t + 1, true
	}
	return t, false
}

// bufferFits checks transfer-buffer capacity in the given cluster for n new
// entries of the given kind (operand or result). With UnifiedBuffer the
// kinds share one pool.
func (p *Processor) bufferFits(c, n int, operand bool) bool {
	if p.cfg.UnifiedBuffer {
		return p.opBufUsed[c]+p.resBufUsed[c]+n <= p.cfg.OperandBuffer+p.cfg.ResultBuffer
	}
	if operand {
		return p.opBufUsed[c]+n <= p.cfg.OperandBuffer
	}
	return p.resBufUsed[c]+n <= p.cfg.ResultBuffer
}

// freeDivider returns the index of an idle divider unit, or -1.
func (p *Processor) freeDivider(c int, t int64) int {
	for i, busyUntil := range p.divFree[c] {
		if busyUntil <= t {
			return i
		}
	}
	return -1
}

// doIssue commits the issue of copy u of d at cycle t and propagates its
// timing effects.
func (p *Processor) doIssue(d *dynInst, u *uop, c int, t int64) {
	u.issued = true
	u.issueCycle = t
	d.issuedCopies++
	p.stats.IssuedOps++
	p.stats.Cluster[c].IssuedUops++

	if u.master {
		if d.seq < p.maxIssuedSeq {
			p.stats.DisorderSum += p.maxIssuedSeq - d.seq
		} else {
			p.maxIssuedSeq = d.seq
		}

		// Compute the result timing.
		switch d.in.Op.Class() {
		case isa.ClassLoad:
			extra := p.dcache.Access(d.addr, t)
			d.resultCycle = t + int64(d.latency+p.cfg.LoadDelaySlots+extra)
		case isa.ClassStore:
			p.dcache.Access(d.addr, t)
			d.resultCycle = t + 1 // buffered; retires independent of the fill
		case isa.ClassFPDiv:
			i := p.freeDivider(c, t)
			p.divFree[c][i] = t + int64(d.latency)
			d.resultCycle = t + int64(d.latency)
		default:
			d.resultCycle = t + int64(d.latency)
		}

		if d.destReg != isa.RegNone && d.renamed[c] {
			d.readyIn[c] = d.resultCycle
		}
		if u.fwdOperands > 0 {
			// The master has read its slave's forwarded operands; the
			// entries are reusable the next cycle.
			p.pushBufEvent(t+1, d.seq, true)
		}
		if u.sendsResult {
			s := &d.slave
			p.resBufUsed[s.cluster]++
			d.resHeld = true
			if s.opFwdSlave {
				// Scenario 5: the suspended slave wakes when the result
				// reaches its cluster's buffer and writes its copy.
				d.readyIn[s.cluster] = d.resultCycle + 1
				p.pushBufEvent(d.resultCycle+1, d.seq, false)
			}
		}
	} else {
		if u.opFwdSlave {
			p.opBufUsed[1-c] += d.master.fwdOperands
			d.opHeld = true
		}
		if u.recvsResult && !u.opFwdSlave {
			// Scenario 3/4 slave: reads the forwarded result out of the
			// buffer and writes the physical register bound in its
			// cluster.
			d.readyIn[c] = t + 1
			p.pushBufEvent(t+1, d.seq, false)
		}
	}

	if d.allIssued() {
		d.doneCycle = p.completionCycle(d)
	}
}

// completionCycle computes when every copy's work finishes, once all copies
// have issued.
func (p *Processor) completionCycle(d *dynInst) int64 {
	done := d.resultCycle
	if d.dual {
		s := &d.slave
		var sDone int64
		switch {
		case s.opFwdSlave && s.recvsResult:
			sDone = d.resultCycle + 1 // suspended slave wakes and writes
		default:
			sDone = s.issueCycle + 1
		}
		if sDone > done {
			done = sDone
		}
	}
	return done
}
