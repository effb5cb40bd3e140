package core

import "multicluster/internal/isa"

// issueCluster runs one cluster's instruction-scheduling logic for cycle t:
// a greedy pass over the dispatch queue in age order, issuing every ready
// copy that fits within the Table 1 limits and resource constraints.
func (p *Processor) issueCluster(c int, t int64) bool {
	rules := p.cfg.Rules
	var total, fpTotal, memTotal int
	var classCount [isa.NumClasses]int

	issuedAny := false
	ring, mask := p.ring, p.ringMask // held in registers across the loop's stores
	kept := p.queue[c][:0]
	for i, h := range p.queue[c] {
		if total >= rules.All {
			// The cycle's issue slots are spent; the rest of the queue is
			// kept as is (squashed copies cannot appear here — replay
			// filters the queues when it squashes).
			kept = append(kept, p.queue[c][i:]...)
			break
		}
		d := &ring[h&mask]
		u := d.copyIn(c)
		ok, bufferBlocked := p.canIssue(d, u, c, t, rules, &classCount, fpTotal, memTotal)
		if !ok {
			// Record when the machine's oldest unissued instruction is
			// held up purely by transfer-buffer space: the §2.1 deadlock
			// precondition the replay exception exists for.
			if bufferBlocked && h == p.oldestUnissuedSeq {
				p.bufBlockedNow = true
			}
			kept = append(kept, h)
			continue
		}
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
	}
	p.queue[c] = kept
	return issuedAny
}

// canIssue checks readiness and every per-cycle resource constraint for
// copy u of d without side effects. bufferBlocked reports that the only
// thing missing was transfer-buffer space.
func (p *Processor) canIssue(d *dynInst, u *uop, c int, t int64, rules isa.IssueRules, classCount *[isa.NumClasses]int, fpTotal, memTotal int) (ok, bufferBlocked bool) {
	if u.distributedAt >= t {
		return false, false // issueable the cycle after insertion at the earliest
	}
	if classCount[u.slotClass] >= rules.ClassLimit(u.slotClass) {
		return false, false
	}
	if u.slotClass.IsFP() && fpTotal >= rules.FPAll {
		return false, false
	}
	if u.master && u.slotClass.IsMem() && memTotal >= rules.Mem {
		return false, false
	}
	if !p.srcsReady(u, t) || !d.interCopyReady(u, t) {
		return false, false
	}
	if h := u.memDep; h >= p.head {
		// Store-queue forwarding: the value is available one cycle after
		// the store issues. A store that has left the window retired one
		// cycle or more after issuing; an in-flight one cannot be squashed
		// while this younger load is not.
		if st := &p.at(h).master; !st.issued || st.issueCycle+1 > t {
			return false, false
		}
	}
	// Structural: the floating-point divider is not pipelined.
	if u.master && u.slotClass == isa.ClassFPDiv && p.freeDivider(c, t) < 0 {
		return false, false
	}
	// Transfer-buffer space: the last gate; a copy blocked here is ready in
	// every other respect.
	if u.master && u.sendsResult {
		if !p.bufferFits(1-c, 1, false) {
			return false, true
		}
	}
	if u.opFwdSlave {
		if !p.bufferFits(1-c, d.master.fwdOperands, true) {
			return false, true
		}
	}
	return true, false
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
