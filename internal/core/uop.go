package core

import (
	"math"

	"multicluster/internal/bpred"
	"multicluster/internal/isa"
)

// never is a cycle that never arrives.
const never = int64(math.MaxInt64 / 4)

// dynInst is one logical dynamic instruction in flight, stored in a slot
// of the processor's instruction ring (Processor.ring). A dual-distributed
// instruction owns two uops (a master and a slave); a single-distributed
// instruction owns one. Both copies are embedded, so the slot holds the
// whole instruction and nothing in it points at another slot: other
// instructions are named by their seq (see Processor.at).
type dynInst struct {
	seq   int64
	idx   int // static instruction index
	in    *isa.Instruction
	addr  uint64
	taken bool

	latency int

	dual     bool
	masterCl int
	master   uop
	slave    uop // unused unless dual

	// resultCycle is when the master's computation completes (set at
	// master issue).
	resultCycle int64
	// readyIn[c] is when the destination value becomes readable by
	// consumers in cluster c.
	readyIn [2]int64
	// doneCycle is when every copy's work is finished (retire-eligible).
	doneCycle int64

	issuedCopies int
	copies       int

	// Destination renaming bookkeeping for squash and retire: prevProd[c]
	// is the seq of the previous producer of destReg in cluster c (noInst
	// when none).
	destReg  isa.Reg
	renamed  [2]bool
	prevProd [2]int64

	// Conditional-branch state.
	isCondBr     bool
	snap         bpred.Snapshot
	mispredicted bool
	resolved     bool

	// opHeld / resHeld track whether this instruction currently occupies
	// operand / result transfer-buffer entries, so a squash or a release
	// event frees each claim exactly once.
	opHeld  bool
	resHeld bool

	squashed bool
}

// allIssued reports whether every copy has issued.
func (d *dynInst) allIssued() bool { return d.issuedCopies == d.copies }

// retireReady reports whether the instruction can retire at cycle t.
func (d *dynInst) retireReady(t int64) bool {
	return d.allIssued() && d.doneCycle <= t
}

// uop is one copy of an instruction in one cluster's dispatch queue.
type uop struct {
	cluster int
	master  bool

	// srcs[:nSrcs] are the seqs of the local producers whose values this
	// copy reads from its cluster's register file. An instruction has at
	// most two sources; producers already retired at distribute time are
	// filtered (their values are architectural, readable immediately).
	srcs  [2]int64
	nSrcs int8

	// fwdOperands is, for a master, the number of operands its slave
	// forwards through the master cluster's operand transfer buffer.
	fwdOperands int
	// sendsResult marks a master that must allocate a result-buffer entry
	// in the other cluster at issue.
	sendsResult bool
	// opFwdSlave marks a slave that reads operands and forwards them.
	opFwdSlave bool
	// recvsResult marks a slave whose cluster receives the result.
	recvsResult bool

	// memDep, on a load's master, is the seq of the youngest older
	// in-flight store to the same (word-aligned) address, or noInst; the
	// load issues no earlier than one cycle after it (store-queue
	// forwarding).
	memDep int64

	// slotClass is the issue-rule class this copy's issue slot counts
	// against.
	slotClass isa.Class

	distributedAt int64
	issued        bool
	issueCycle    int64

	// wake is a lower bound on the first cycle at which this copy can pass
	// the readiness checks (sources, inter-copy dependence, store
	// forwarding, divider), and it stays one for the rest of the run. The
	// issue scan passes over the copy until then; dependents chain their
	// own bounds off it (see readyAt).
	wake int64
}

// copyIn returns d's copy in cluster c: the master, or else the slave.
func (d *dynInst) copyIn(c int) *uop {
	if d.masterCl == c {
		return &d.master
	}
	return &d.slave
}

// issueAt returns the cycle u issued or, while it has not, the earliest
// cycle it still can: not before t, nor before its wake bound.
func (u *uop) issueAt(t int64) int64 {
	if u.issued {
		return u.issueCycle
	}
	return max(t, u.wake)
}

// slaveRelease is the cycle a result-receiving slave is released once its
// master has issued (§2.1): two cycles before the master's result is due,
// so the forwarded value meets the slave in the buffer, but never in the
// master's own issue cycle. Using the actual result cycle matters for
// loads, whose completion depends on the data cache.
func (d *dynInst) slaveRelease() int64 {
	return max(d.resultCycle-1, d.master.issueCycle+1)
}

// resultLatency is the least number of cycles between the master's issue
// and its result: the op latency, plus the load-delay slot for a load (a
// data-cache miss only adds to it).
func (p *Processor) resultLatency(d *dynInst) int64 {
	if d.in.Op.Class() == isa.ClassLoad {
		return int64(d.latency + p.cfg.LoadDelaySlots)
	}
	return int64(d.latency)
}

// valueAt returns the cycle producer d's value becomes readable in cluster
// c or, while that is unknown, a lower bound on it. readyIn is set once
// and never changes, and it is never below resultCycle, which is at least
// the master's issue plus its result latency. Once the master has issued,
// an unset readyIn[c] waits on the result-receiving slave, which writes
// the value the cycle after it issues.
func (p *Processor) valueAt(d *dynInst, c int, t int64) int64 {
	switch {
	case d.readyIn[c] != never:
		return d.readyIn[c]
	case !d.master.issued:
		return d.master.issueAt(t) + p.resultLatency(d)
	}
	return max(d.slaveRelease(), d.slave.issueAt(t)) + 1
}

// readyAt returns the first cycle at which copy u of d passes the
// readiness checks, as far as is known at cycle t: a value up to t means
// it passes now, and a later value is a lower bound that holds for the
// rest of the run. An unissued copy bounds from t, not t+1, because the
// other cluster's copies may still issue this cycle.
func (p *Processor) readyAt(d *dynInst, u *uop, t int64) int64 {
	w := u.distributedAt + 1 // issueable the cycle after insertion at the earliest
	// Local register sources. A producer that has left the window is
	// retired, and a retired value is architectural.
	for i := int8(0); i < u.nSrcs; i++ {
		if h := u.srcs[i]; h >= p.head {
			w = max(w, p.valueAt(p.at(h), u.cluster, t))
		}
	}
	// The dependence between the two copies of a dual-distributed
	// instruction (§2.1): a master waits one cycle past its
	// operand-forwarding slave's issue; a result-receiving slave waits for
	// its release, at least max(1, L-1) cycles after the master issues. An
	// operand-forwarding slave is gated only by its sources.
	if u.master {
		if u.fwdOperands > 0 {
			w = max(w, d.slave.issueAt(t)+1)
		}
	} else if u.recvsResult && !u.opFwdSlave {
		if d.master.issued {
			w = max(w, d.slaveRelease())
		} else {
			w = max(w, d.master.issueAt(t)+max(p.resultLatency(d)-1, 1))
		}
	}
	// Store-queue forwarding: the value is available one cycle after the
	// store issues. A store that has left the window retired one cycle or
	// more after issuing; an in-flight one cannot be squashed while this
	// younger load is not.
	if h := u.memDep; h >= p.head {
		w = max(w, p.at(h).master.issueAt(t)+1)
	}
	return w
}
