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
}

// copyIn returns d's copy in cluster c: the master, or else the slave.
func (d *dynInst) copyIn(c int) *uop {
	if d.masterCl == c {
		return &d.master
	}
	return &d.slave
}

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
