package core

import "multicluster/internal/isa"

// fetchItem is one dynamic instruction waiting to be distributed: either
// fresh from the trace reader or re-queued by a replay exception.
type fetchItem struct {
	idx   int
	in    *isa.Instruction
	addr  uint64
	taken bool
}

// distPlan is the outcome of the distribution rules of §2.1 for one
// instruction: which cluster executes the computation (the master), whether
// a slave copy is needed, which operands the slave forwards, and where
// physical registers must be allocated. The source lists are fixed-size
// (an instruction has at most two sources) so planning never allocates.
type distPlan struct {
	dual     bool
	masterCl int

	// masterSrcs[:nMaster] / slaveSrcs[:nSlave] are the architectural
	// source registers each copy reads from its own cluster's register
	// file.
	masterSrcs [2]isa.Reg
	slaveSrcs  [2]isa.Reg
	nMaster    int
	nSlave     int

	sendsResult bool
	// allocIn[c] is true when a physical destination register must be
	// allocated in cluster c.
	allocIn [2]bool
}

// plan applies the register-driven distribution rules. For a single-cluster
// machine everything lands in cluster 0.
func (p *Processor) plan(in *isa.Instruction) distPlan {
	var pl distPlan
	// in.Sources() without the slice: RegNone and hardwired zero registers
	// never create dependences or cluster constraints.
	var srcs [2]isa.Reg
	nSrc := 0
	if r := in.Src1; r != isa.RegNone && !r.IsZero() {
		srcs[nSrc] = r
		nSrc++
	}
	if r := in.Src2; r != isa.RegNone && !r.IsZero() {
		srcs[nSrc] = r
		nSrc++
	}
	dest := in.Dest()

	if p.cfg.Clusters == 1 {
		pl.masterSrcs = srcs
		pl.nMaster = nSrc
		if dest != isa.RegNone {
			pl.allocIn[0] = true
		}
		return pl
	}

	a := p.cfg.Assignment
	var localCount [2]int
	for _, r := range srcs[:nSrc] {
		if !a.IsGlobal(r) {
			localCount[a.Home(r)]++
		}
	}
	destGlobal := false
	if dest != isa.RegNone {
		if a.IsGlobal(dest) {
			destGlobal = true
		} else {
			localCount[a.Home(dest)]++
		}
	}
	pl.masterCl = p.pickMaster(srcs[:nSrc], localCount)

	other := 1 - pl.masterCl
	for _, r := range srcs[:nSrc] {
		if a.In(r, pl.masterCl) {
			pl.masterSrcs[pl.nMaster] = r
			pl.nMaster++
		} else if pl.nSlave == 0 || pl.slaveSrcs[0] != r {
			// One transfer-buffer entry per distinct value: an instruction
			// naming the same remote register twice forwards it once.
			pl.slaveSrcs[pl.nSlave] = r
			pl.nSlave++
		}
	}
	switch {
	case dest == isa.RegNone:
	case destGlobal:
		pl.allocIn[0], pl.allocIn[1] = true, true
		pl.sendsResult = true
	case a.Home(dest) == pl.masterCl:
		pl.allocIn[pl.masterCl] = true
	default:
		pl.allocIn[other] = true
		pl.sendsResult = true
	}
	pl.dual = pl.sendsResult || pl.nSlave > 0
	return pl
}

// pickMaster applies the configured master-selection policy.
func (p *Processor) pickMaster(srcs []isa.Reg, localCount [2]int) int {
	switch p.cfg.MasterSelect {
	case MasterFirstSource:
		for _, r := range srcs {
			if !p.cfg.Assignment.IsGlobal(r) {
				return p.cfg.Assignment.Home(r)
			}
		}
		return p.balancePick()
	case MasterAlternate:
		c := int(p.nextSeq & 1)
		return c
	default:
		switch {
		case localCount[0] > localCount[1]:
			return 0
		case localCount[1] > localCount[0]:
			return 1
		}
		return p.balancePick()
	}
}

// balancePick breaks master-selection ties toward the cluster with the
// lighter dispatch queue, then the fewer lifetime distributions, then 0.
func (p *Processor) balancePick() int {
	if len(p.queue[0]) != len(p.queue[1]) {
		if len(p.queue[1]) < len(p.queue[0]) {
			return 1
		}
		return 0
	}
	if p.stats.Cluster[1].Distributed < p.stats.Cluster[0].Distributed {
		return 1
	}
	return 0
}

// canDistribute checks, without side effects, that every resource the plan
// needs is available: a dispatch-queue entry in each target cluster and a
// free physical register wherever the destination is allocated. It returns
// the stall reason when blocked.
func (p *Processor) canDistribute(in *isa.Instruction, pl distPlan) (ok bool, queueFull, regsFull bool) {
	need := [2]int{}
	need[pl.masterCl]++
	if pl.dual {
		need[1-pl.masterCl]++
	}
	for c := 0; c < p.cfg.Clusters; c++ {
		if need[c] > 0 && len(p.queue[c])+need[c] > p.cfg.QueueSize {
			return false, true, false
		}
	}
	if dest := in.Dest(); dest != isa.RegNone {
		fp := bIdx(dest.IsFP())
		for c := 0; c < p.cfg.Clusters; c++ {
			if pl.allocIn[c] && p.freeRegs[c][fp] < 1 {
				return false, false, true
			}
		}
	}
	return true, false, false
}

// distribute commits one instruction to the machine at cycle t: builds the
// dynamic instruction and its copies, renames the destination, allocates
// physical registers, inserts the copies into dispatch queues, and predicts
// conditional branches (footnote 2: prediction happens here, at insertion).
func (p *Processor) distribute(item fetchItem, pl distPlan, t int64) *dynInst {
	d := p.claimSlot()
	*d = dynInst{
		seq:         p.nextSeq,
		idx:         item.idx,
		in:          item.in,
		addr:        item.addr,
		taken:       item.taken,
		latency:     item.in.Op.Latency(),
		dual:        pl.dual,
		masterCl:    pl.masterCl,
		resultCycle: never,
		readyIn:     [2]int64{never, never},
		doneCycle:   never,
		destReg:     item.in.Dest(),
	}
	p.nextSeq++

	// lookup resolves the planned source registers to their in-flight
	// producers in cluster cl. Retired producers (older than head) are
	// skipped: their values are committed (readyIn never exceeds
	// doneCycle), so they can never delay an issue.
	lookup := func(u *uop, regs [2]isa.Reg, n, cl int) {
		for i := 0; i < n; i++ {
			if prod := p.rename[cl][regs[i]]; prod >= p.head {
				u.srcs[u.nSrcs] = prod
				u.nSrcs++
			}
		}
	}

	m := &d.master
	*m = uop{
		cluster:       pl.masterCl,
		master:        true,
		fwdOperands:   pl.nSlave,
		sendsResult:   pl.sendsResult,
		memDep:        noInst,
		slotClass:     item.in.Op.Class(),
		distributedAt: t,
		wake:          t + 1,
	}
	lookup(m, pl.masterSrcs, pl.nMaster, pl.masterCl)
	d.copies = 1
	p.enqueue(pl.masterCl, d.seq, t+1)
	p.stats.Cluster[pl.masterCl].Distributed++

	if pl.dual {
		other := 1 - pl.masterCl
		s := &d.slave
		*s = uop{
			cluster:       other,
			master:        false,
			opFwdSlave:    pl.nSlave > 0,
			recvsResult:   pl.sendsResult,
			memDep:        noInst,
			slotClass:     slaveSlotClass(item.in, pl),
			distributedAt: t,
			wake:          t + 1,
		}
		lookup(s, pl.slaveSrcs, pl.nSlave, other)
		d.copies = 2
		p.enqueue(other, d.seq, t+1)
		p.stats.Cluster[other].Distributed++
		p.stats.DualDist++
		if s.opFwdSlave {
			p.stats.OperandForwards++
		}
		if pl.sendsResult {
			p.stats.ResultForwards++
		}
	} else {
		p.stats.SingleDist++
	}

	// Rename the destination: record the previous producer for squash
	// recovery and claim a physical register wherever the value lives.
	if d.destReg != isa.RegNone {
		fp := bIdx(d.destReg.IsFP())
		for c := 0; c < p.cfg.Clusters; c++ {
			if pl.allocIn[c] {
				d.prevProd[c] = p.rename[c][d.destReg]
				p.rename[c][d.destReg] = d.seq
				d.renamed[c] = true
				p.freeRegs[c][fp]--
			}
		}
	}

	// Store→load ordering: loads wait on the youngest older store to the
	// same word; stores publish themselves. Squashed stores are always
	// re-distributed before any younger load, so stale entries cannot leak
	// into live dependences.
	if p.lastStore != nil {
		switch item.in.Op.Class() {
		case isa.ClassLoad:
			if st, ok := p.lastStore[item.addr&^7]; ok && st >= p.head && !p.at(st).squashed {
				m.memDep = st
			}
		case isa.ClassStore:
			p.lastStore[item.addr&^7] = d.seq
		}
	}

	// Conditional branches are predicted at dispatch-queue insertion.
	if item.in.Op.IsCondBranch() {
		d.isCondBr = true
		d.snap = p.pred.Predict(isa.PCOf(item.idx))
		d.mispredicted = d.snap.Taken() != item.taken
		p.pendingBr = append(p.pendingBr, d.seq)
	}

	p.inFlight++
	p.stats.Fetched++
	if p.probes != nil && p.probes.Distribute != nil {
		p.probes.Distribute(pl.dual)
	}
	return d
}

// enqueue appends a copy of instruction seq to cluster c's dispatch queue
// with its first wake bound.
func (p *Processor) enqueue(c int, seq, wake int64) {
	p.queue[c] = append(p.queue[c], queueEntry{seq, wake})
	p.minWake[c] = min(p.minWake[c], wake)
}

// slaveSlotClass returns the issue-rule class a slave copy's issue slot
// counts against: the file it touches (an integer read/write takes an
// integer slot, per scenario two of §2.1).
func slaveSlotClass(in *isa.Instruction, pl distPlan) isa.Class {
	if pl.nSlave > 0 {
		for _, r := range pl.slaveSrcs[:pl.nSlave] {
			if r.IsFP() {
				return isa.ClassFPOther
			}
		}
		return isa.ClassIntOther
	}
	if dest := in.Dest(); dest != isa.RegNone && dest.IsFP() {
		return isa.ClassFPOther
	}
	return isa.ClassIntOther
}

// bIdx converts a file flag to an index (0 int, 1 fp).
func bIdx(fp bool) int {
	if fp {
		return 1
	}
	return 0
}
