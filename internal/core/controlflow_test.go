package core

import (
	"testing"

	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

func TestCallAndReturnFlowThrough(t *testing.T) {
	// CALL writes the return address register; RET reads it. Neither is
	// predicted (the paper assumes 100% predictability for them), so no
	// mispredict stalls occur.
	instrs := []isa.Instruction{
		{Op: isa.CALL, Dst: isa.RegRA, Target: 2, MemID: -1, BrID: -1},
		{Op: isa.ADD, Dst: r(2), Src1: isa.RegZero, Src2: isa.RegZero, MemID: -1, BrID: -1},
		{Op: isa.RET, Src1: isa.RegRA, MemID: -1, BrID: -1},
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0], Taken: true},
		{Index: 2, Instr: &instrs[2], Taken: true},
		{Index: 1, Instr: &instrs[1]},
	}
	retiredSeq := 0
	p, err := New(perfectCaches(DualCluster4Way()), &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	p.observe = func(d *dynInst) { retiredSeq++ }
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instructions != 3 || retiredSeq != 3 {
		t.Fatalf("retired %d, want 3", stats.Instructions)
	}
	if stats.Mispredicts != 0 || stats.CondBranches != 0 {
		t.Errorf("calls/returns must not count as predicted branches: %v", stats)
	}
	// The RET depends on RA written by the CALL: it cannot issue earlier.
}

func TestRetDependsOnCallRA(t *testing.T) {
	instrs := []isa.Instruction{
		{Op: isa.CALL, Dst: isa.RegRA, Target: 1, MemID: -1, BrID: -1},
		{Op: isa.RET, Src1: isa.RegRA, MemID: -1, BrID: -1},
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0], Taken: true},
		{Index: 1, Instr: &instrs[1], Taken: true},
	}
	p, err := New(perfectCaches(SingleCluster8Way()), &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	call, ret := retired[0], retired[1]
	if ret.master.issueCycle < call.resultCycle {
		t.Errorf("ret issued at %d before the call's RA was ready at %d", ret.master.issueCycle, call.resultCycle)
	}
}

func TestDualDistributedStoreForwardsData(t *testing.T) {
	// Store with the address register in cluster 0 and the data register
	// in cluster 1: the master (address side, by tie-break toward the
	// lighter cluster... majority is 1-1) gets the other operand through
	// the operand transfer buffer. Either master choice needs exactly one
	// operand forward and no result forward (stores have no destination).
	instrs := []isa.Instruction{
		lda(r(2), 1),
		lda(r(3), 2),
		{Op: isa.STW, Src1: r(2), Src2: r(3), MemID: 0, BrID: -1},
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0]},
		{Index: 1, Instr: &instrs[1]},
		{Index: 2, Instr: &instrs[2], Addr: 0x4000},
	}
	p, err := New(perfectCaches(DualCluster4Way()), &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := retired[2]
	if !st.dual {
		t.Fatal("cross-cluster store must dual-distribute")
	}
	if stats.OperandForwards != 1 || stats.ResultForwards != 0 {
		t.Errorf("forwards op=%d res=%d, want 1/0", stats.OperandForwards, stats.ResultForwards)
	}
	if st.renamed[0] || st.renamed[1] {
		t.Error("stores must not allocate destination registers")
	}
}

func TestGlobalSourcesDoNotForceDual(t *testing.T) {
	// Reading a global register from either cluster is free: an add of SP
	// and a cluster-1 local with a cluster-1 destination stays single.
	instrs := []isa.Instruction{
		lda(r(3), 1),
		{Op: isa.ADD, Dst: r(1), Src1: isa.RegSP, Src2: r(3), MemID: -1, BrID: -1},
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0]},
		{Index: 1, Instr: &instrs[1]},
	}
	p, err := New(perfectCaches(DualCluster4Way()), &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if retired[1].dual {
		t.Error("global sources must not force dual distribution")
	}
	if retired[1].masterCl != 1 {
		t.Errorf("master cluster = %d, want 1 (home of r3 and r1)", retired[1].masterCl)
	}
	if stats.DualDist != 0 {
		t.Errorf("dual = %d, want 0", stats.DualDist)
	}
}

func TestFPSlaveConsumesFPSlot(t *testing.T) {
	// An FP operand forwarded by a slave must consume an FP issue slot in
	// the slave's cluster: with FPAll=1 per cluster, the slave competes
	// with FP computation there.
	cfg := perfectCaches(DualCluster4Way())
	f := isa.FPReg
	instrs := []isa.Instruction{
		{Op: isa.FADD, Dst: f(3), Src1: isa.FPZero, Src2: isa.FPZero, MemID: -1, BrID: -1}, // f3: cluster 1
		{Op: isa.FADD, Dst: f(2), Src1: isa.FPZero, Src2: isa.FPZero, MemID: -1, BrID: -1}, // f2: cluster 0
		{Op: isa.FMUL, Dst: f(0), Src1: f(2), Src2: f(3), MemID: -1, BrID: -1},             // slave forwards f3
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	mul := retired[2]
	if !mul.dual || !mul.slave.opFwdSlave {
		t.Fatal("expected an FP operand-forwarding slave")
	}
	if mul.slave.slotClass != isa.ClassFPOther {
		t.Errorf("FP slave slot class = %v, want fp-other", mul.slave.slotClass)
	}
}

func TestLowHighAssignmentInCore(t *testing.T) {
	// Under low/high, r2 and r3 are both cluster 0: the add stays single.
	cfg := perfectCaches(DualCluster4Way())
	cfg.Assignment = isa.LowHighAssignment()
	instrs := []isa.Instruction{
		lda(r(2), 1),
		lda(r(3), 2),
		add(r(4), r(2), r(3)),
		add(r(20), r(2), r(20)), // r20 is cluster 1 under low/high: dual
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if retired[2].dual {
		t.Error("low-register add must be single under low/high")
	}
	if !retired[3].dual {
		t.Error("cross-half add must be dual under low/high")
	}
	if stats.DualDist != 1 {
		t.Errorf("dual = %d, want 1", stats.DualDist)
	}
}

func TestTakenBranchEndsFetchGroup(t *testing.T) {
	// Everything behind a taken branch in the same fetch group waits a
	// cycle: the instruction after an always-taken jump is distributed no
	// earlier than the next cycle.
	instrs := []isa.Instruction{
		{Op: isa.BR, Target: 1, MemID: -1, BrID: -1},
		lda(r(2), 1),
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0], Taken: true},
		{Index: 1, Instr: &instrs[1]},
	}
	p, err := New(perfectCaches(SingleCluster8Way()), &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if retired[1].master.distributedAt <= retired[0].master.distributedAt {
		t.Errorf("instruction after a taken branch distributed in the same cycle (%d vs %d)",
			retired[1].master.distributedAt, retired[0].master.distributedAt)
	}
}

func TestDuplicateRemoteSourceForwardsOnce(t *testing.T) {
	// add r0 = r3 + r3 under the alternate master policy can place the
	// master in cluster 0 with both sources remote; the single value must
	// occupy one operand-buffer entry, not two.
	cfg := perfectCaches(DualCluster4Way())
	cfg.MasterSelect = MasterAlternate
	cfg.OperandBuffer = 2
	instrs := []isa.Instruction{
		lda(r(3), 7),          // seq 0: alternate -> cluster 0? irrelevant
		add(r(0), r(3), r(3)), // may master on cluster 0 with r3 remote
		add(r(2), r(3), r(3)), // and again
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instructions != int64(len(instrs)) {
		t.Fatalf("retired %d of %d", stats.Instructions, len(instrs))
	}
	for _, d := range retired {
		if d.dual && d.master.fwdOperands > 1 {
			t.Errorf("instruction forwarded %d entries for one distinct value", d.master.fwdOperands)
		}
	}
}
