package core

import (
	"testing"

	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

func ldw(dst, base isa.Reg, addr uint64) (isa.Instruction, uint64) {
	return isa.Instruction{Op: isa.LDW, Dst: dst, Src1: base, Imm: 0, MemID: 0, BrID: -1}, addr
}

func TestLoadDelaySlot(t *testing.T) {
	// A dependent of a load can issue two cycles after the load (latency 1
	// plus the single load-delay slot), even on a hit.
	load := isa.Instruction{Op: isa.LDW, Dst: r(2), Src1: isa.RegZero, MemID: 0, BrID: -1}
	use := add(r(4), r(2), r(2))
	instrs := []isa.Instruction{load, use}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0], Addr: 0x1000},
		{Index: 1, Instr: &instrs[1]},
	}
	cfg := perfectCaches(SingleCluster8Way())
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	var retired []dynInst
	p.observe = func(d *dynInst) { retired = append(retired, *d) }
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ld, u := retired[0], retired[1]
	if got := ld.resultCycle - ld.master.issueCycle; got != 2 {
		t.Errorf("load result after %d cycles, want 2 (1 + delay slot)", got)
	}
	if u.master.issueCycle != ld.master.issueCycle+2 {
		t.Errorf("use issued at %d, want load+2 = %d", u.master.issueCycle, ld.master.issueCycle+2)
	}
}

func TestDCacheMissDelaysDependent(t *testing.T) {
	cfg := SingleCluster8Way()
	cfg.ICache.MissLatency = 0
	load := isa.Instruction{Op: isa.LDW, Dst: r(2), Src1: isa.RegZero, MemID: 0, BrID: -1}
	use := add(r(4), r(2), r(2))
	instrs := []isa.Instruction{load, use}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0], Addr: 0x8000},
		{Index: 1, Instr: &instrs[1]},
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
	ld, u := retired[0], retired[1]
	if got := ld.resultCycle - ld.master.issueCycle; got != 2+16 {
		t.Errorf("missing load completed after %d cycles, want 18", got)
	}
	if u.master.issueCycle < ld.resultCycle {
		t.Errorf("use issued at %d before the miss returned at %d", u.master.issueCycle, ld.resultCycle)
	}
	if stats.DCache.Misses != 1 {
		t.Errorf("dcache misses = %d, want 1", stats.DCache.Misses)
	}
}

func TestNonBlockingLoadsOverlapMisses(t *testing.T) {
	// Eight independent missing loads: with an inverted MSHR they all
	// overlap, so total time is ~latency + serialization, far below 8×18.
	cfg := SingleCluster8Way()
	cfg.ICache.MissLatency = 0
	n := 8
	instrs := make([]isa.Instruction, n)
	es := make([]trace.Entry, n)
	for i := 0; i < n; i++ {
		instrs[i] = isa.Instruction{Op: isa.LDW, Dst: r(2 * (i % 8)), Src1: isa.RegZero, MemID: i, BrID: -1}
		es[i] = trace.Entry{Index: i, Instr: &instrs[i], Addr: uint64(0x10000 + i*4096)}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DCache.Misses != int64(n) {
		t.Fatalf("misses = %d, want %d", stats.DCache.Misses, n)
	}
	if stats.Cycles > 40 {
		t.Errorf("cycles = %d; misses did not overlap (serialized would be ~%d)", stats.Cycles, n*18)
	}
}

// branchProgram builds a loop whose branch alternates taken/not-taken per
// outcomes, returning instruction slices and entries.
func branchTrace(outcomes []bool) []trace.Entry {
	// Static: 0: lda r2; 1: bne r2 -> 0 ; 2..: body after loop.
	instrs := []isa.Instruction{
		lda(r(2), 1),
		{Op: isa.BNE, Src1: r(2), Target: 0, MemID: -1, BrID: 0},
	}
	static := &instrs // keep alive
	_ = static
	var es []trace.Entry
	for _, taken := range outcomes {
		es = append(es, trace.Entry{Index: 0, Instr: &instrs[0]})
		es = append(es, trace.Entry{Index: 1, Instr: &instrs[1], Taken: taken})
	}
	return es
}

func TestBranchPredictionLearnsLoop(t *testing.T) {
	// A branch taken 200 times then falling through: after warm-up the
	// predictor should be nearly perfect, so mispredicts ≪ branches.
	outcomes := make([]bool, 200)
	for i := range outcomes {
		outcomes[i] = true
	}
	outcomes[len(outcomes)-1] = false
	cfg := perfectCaches(SingleCluster8Way())
	p, err := New(cfg, &trace.SliceReader{Entries: branchTrace(outcomes)})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CondBranches != 200 {
		t.Fatalf("branches retired = %d, want 200", stats.CondBranches)
	}
	if stats.Mispredicts > 8 {
		t.Errorf("mispredicts = %d, want a handful during warm-up", stats.Mispredicts)
	}
}

func TestMispredictStallsFetch(t *testing.T) {
	// Random-looking outcomes force mispredicts; every mispredict must
	// stall fetch until resolution, so cycles grow far beyond the
	// perfectly-predicted case.
	good := make([]bool, 128)
	for i := range good {
		good[i] = true
	}
	bad := make([]bool, 128)
	for i := range bad {
		bad[i] = i%3 == 0 // pattern the bimodal+gshare predictor tracks poorly early
	}
	cfg := perfectCaches(SingleCluster8Way())
	runTrace := func(out []bool) Stats {
		p, err := New(cfg, &trace.SliceReader{Entries: branchTrace(out)})
		if err != nil {
			t.Fatal(err)
		}
		s, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sg, sb := runTrace(good), runTrace(bad)
	if sb.Mispredicts <= sg.Mispredicts {
		t.Fatalf("expected more mispredicts on irregular pattern: %d vs %d", sb.Mispredicts, sg.Mispredicts)
	}
	if sb.Cycles <= sg.Cycles {
		t.Errorf("mispredicts did not cost cycles: good %d, bad %d", sg.Cycles, sb.Cycles)
	}
	if sb.Fetch.Mispredict == 0 {
		t.Error("no fetch cycles attributed to mispredict stalls")
	}
}

func TestPhysicalRegisterStall(t *testing.T) {
	// More in-flight destinations than free physical registers: fetch must
	// stall on register availability but the program still completes.
	cfg := perfectCaches(SingleCluster8Way())
	cfg.IntRegs = 36 // 31 backed + 5 free
	// A long-latency producer keeps its consumers in flight.
	instrs := []isa.Instruction{
		{Op: isa.MUL, Dst: r(2), Src1: isa.RegZero, Src2: isa.RegZero, MemID: -1, BrID: -1},
	}
	n := 64
	for i := 0; i < n; i++ {
		instrs = append(instrs, add(r(2), r(2), r(2)))
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instructions != int64(n+1) {
		t.Fatalf("retired %d, want %d", stats.Instructions, n+1)
	}
	if stats.Fetch.RegsFull == 0 {
		t.Error("expected register-file fetch stalls")
	}
}

func TestQueueFullStall(t *testing.T) {
	cfg := perfectCaches(SingleCluster8Way())
	cfg.QueueSize = 8
	// A divide at the head keeps the queue from draining.
	instrs := []isa.Instruction{
		{Op: isa.FDIVD, Dst: isa.FPReg(2), Src1: isa.FPReg(31), Src2: isa.FPReg(31), MemID: -1, BrID: -1},
	}
	for i := 0; i < 32; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.FADD, Dst: isa.FPReg(2), Src1: isa.FPReg(2), Src2: isa.FPReg(2), MemID: -1, BrID: -1})
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Fetch.QueueFull == 0 {
		t.Error("expected dispatch-queue fetch stalls")
	}
	if stats.Instructions != int64(len(instrs)) {
		t.Fatalf("retired %d, want %d", stats.Instructions, len(instrs))
	}
}

func TestDividerNotPipelined(t *testing.T) {
	// Two independent divides with one divider per cluster must serialize.
	cfg := perfectCaches(SingleCluster8Way())
	cfg.Rules.FPDiv = 1
	instrs := []isa.Instruction{
		{Op: isa.FDIV, Dst: isa.FPReg(0), Src1: isa.FPReg(31), Src2: isa.FPReg(31), MemID: -1, BrID: -1},
		{Op: isa.FDIV, Dst: isa.FPReg(2), Src1: isa.FPReg(31), Src2: isa.FPReg(31), MemID: -1, BrID: -1},
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0]},
		{Index: 1, Instr: &instrs[1]},
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
	gap := retired[1].master.issueCycle - retired[0].master.issueCycle
	if gap < 8 {
		t.Errorf("second divide issued %d cycles after the first; the divider is not pipelined (want ≥ 8)", gap)
	}
}

func TestIssueRuleMemCap(t *testing.T) {
	// 64 independent loads on the 8-way single cluster: at most 4 memory
	// ops per cycle (Table 1).
	cfg := perfectCaches(SingleCluster8Way())
	n := 64
	instrs := make([]isa.Instruction, n)
	es := make([]trace.Entry, n)
	for i := range instrs {
		instrs[i] = isa.Instruction{Op: isa.LDW, Dst: r(2 * (i % 8)), Src1: isa.RegZero, MemID: i, BrID: -1}
		es[i] = trace.Entry{Index: i, Instr: &instrs[i], Addr: 0x1000}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 64 loads at 4/cycle need ≥ 16 issue cycles.
	if stats.Cycles < 16 {
		t.Errorf("cycles = %d; memory issue cap of 4/cycle violated", stats.Cycles)
	}
}

func TestReplayExceptionBreaksBufferDeadlock(t *testing.T) {
	// Construct the §2.1 deadlock: an old instruction A whose slave (in
	// cluster 1) waits on a slow divide; younger dual instructions whose
	// slaves fill cluster 0's operand buffer and whose masters depend on
	// A's result. A's slave then finds the buffer full while the holders'
	// masters wait on A — an instruction-replay exception must squash the
	// youngsters and let A proceed.
	cfg := perfectCaches(DualCluster4Way())
	cfg.OperandBuffer = 2
	cfg.ReplayWatchdog = 24

	var instrs []isa.Instruction
	// f1 (cluster 1) <- slow divide.
	instrs = append(instrs, isa.Instruction{Op: isa.FDIVD, Dst: isa.FPReg(1), Src1: isa.FPReg(31), Src2: isa.FPReg(31), MemID: -1, BrID: -1})
	// r1 (cluster 1) depends on the divide via a convert.
	instrs = append(instrs, isa.Instruction{Op: isa.CVTFI, Dst: r(1), Src1: isa.FPReg(1), MemID: -1, BrID: -1})
	// A: add r0 = r2 + r1 — master in cluster 0, slave in cluster 1 waits
	// for r1 (the divide chain).
	instrs = append(instrs, lda(r(2), 7))
	instrs = append(instrs, add(r(0), r(2), r(1)))
	aIdx := len(instrs) - 1
	// Youngsters: add r4 = r0 + r3 style — slaves forward r3/r5/... (ready
	// immediately) into cluster 0's buffer; masters wait on r0 (A).
	for i := 0; i < 4; i++ {
		instrs = append(instrs, lda(r(3+2*i), int64(i)))
		instrs = append(instrs, add(r(4+2*i), r(0), r(3+2*i)))
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = aIdx
	if stats.Instructions != int64(len(instrs)) {
		t.Fatalf("retired %d, want %d", stats.Instructions, len(instrs))
	}
	if stats.Replays == 0 {
		t.Error("expected at least one instruction-replay exception")
	}
	if stats.ReplayedInstructions == 0 {
		t.Error("expected replayed instructions")
	}
}

func TestIssueDisorderMetric(t *testing.T) {
	// A slow producer with an independent stream behind it: the stream
	// issues around the stalled consumer, so disorder must be non-zero.
	cfg := perfectCaches(SingleCluster8Way())
	instrs := []isa.Instruction{
		{Op: isa.FDIVD, Dst: isa.FPReg(0), Src1: isa.FPReg(31), Src2: isa.FPReg(31), MemID: -1, BrID: -1},
		{Op: isa.FADD, Dst: isa.FPReg(2), Src1: isa.FPReg(0), Src2: isa.FPReg(0), MemID: -1, BrID: -1},
	}
	for i := 0; i < 16; i++ {
		instrs = append(instrs, lda(r(2*(i%8)), int64(i)))
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DisorderSum == 0 {
		t.Error("independent stream issuing past a stalled consumer must register disorder")
	}
}

func TestColdICacheStallsFetch(t *testing.T) {
	cfg := SingleCluster8Way() // real caches
	n := 64
	instrs := make([]isa.Instruction, n)
	es := make([]trace.Entry, n)
	for i := range instrs {
		instrs[i] = lda(r(2*(i%8)), int64(i))
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ICache.Misses == 0 || stats.Fetch.ICacheMiss == 0 {
		t.Errorf("cold instruction cache should miss and stall: %+v", stats.Fetch)
	}
	// 64 instructions over 8 lines at 16 cycles each ≥ 128 cycles.
	if stats.Cycles < 8*16 {
		t.Errorf("cycles = %d, want ≥ 128 with cold icache", stats.Cycles)
	}
}

func TestRetireWidthBound(t *testing.T) {
	cfg := perfectCaches(SingleCluster8Way())
	cfg.RetireWidth = 2
	n := 128
	instrs := make([]isa.Instruction, n)
	es := make([]trace.Entry, n)
	for i := range instrs {
		instrs[i] = lda(r(2*(i%8)), int64(i))
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ipc := stats.IPC(); ipc > 2.0 {
		t.Errorf("IPC = %.2f exceeds retire width 2", ipc)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := SingleCluster8Way()
	bad.Clusters = 3
	if _, err := New(bad, &trace.SliceReader{}); err == nil {
		t.Error("3-cluster configuration accepted")
	}
	bad2 := SingleCluster8Way()
	bad2.IntRegs = 10
	if _, err := New(bad2, &trace.SliceReader{}); err == nil {
		t.Error("too-small register file accepted")
	}
	// A budget of 2^60 instructions makes MaxCycles = 40x wrap negative;
	// it must be refused, not run as a zero-cycle simulation.
	bad3 := DualCluster4Way()
	budget := int64(1 << 60)
	bad3.MaxCycles = budget * 40
	if _, err := New(bad3, &trace.SliceReader{}); err == nil {
		t.Errorf("negative MaxCycles %d accepted", bad3.MaxCycles)
	}
}

func TestEmptyTrace(t *testing.T) {
	p, err := New(perfectCaches(SingleCluster8Way()), &trace.SliceReader{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instructions != 0 || stats.Stop != StopTraceEnd {
		t.Errorf("empty trace: %v", stats)
	}
}

func TestUnifiedBufferStillDrains(t *testing.T) {
	// The unified pool must preserve every conservation invariant and the
	// deadlock-recovery path; a one-entry pool maximizes contention.
	cfg := perfectCaches(DualCluster4Way())
	cfg.OperandBuffer = 1
	cfg.ResultBuffer = 1
	cfg.UnifiedBuffer = true
	cfg.MaxCycles = 1_000_000
	n := 64
	instrs := make([]isa.Instruction, 0, 2*n)
	for i := 0; i < n; i++ {
		instrs = append(instrs, lda(r(2+2*(i%4)), int64(i)))
		instrs = append(instrs, add(r(1+2*(i%4)), r(2+2*(i%4)), r(1+2*(i%4))))
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i]}
	}
	p, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Instructions != int64(len(instrs)) {
		t.Fatalf("retired %d of %d", stats.Instructions, len(instrs))
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// A load from an address an older in-flight store writes must wait
	// until one cycle after the store issues; the store itself waits on a
	// slow producer.
	cfg := perfectCaches(SingleCluster8Way())
	instrs := []isa.Instruction{
		{Op: isa.MUL, Dst: r(2), Src1: isa.RegZero, Src2: isa.RegZero, MemID: -1, BrID: -1}, // 6 cycles
		{Op: isa.STW, Src1: isa.RegZero, Src2: r(2), MemID: 0, BrID: -1},                    // waits on the mul
		{Op: isa.LDW, Dst: r(4), Src1: isa.RegZero, MemID: 1, BrID: -1},                     // same address
		{Op: isa.LDW, Dst: r(6), Src1: isa.RegZero, MemID: 2, BrID: -1},                     // different address
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0]},
		{Index: 1, Instr: &instrs[1], Addr: 0x5000},
		{Index: 2, Instr: &instrs[2], Addr: 0x5000},
		{Index: 3, Instr: &instrs[3], Addr: 0x9000},
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
	st, aliased, free := retired[1], retired[2], retired[3]
	if aliased.master.issueCycle < st.master.issueCycle+1 {
		t.Errorf("aliased load issued at %d, store at %d: no ordering", aliased.master.issueCycle, st.master.issueCycle)
	}
	if free.master.issueCycle >= st.master.issueCycle {
		t.Errorf("independent load at %d waited for the store at %d", free.master.issueCycle, st.master.issueCycle)
	}

	// With UnorderedMemory the aliased load is free to issue early.
	cfg.UnorderedMemory = true
	p2, err := New(cfg, &trace.SliceReader{Entries: es})
	if err != nil {
		t.Fatal(err)
	}
	retired = nil
	p2.observe = func(d *dynInst) { retired = append(retired, *d) }
	if _, err := p2.Run(); err != nil {
		t.Fatal(err)
	}
	if retired[2].master.issueCycle >= retired[1].master.issueCycle {
		t.Errorf("unordered mode still serialized the aliased load")
	}
}

func TestSpillReloadOrderedAfterSpillStore(t *testing.T) {
	// Spill code uses statically-known addresses; the reload must observe
	// the spill store through the same mechanism.
	cfg := perfectCaches(SingleCluster8Way())
	slotAddr := isa.SpillAddr(0)
	instrs := []isa.Instruction{
		{Op: isa.MUL, Dst: r(2), Src1: isa.RegZero, Src2: isa.RegZero, MemID: -1, BrID: -1},
		{Op: isa.STW, Src1: isa.RegZero, Src2: r(2), MemID: 0, BrID: -1},
		{Op: isa.LDW, Dst: r(4), Src1: isa.RegZero, MemID: 1, BrID: -1},
	}
	es := []trace.Entry{
		{Index: 0, Instr: &instrs[0]},
		{Index: 1, Instr: &instrs[1], Addr: slotAddr},
		{Index: 2, Instr: &instrs[2], Addr: slotAddr},
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
	if retired[2].master.issueCycle < retired[1].master.issueCycle+1 {
		t.Error("spill reload issued before its spill store")
	}
}
