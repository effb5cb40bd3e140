package core

import (
	"math/rand"
	"reflect"
	"testing"

	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

// TestAllocsIndependentOfTraceLength pins that the simulator allocates per
// run, not per instruction: instructions live in the processor's ring, so
// New+Run over 80k instructions allocates within a small constant of the
// same run over 20k. The count is exact, so the test has no timing noise.
func TestAllocsIndependentOfTraceLength(t *testing.T) {
	// slack absorbs the few ring doublings and map growths a longer run
	// may add; per-instruction allocation would add thousands.
	const slack = 16
	rng := rand.New(rand.NewSource(1))
	_, entries := randomStream(rng, 80_000)
	solo := func(cfg Config) func([]trace.Entry) {
		return func(es []trace.Entry) {
			p, err := New(cfg, &trace.SliceReader{Entries: es})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		run  func([]trace.Entry)
	}{
		{"single8", solo(SingleCluster8Way())},
		{"dual4x2", solo(DualCluster4Way())},
		{"batch", func(es []trace.Entry) {
			cfgs := []Config{SingleCluster8Way(), DualCluster4Way()}
			if _, err := RunBatch(cfgs, sliceSource{entries: es}); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		short := testing.AllocsPerRun(1, func() { c.run(entries[:20_000]) })
		long := testing.AllocsPerRun(1, func() { c.run(entries) })
		if long > short+slack {
			t.Errorf("%s: %.0f allocations at 80k instructions vs %.0f at 20k; allocation grows with trace length", c.name, long, short)
		}
	}
}

// TestRingGrowsPastFirstSize holds the oldest instruction on a chain of
// non-pipelined FP divides while stores and branches, which have no
// destination register, issue behind it. Once issued they hold neither a
// queue entry nor a register, so the window outgrows the ring's first
// size; the ring must double without disturbing the machine.
func TestRingGrowsPastFirstSize(t *testing.T) {
	f := isa.FPReg
	var instrs []isa.Instruction
	for i := 0; i < 32; i++ {
		instrs = append(instrs, isa.Instruction{Op: isa.FDIVD, Dst: f(1), Src1: f(1), Src2: f(2), MemID: -1, BrID: -1})
	}
	for i := 0; i < 3000; i++ {
		if i%16 == 15 {
			instrs = append(instrs, isa.Instruction{Op: isa.BNE, Src1: r(2), MemID: -1, BrID: i})
		} else {
			// Both sources in one cluster (alternating), so the dual
			// machine's stores need no transfer buffer.
			c := i % 2
			instrs = append(instrs, isa.Instruction{Op: isa.STW, Src1: r(2 + c), Src2: r(4 + c), MemID: i, BrID: -1})
		}
	}
	es := make([]trace.Entry, len(instrs))
	for i := range instrs {
		es[i] = trace.Entry{Index: i, Instr: &instrs[i], Addr: uint64(i) * 8}
	}
	for _, cfg := range []Config{SingleCluster8Way(), DualCluster4Way()} {
		cfg = perfectCaches(cfg) // the stream is straight-line code: keep fetch fed
		cfg.MaxCycles = 1_000_000
		machineInvariants(t, cfg, es)

		p, err := New(cfg, &trace.SliceReader{Entries: es})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if first := ringSize(cfg); len(p.ring) <= first {
			t.Errorf("%d clusters: ring stayed at %d slots (first size %d); the window never outgrew it", cfg.Clusters, len(p.ring), first)
		}
	}
}

// TestRingGrowthIsInvisible starts the ring at two slots, so it doubles
// repeatedly, with squashed seqs inside the window under starved transfer
// buffers. Every invariant must hold and the statistics must match a run
// on the default ring exactly.
func TestRingGrowthIsInvisible(t *testing.T) {
	starved := DualCluster4Way()
	starved.OperandBuffer, starved.ResultBuffer = 1, 1
	sawReplay := false
	for seed := int64(100); seed < 105; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, entries := randomStream(rng, 3000)
		for _, cfg := range []Config{SingleCluster8Way(), DualCluster4Way(), starved} {
			cfg.MaxCycles = 4_000_000
			want := machineInvariants(t, cfg, entries)

			p, err := New(cfg, &trace.SliceReader{Entries: entries})
			if err != nil {
				t.Fatal(err)
			}
			p.ring, p.ringMask = newRing(2), 1
			got := runInvariants(t, p, int64(len(entries)))
			if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
				t.Errorf("seed %d, %d clusters: a growing ring changed the statistics", seed, cfg.Clusters)
			}
			sawReplay = sawReplay || got.Replays > 0
		}
	}
	if !sawReplay {
		t.Error("no replays: growth with squashed seqs in the window went unexercised")
	}
}

// TestStaleHandlesReadAsRetired pins the handle contract for the two
// references that can outlive an instruction's slot: a buffer-release
// event of a squashed instruction and a pending-branch entry. Once the
// slot holds a different seq, the handle must read as gone rather than
// act on the slot's new occupant.
func TestStaleHandlesReadAsRetired(t *testing.T) {
	p, err := New(DualCluster4Way(), &trace.SliceReader{})
	if err != nil {
		t.Fatal(err)
	}
	const stale = 5
	d := p.at(stale)
	*d = dynInst{seq: stale + int64(len(p.ring)), opHeld: true, mispredicted: true}
	d.master.fwdOperands = 1
	p.opBufUsed[0] = 1

	p.pushBufEvent(0, stale, true)
	p.releaseBufferEntries(0)
	if !d.opHeld || p.opBufUsed[0] != 1 {
		t.Error("a stale release event freed the new occupant's operand-buffer entry")
	}

	p.pendingBr = append(p.pendingBr, stale)
	p.resolveBranches(0)
	if len(p.pendingBr) != 0 {
		t.Error("a stale pending-branch entry survived resolveBranches")
	}
}
