package core

import (
	"fmt"

	"multicluster/internal/isa"
)

// fetch runs the fetch/distribute stage for cycle t: up to FetchWidth
// instructions are pulled (refetch queue first, then the trace), checked
// against the instruction cache, and distributed to dispatch queues in
// fetch order. Fetch stops at the first taken control flow, the first
// mispredicted branch, an instruction-cache miss, or a structural stall
// (queue or register file full), whichever comes first.
func (p *Processor) fetch(t int64) bool {
	if t < p.fetchStallUntil {
		if p.fetchStallIsReplay {
			p.stats.Fetch.Replay++
			p.probeStall(StallReplay)
		} else {
			p.stats.Fetch.ICacheMiss++
			p.probeStall(StallICacheMiss)
		}
		return false
	}
	if p.fetchBlockedByBranch(t) {
		p.stats.Fetch.Mispredict++
		p.probeStall(StallMispredict)
		return false
	}

	fetched := 0
	lineMask := uint64(p.icache.LineSize() - 1)
	linesTouched := p.linesTouched[:0]
	for fetched < p.cfg.FetchWidth {
		item := p.peekItem()
		if item == nil {
			break
		}
		// Dynamic reassignment hint: serialize, migrate, switch.
		if len(p.reassigns) > 0 {
			if r, ok := p.pendingReassign(item.idx); ok {
				if p.inFlight > 0 || fetched > 0 {
					p.stats.Reassign.DrainCycles++
					break // drain before switching
				}
				p.fetchStallUntil = p.applyReassign(r, t)
				p.fetchStallIsReplay = false
				break
			}
		}
		// Instruction-cache access, once per line per cycle.
		pc := isa.PCOf(item.idx)
		line := pc &^ lineMask
		touched := false
		for _, l := range linesTouched {
			if l == line {
				touched = true
				break
			}
		}
		if !touched {
			if extra := p.icache.Access(pc, t); extra > 0 {
				p.fetchStallUntil = t + int64(extra)
				p.fetchStallIsReplay = false
				if fetched == 0 {
					p.stats.Fetch.ICacheMiss++
					p.probeStall(StallICacheMiss)
				}
				break
			}
			linesTouched = append(linesTouched, line)
		}

		pl := p.plan(item.in)
		ok, queueFull, regsFull := p.canDistribute(item.in, pl)
		if !ok {
			if fetched == 0 {
				if queueFull {
					p.stats.Fetch.QueueFull++
					p.probeStall(StallQueueFull)
				} else if regsFull {
					p.stats.Fetch.RegsFull++
					p.probeStall(StallRegsFull)
				}
			}
			break
		}

		d := p.distribute(*item, pl, t)
		p.consumeItem()
		fetched++

		// Fetch discontinuities end the cycle's fetch group; a mispredicted
		// conditional branch blocks fetch entirely until it resolves (the
		// machine would be fetching the wrong path).
		if d.isCondBr && d.mispredicted {
			break
		}
		if item.in.Op.IsControl() && item.taken {
			break
		}
	}
	p.linesTouched = linesTouched
	return fetched > 0
}

// peekItem returns the next instruction to distribute without consuming it:
// replayed instructions first, then the trace. The returned pointer is into
// the processor's pending slot, valid until the next peek.
func (p *Processor) peekItem() *fetchItem {
	if p.havePending {
		return &p.pending
	}
	if p.refetched < len(p.refetch) {
		p.pending = p.refetch[p.refetched]
		p.refetched++
		p.havePending = true
		return &p.pending
	}
	if p.traceDone {
		return nil
	}
	e, ok := p.reader.Next()
	if !ok {
		p.traceDone = true
		return nil
	}
	p.pending = fetchItem{idx: e.Index, in: e.Instr, addr: e.Addr, taken: e.Taken}
	p.havePending = true
	return &p.pending
}

func (p *Processor) consumeItem() { p.havePending = false }

// replay raises an instruction-replay exception (§2.1): the oldest
// instruction with an unissued copy is blocked — in a correctly-sized
// machine this can only persist when transfer-buffer entries are held by
// younger instructions — so every younger instruction is squashed,
// releasing their queue entries, physical registers, and buffer entries,
// and is refetched after a short restart penalty.
func (p *Processor) replay(t int64) error {
	oldest := p.oldestUnissued()
	if oldest == nil {
		return errDeadlock(p, t, "no unissued instruction")
	}
	// Squash every live instruction younger than the blocked one, and
	// refetch them in program order, ahead of any not-yet-fetched pending
	// instruction and the rest of the trace.
	items := p.refetchSpare[:0]
	for s := oldest.seq + 1; s < p.nextSeq; s++ {
		if d := p.at(s); !d.squashed {
			items = append(items, fetchItem{idx: d.idx, in: d.in, addr: d.addr, taken: d.taken})
		}
	}
	victims := len(items)
	if victims == 0 {
		return errDeadlock(p, t, "blocked instruction has no younger instructions to squash")
	}

	// Undo youngest-first so rename tables unwind correctly.
	for s := p.nextSeq - 1; s > oldest.seq; s-- {
		d := p.at(s)
		if d.squashed {
			continue
		}
		d.squashed = true
		if d.destReg != isa.RegNone {
			fp := bIdx(d.destReg.IsFP())
			for c := 0; c < p.cfg.Clusters; c++ {
				if d.renamed[c] {
					p.rename[c][d.destReg] = d.prevProd[c]
					p.freeRegs[c][fp]++
				}
			}
		}
		// Return any transfer-buffer entries the victim still holds.
		p.releaseHeld(d, true)
		p.releaseHeld(d, false)
		p.stats.ReplayedInstructions++
	}
	p.inFlight -= victims
	// Remove squashed copies from the dispatch queues. The survivors are
	// older than every victim, so their wake bounds (and minWake) stand.
	for c := 0; c < p.cfg.Clusters; c++ {
		kept := p.queue[c][:0]
		for _, e := range p.queue[c] {
			if !p.at(e.seq).squashed {
				kept = append(kept, e)
			}
		}
		p.queue[c] = kept
	}
	// Squashed-branch entries are pruned by resolveBranches; stale buffer
	// release events are ignored when they fire (releaseBufferEntries).

	if p.havePending {
		items = append(items, p.pending)
		p.havePending = false
	}
	items = append(items, p.refetch[p.refetched:]...)
	p.refetchSpare, p.refetch, p.refetched = p.refetch, items, 0

	p.fetchStallUntil = t + int64(p.cfg.ReplayPenalty)
	p.fetchStallIsReplay = true
	p.stats.Replays++
	if p.probes != nil && p.probes.Replay != nil {
		p.probes.Replay(victims)
	}
	return nil
}

func errDeadlock(p *Processor, t int64, why string) error {
	return &DeadlockError{Cycle: t, InFlight: p.inFlight, Why: why}
}

// DeadlockError reports a machine state the replay mechanism cannot
// recover, which indicates a modelling bug rather than a workload property.
type DeadlockError struct {
	Cycle    int64
	InFlight int
	Why      string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("core: unrecoverable stall at cycle %d with %d in flight: %s", e.Cycle, e.InFlight, e.Why)
}
