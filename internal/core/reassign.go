package core

import "multicluster/internal/isa"

// Dynamic reassignment of architectural registers (§6 of the paper, built
// on the hardware mechanism of [3]): the compiler marks program points
// where the register-to-cluster assignment may change and supplies the new
// assignment. The machine serializes at the hint — fetch stalls until the
// pipeline drains — migrates the committed values of every register whose
// home cluster changes, and resumes under the new assignment.
//
// Reassignment points are keyed by static instruction index and fire once,
// the first time fetch reaches them (the intended use is phase changes, not
// per-iteration flapping).

// Reassignment is one compiler-provided hint.
type Reassignment struct {
	// AtIndex is the static instruction index the hint is attached to; the
	// switch happens before that instruction is distributed.
	AtIndex int `json:"at_index"`
	// To is the assignment to switch to.
	To isa.Assignment `json:"to"`
}

// ReassignStats counts dynamic-reassignment activity.
type ReassignStats struct {
	// Applied is the number of hints taken.
	Applied int64 `json:"applied"`
	// DrainCycles counts fetch-stall cycles spent waiting for the pipeline
	// to empty before a switch.
	DrainCycles int64 `json:"drain_cycles"`
	// MigratedRegs counts architectural registers whose committed values
	// were copied between clusters.
	MigratedRegs int64 `json:"migrated_regs"`
	// MigrateCycles counts the cycles those copies took.
	MigrateCycles int64 `json:"migrate_cycles"`
}

// migrateBandwidth is how many register values cross between clusters per
// cycle during a reassignment switch (one transfer each way, matching the
// transfer-buffer datapaths).
const migrateBandwidth = 2

// pendingReassign returns the hint attached to the given static index, if
// any remains.
func (p *Processor) pendingReassign(idx int) (Reassignment, bool) {
	for _, r := range p.reassigns {
		if r.AtIndex == idx {
			return r, true
		}
	}
	return Reassignment{}, false
}

// applyReassign performs the switch at cycle t, assuming the machine has
// drained. It returns the cycle fetch may resume.
func (p *Processor) applyReassign(r Reassignment, t int64) int64 {
	moved := 0
	old := p.cfg.Assignment
	for n := 0; n < isa.NumRegs; n++ {
		reg := isa.RegFromOrdinal(n)
		if reg.IsZero() {
			continue
		}
		oldGlobal, newGlobal := old.IsGlobal(reg), r.To.IsGlobal(reg)
		switch {
		case oldGlobal && newGlobal:
			// Copies already everywhere.
		case oldGlobal != newGlobal:
			moved++ // promote or demote: one copy crosses
		case old.Home(reg) != r.To.Home(reg):
			moved++
		}
	}
	p.cfg.Assignment = r.To
	// Committed state moved between register files; the rename tables hold
	// no in-flight producers after the drain, so clearing them makes
	// lookups under the new homes correctly see architectural values.
	for c := 0; c < p.cfg.Clusters; c++ {
		p.resetRename(c)
		p.freeRegs[c][0] = p.cfg.IntRegs - p.backedRegs(c, false)
		p.freeRegs[c][1] = p.cfg.FPRegs - p.backedRegs(c, true)
	}
	// Drop the applied hint.
	kept := p.reassigns[:0]
	for _, h := range p.reassigns {
		if h.AtIndex != r.AtIndex {
			kept = append(kept, h)
		}
	}
	p.reassigns = kept

	cost := int64((moved + migrateBandwidth - 1) / migrateBandwidth)
	p.stats.Reassign.Applied++
	p.stats.Reassign.MigratedRegs += int64(moved)
	p.stats.Reassign.MigrateCycles += cost
	return t + cost
}
