package core

import (
	"fmt"

	"multicluster/internal/bpred"
	"multicluster/internal/cache"
	"multicluster/internal/isa"
	"multicluster/internal/trace"
)

// Processor is one configured machine instance. Create with New, run one
// trace with Run; a Processor is not reusable across runs and not safe for
// concurrent use.
type Processor struct {
	cfg    Config
	icache *cache.Cache
	dcache *cache.Cache
	pred   *bpred.Predictor

	// Per-cluster machine state. Queue and rename entries name
	// instructions by seq (see at). The rename table is a dense array
	// indexed directly by architectural register number (Reg values are
	// 1..NumRegs; entry 0 is RegNone and stays noInst). minWake[c] is at
	// most the least wake bound in queue[c], so the issue scan can pass
	// over a cluster with nothing due.
	queue    [2][]queueEntry
	minWake  [2]int64
	rename   [2][isa.NumRegs + 1]int64
	freeRegs [2][2]int // [cluster][0 int, 1 fp]
	divFree  [2][]int64

	// Transfer-buffer occupancy, maintained incrementally: doIssue adds
	// entries as they are claimed, and bufEvents (a min-heap of release
	// times) returns them at the cycle the old per-cycle recomputation
	// would first have stopped counting them. Squash frees held entries
	// eagerly; the opHeld/resHeld flags make each free happen exactly once.
	opBufUsed  [2]int
	resBufUsed [2]int
	bufEvents  []bufEvent

	// ring is the active list: instruction seq s lives in slot
	// ring[s&ringMask]. Seqs in [head, nextSeq) are in flight or squashed;
	// older ones have retired or were squashed, and their slots are reused
	// as nextSeq comes round again. The ring doubles when that span
	// outgrows it.
	ring     []dynInst
	ringMask int64
	head     int64 // oldest in-flight seq; nextSeq when none is
	inFlight int   // live (not squashed) instructions in [head, nextSeq)
	// unissued is the seq of the oldest instruction with an unissued
	// copy, advanced lazily (everything before it is fully issued or
	// squashed).
	unissued  int64
	pendingBr []int64

	reader      trace.Reader
	pending     fetchItem
	havePending bool
	// refetch[refetched:] are squashed instructions awaiting refetch;
	// replay rebuilds the list in refetchSpare and swaps the two, so
	// replays reuse their storage.
	refetch      []fetchItem
	refetched    int
	refetchSpare []fetchItem
	traceDone    bool

	// linesTouched is fetch's per-cycle scratch for icache lines already
	// accessed this cycle, kept across cycles to avoid reallocation.
	linesTouched []uint64

	nextSeq      int64
	maxIssuedSeq int64
	cycle        int64

	fetchStallUntil    int64
	fetchStallIsReplay bool

	lastProgress int64

	// reassigns holds the not-yet-applied dynamic-reassignment hints.
	reassigns []Reassignment

	// lastStore maps a word-aligned address to the seq of the youngest
	// store distributed to it, for store→load dependence tracking.
	lastStore map[uint64]int64

	// Buffer-deadlock detection: the sequence number of the oldest
	// instruction with an unissued copy, whether it was blocked purely by
	// transfer-buffer space this cycle, and for how many consecutive
	// cycles that has held.
	oldestUnissuedSeq int64
	bufBlockedNow     bool
	bufBlockedSeq     int64
	bufBlockedRun     int

	stats Stats

	// observe, when set, is called for every retired instruction; used by
	// white-box timing tests and by the pipeline-diagram tooling. The slot
	// is reused later, so observers copy what they keep.
	observe func(*dynInst)

	// probes, when set via SetProbes, receives per-cycle occupancy samples
	// and stall/replay/distribution events (see probes.go). Nil-checked at
	// every site so the disabled cost is a pointer compare.
	probes *Probes
}

// New builds a processor for cfg reading dynamic instructions from r.
func New(cfg Config, r trace.Reader) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Processor{
		cfg:          cfg,
		icache:       cache.MustNew(cfg.ICache),
		dcache:       cache.MustNew(cfg.DCache),
		pred:         bpred.New(cfg.Predictor),
		reader:       r,
		ring:         newRing(ringSize(cfg)),
		maxIssuedSeq: -1,
	}
	p.ringMask = int64(len(p.ring) - 1)
	p.reassigns = append(p.reassigns, cfg.Reassignments...)
	if !cfg.UnorderedMemory {
		p.lastStore = make(map[uint64]int64)
	}
	if cfg.CollectProfile {
		p.stats.Profile = make(map[int]PCStat)
	}
	for c := 0; c < cfg.Clusters; c++ {
		p.resetRename(c)
		p.divFree[c] = make([]int64, cfg.Rules.FPDiv)
		p.freeRegs[c][0] = cfg.IntRegs - p.backedRegs(c, false)
		p.freeRegs[c][1] = cfg.FPRegs - p.backedRegs(c, true)
		if p.freeRegs[c][0] <= 0 || p.freeRegs[c][1] <= 0 {
			return nil, fmt.Errorf("core: cluster %d has no free physical registers after backing the architectural state", c)
		}
	}
	return p, nil
}

// backedRegs counts the architectural registers whose committed values a
// cluster must hold in physical registers: its locals plus the globals
// (zero registers are hardwired, not renamed).
func (p *Processor) backedRegs(c int, fp bool) int {
	if p.cfg.Clusters == 1 {
		if fp {
			return isa.NumFPRegs - 1 // f31 is hardwired zero
		}
		return isa.NumIntRegs - 1
	}
	n := len(p.cfg.Assignment.LocalRegs(c, fp))
	for _, g := range p.cfg.Assignment.Globals() {
		if g.IsFP() == fp && !g.IsZero() {
			n++
		}
	}
	return n
}

// Run simulates until the trace is exhausted and the machine drains, or
// until MaxCycles. It returns the accumulated statistics.
func (p *Processor) Run() (Stats, error) {
	maxCycles := p.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = int64(1) << 62
	}
	p.stats.Stop = StopTraceEnd
	for {
		if p.drained() {
			break
		}
		if p.cycle >= maxCycles {
			p.stats.Stop = StopMaxCycles
			break
		}
		if err := p.step(); err != nil {
			return p.stats, err
		}
	}
	p.stats.Cycles = p.cycle
	p.stats.ICache = p.icache.Stats()
	p.stats.DCache = p.dcache.Stats()
	p.stats.Predictor = p.pred.Stats()
	return p.stats, nil
}

func (p *Processor) drained() bool {
	return p.traceDone && !p.havePending && p.refetched == len(p.refetch) && p.inFlight == 0
}

// noInst is the seq-handle of no instruction.
const noInst = -1

// ringSize is the ring's first capacity: the smallest power of two
// covering every dispatch-queue entry and physical register. Only
// destination-less instructions piling up behind a stalled oldest one, or
// squashed seqs, can stretch the window past it (see claimSlot).
func ringSize(cfg Config) int {
	n := 1
	for n < cfg.Clusters*(cfg.QueueSize+cfg.IntRegs+cfg.FPRegs) {
		n <<= 1
	}
	return n
}

// newRing allocates n empty slots; an empty slot's seq matches no handle.
func newRing(n int) []dynInst {
	r := make([]dynInst, n)
	for i := range r {
		r[i].seq = noInst
	}
	return r
}

// at returns the slot of seq h. For h in [head, nextSeq) the slot holds
// h; an older h has left the window, and its slot holds h only until it
// is reused, so callers holding such a handle check the slot's seq.
func (p *Processor) at(h int64) *dynInst { return &p.ring[h&p.ringMask] }

// claimSlot returns the slot for seq nextSeq, first doubling the ring if
// the window [head, nextSeq] would not fit. Growing moves only the
// window's slots; handles stay valid because they are seqs.
func (p *Processor) claimSlot() *dynInst {
	if p.nextSeq-p.head >= int64(len(p.ring)) {
		old, oldMask := p.ring, p.ringMask
		p.ring = newRing(2 * len(old))
		p.ringMask = int64(len(p.ring) - 1)
		for s := p.head; s < p.nextSeq; s++ {
			p.ring[s&p.ringMask] = old[s&oldMask]
		}
	}
	return p.at(p.nextSeq)
}

// resetRename maps every architectural register of cluster c to its
// committed value.
func (p *Processor) resetRename(c int) {
	for r := range p.rename[c] {
		p.rename[c][r] = noInst
	}
}

// oldestUnissued advances the unissued cursor past fully-issued and
// squashed instructions and returns the oldest one with an unissued copy,
// or nil. Retire never passes an instruction with an unissued copy, so
// the cursor never falls behind head.
func (p *Processor) oldestUnissued() *dynInst {
	for ; p.unissued < p.nextSeq; p.unissued++ {
		if d := p.at(p.unissued); !d.squashed && !d.allIssued() {
			return d
		}
	}
	return nil
}

// youngestBlocked reports whether the oldest unissued instruction is also
// the youngest in flight.
func (p *Processor) youngestBlocked() bool {
	s := p.nextSeq - 1
	for s >= p.head && p.at(s).squashed {
		s--
	}
	return s < p.head || s <= p.oldestUnissuedSeq
}

// queueLen returns cluster c's dispatch-queue occupancy.
func (p *Processor) queueLen(c int) int { return len(p.queue[c]) }

// activeLen returns the number of instructions in the active window.
func (p *Processor) activeLen() int { return p.inFlight }

// step advances the machine one cycle: resolve branches, release expired
// transfer-buffer entries, retire, issue, fetch/distribute, then check the
// replay watchdog.
func (p *Processor) step() error {
	t := p.cycle
	progress := false

	p.resolveBranches(t)
	p.releaseBufferEntries(t)

	p.oldestUnissuedSeq = -1
	if d := p.oldestUnissued(); d != nil {
		p.oldestUnissuedSeq = d.seq
	}
	p.bufBlockedNow = false

	if p.retire(t) {
		progress = true
	}
	for c := 0; c < p.cfg.Clusters; c++ {
		if p.issueCluster(c, t) {
			progress = true
		}
		p.stats.Cluster[c].QueueOccupancySum += int64(len(p.queue[c]))
	}
	// Sample occupancy here — the same post-issue, pre-fetch point the
	// QueueOccupancySum stat accumulates at — so the probed distribution
	// integrates to exactly the pinned mean.
	if p.probes != nil {
		p.probeCycle(t)
	}
	if p.fetch(t) {
		progress = true
	}

	// Precise replay trigger: the oldest unissued instruction has been
	// blocked purely by transfer-buffer space for several consecutive
	// cycles. The entries it needs are necessarily held by younger
	// instructions, so this cannot resolve on its own (§2.1).
	if p.bufBlockedNow && p.oldestUnissuedSeq == p.bufBlockedSeq {
		p.bufBlockedRun++
	} else if p.bufBlockedNow {
		p.bufBlockedSeq = p.oldestUnissuedSeq
		p.bufBlockedRun = 1
	} else {
		p.bufBlockedRun = 0
	}

	switch {
	case p.bufBlockedRun >= bufferBlockCycles && !p.youngestBlocked():
		if err := p.replay(t); err != nil {
			return err
		}
		p.bufBlockedRun = 0
		p.lastProgress = t
	case p.bufBlockedRun >= bufferBlockCycles:
		// The blocked instruction is the youngest in flight, so the buffer
		// entries it needs are held by *older* instructions — a bounded
		// transient that drains as they complete, not the §2.1 deadlock
		// (which needs younger holders). Squashing could not help; keep
		// waiting and let the generic watchdog catch real deadlocks.
		p.bufBlockedRun = 0
	case progress:
		p.lastProgress = t
	case p.inFlight > 0 && t-p.lastProgress >= int64(p.cfg.ReplayWatchdog):
		if err := p.replay(t); err != nil {
			return err
		}
		p.lastProgress = t
	}
	p.cycle++
	return nil
}

// resolveBranches trains the predictor at branch execution time and prunes
// settled entries. Mispredicted branches block fetch until one cycle after
// resolution (the machine would have been fetching the wrong path).
func (p *Processor) resolveBranches(t int64) {
	kept := p.pendingBr[:0]
	for _, h := range p.pendingBr {
		b := p.at(h)
		if b.seq != h || b.squashed {
			continue // squashed, or retired long enough that its slot was reused
		}
		if !b.resolved && b.master.issued && b.resultCycle <= t {
			b.resolved = true
			p.pred.Update(b.snap, b.taken)
			if b.mispredicted {
				p.stats.Mispredicts++
				p.stats.MispredResolveSum += b.resultCycle - b.master.distributedAt
			}
		}
		if b.resolved && b.resultCycle+1 <= t {
			continue // settled; fetch no longer blocked by it
		}
		kept = append(kept, h)
	}
	p.pendingBr = kept
}

// fetchBlockedByBranch reports whether a mispredicted branch still gates
// fetch at cycle t. The branch may have retired this cycle; its slot still
// holds it, because only distribution reuses slots and resolveBranches
// dropped every entry whose slot was reused.
func (p *Processor) fetchBlockedByBranch(t int64) bool {
	for _, h := range p.pendingBr {
		if b := p.at(h); b.mispredicted && (!b.resolved || b.resultCycle+1 > t) {
			return true
		}
	}
	return false
}

// bufEvent schedules the return of one instruction's transfer-buffer
// claim: its operand entries (op) or its result entry (!op) stop counting
// against occupancy from cycle `when` on.
type bufEvent struct {
	when int64
	seq  int64
	op   bool
}

// pushBufEvent schedules a release on the min-heap.
func (p *Processor) pushBufEvent(when, seq int64, op bool) {
	h := append(p.bufEvents, bufEvent{when, seq, op})
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if h[parent].when <= h[i].when {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	p.bufEvents = h
}

// releaseBufferEntries frees every transfer-buffer claim whose release
// time has arrived, at the start of cycle t. Claims already freed by a
// squash are skipped via the held flags, or via the seq check once the
// squashed instruction's slot is reused (every claim of a retired
// instruction is due no later than its done cycle, so it is returned
// before the instruction retires). Operand entries are occupied
// from slave issue through master issue inclusive (released the cycle
// after the master reads them); result entries from master issue through
// the consuming slave's issue (scenarios 3/4) or through the result's
// arrival (scenario 5, the suspended slave).
func (p *Processor) releaseBufferEntries(t int64) {
	h := p.bufEvents
	for len(h) > 0 && h[0].when <= t {
		e := h[0]
		n := len(h) - 1
		h[0] = h[n]
		h = h[:n]
		for i := 0; ; {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].when < h[l].when {
				l = r
			}
			if h[i].when <= h[l].when {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		if d := p.at(e.seq); d.seq == e.seq {
			p.releaseHeld(d, e.op)
		}
	}
	p.bufEvents = h
}

// releaseHeld returns one instruction's operand or result buffer claim,
// exactly once.
func (p *Processor) releaseHeld(d *dynInst, op bool) {
	if op {
		if d.opHeld {
			p.opBufUsed[d.master.cluster] -= d.master.fwdOperands
			d.opHeld = false
		}
	} else if d.resHeld {
		p.resBufUsed[d.slave.cluster]--
		d.resHeld = false
	}
}

// retire commits completed instructions in program order, up to
// RetireWidth per cycle, releasing the physical registers of the previous
// mappings of their destinations.
func (p *Processor) retire(t int64) bool {
	n := 0
	for n < p.cfg.RetireWidth && p.inFlight > 0 {
		d := p.at(p.head)
		if !d.retireReady(t) {
			break
		}
		p.inFlight--
		p.head++
		for p.head < p.nextSeq && p.at(p.head).squashed {
			p.head++ // squashed seqs leave the window with their elder
		}
		// Drop the store-ordering entry once the store leaves the window,
		// so the map only ever names in-flight instructions.
		if p.lastStore != nil && d.in.Op.Class() == isa.ClassStore && p.lastStore[d.addr&^7] == d.seq {
			delete(p.lastStore, d.addr&^7)
		}
		if d.destReg != isa.RegNone {
			fp := bIdx(d.destReg.IsFP())
			for c := 0; c < p.cfg.Clusters; c++ {
				if d.renamed[c] {
					p.freeRegs[c][fp]++
				}
			}
		}
		p.stats.Instructions++
		if d.isCondBr {
			p.stats.CondBranches++
		}
		if p.stats.Profile != nil {
			pc := p.stats.Profile[d.idx]
			pc.Count++
			pc.IssueDelaySum += d.master.issueCycle - d.master.distributedAt
			if d.dual {
				pc.DualCount++
			}
			if d.isCondBr && d.mispredicted {
				pc.Mispredicts++
			}
			p.stats.Profile[d.idx] = pc
		}
		if p.observe != nil {
			p.observe(d)
		}
		n++
	}
	return n > 0
}
