// Package core implements the cycle-level multicluster processor simulator
// of the paper: a dynamically-scheduled, superscalar machine whose register
// files, dispatch queues, and functional units can be partitioned across
// clusters, with dual-distributed instructions cooperating through operand
// and result transfer buffers (§2). A single-cluster configuration models
// the paper's baseline; a dual-cluster configuration models the proposed
// architecture.
package core

import (
	"fmt"

	"multicluster/internal/bpred"
	"multicluster/internal/cache"
	"multicluster/internal/isa"
)

// Config describes one processor configuration. Per-cluster quantities
// (QueueSize, IntRegs, FPRegs, Rules, buffers) apply to each cluster.
type Config struct {
	// Clusters is 1 (the paper's baseline) or 2 (the multicluster).
	Clusters int `json:"clusters"`
	// Assignment maps architectural registers to clusters; ignored when
	// Clusters is 1.
	Assignment isa.Assignment `json:"assignment"`
	// FetchWidth is the maximum instructions fetched and distributed per
	// cycle (12 in the paper).
	FetchWidth int `json:"fetch_width"`
	// RetireWidth is the maximum instructions retired per cycle (8).
	RetireWidth int `json:"retire_width"`
	// QueueSize is the dispatch-queue capacity per cluster (128 single,
	// 64 per cluster dual).
	QueueSize int `json:"queue_size"`
	// IntRegs and FPRegs are the physical register file sizes per cluster
	// (128/128 single, 64/64 per cluster dual).
	IntRegs int `json:"int_regs"`
	FPRegs  int `json:"fp_regs"`
	// Rules are the per-cluster issue limits (Table 1).
	Rules isa.IssueRules `json:"rules"`
	// OperandBuffer and ResultBuffer are the per-cluster transfer buffer
	// capacities (8 and 8).
	OperandBuffer int `json:"operand_buffer"`
	ResultBuffer  int `json:"result_buffer"`
	// ICache and DCache configure the caches (64 KB two-way, 16-cycle
	// memory latency).
	ICache cache.Config `json:"icache"`
	DCache cache.Config `json:"dcache"`
	// Predictor configures the McFarling combining predictor.
	Predictor bpred.Config `json:"predictor"`
	// LoadDelaySlots is the number of load-delay slots (1 in Table 1).
	LoadDelaySlots int `json:"load_delay_slots"`
	// ReplayWatchdog is the number of consecutive cycles without any
	// issue, retire, or distribution before an instruction-replay
	// exception is raised to break a transfer-buffer deadlock.
	ReplayWatchdog int `json:"replay_watchdog"`
	// ReplayPenalty is the fetch-restart penalty of a replay exception.
	ReplayPenalty int `json:"replay_penalty"`
	// MaxCycles aborts runaway simulations; zero means no limit.
	MaxCycles int64 `json:"max_cycles"`
	// MasterSelect chooses how the master cluster of a dual-distributed
	// instruction is picked; the zero value is MasterMajority, the paper's
	// policy.
	MasterSelect MasterPolicy `json:"master_select"`
	// Reassignments are compiler hints for dynamic register reassignment
	// (§6); empty for the paper's static-assignment evaluation.
	Reassignments []Reassignment `json:"reassignments,omitempty"`
	// UnorderedMemory disables store→load dependence tracking. By default
	// a load whose address matches an older in-flight store waits until
	// one cycle after that store issues (store-queue forwarding); with
	// UnorderedMemory the load issues regardless, the most aggressive
	// reading of the paper's "all instructions may be speculatively
	// executed".
	UnorderedMemory bool `json:"unordered_memory,omitempty"`
	// CollectProfile enables per-static-instruction execution counters
	// (execution count, accumulated issue delay, mispredicts), retrievable
	// from Stats.Profile after the run.
	CollectProfile bool `json:"collect_profile,omitempty"`
	// UnifiedBuffer merges each cluster's operand and result transfer
	// buffers into one pool of OperandBuffer+ResultBuffer entries. The
	// paper keeps them separate "to reduce implementation complexity and
	// to reduce the number of times an instruction-replay exception is
	// required" (§2.1); this knob exists to measure that choice.
	UnifiedBuffer bool `json:"unified_buffer,omitempty"`
}

// MasterPolicy selects the cluster that executes the computation of a
// dual-distributed instruction.
type MasterPolicy uint8

const (
	// MasterMajority picks the cluster holding the majority of the named
	// local registers (the paper's policy; ties break toward the less
	// loaded cluster).
	MasterMajority MasterPolicy = iota
	// MasterFirstSource picks the home cluster of the first local source
	// register (destination-blind), an ablation baseline.
	MasterFirstSource
	// MasterAlternate alternates clusters regardless of operand placement,
	// maximizing transfers; the pathological baseline.
	MasterAlternate
)

func (m MasterPolicy) String() string {
	switch m {
	case MasterFirstSource:
		return "first-source"
	case MasterAlternate:
		return "alternate"
	default:
		return "majority"
	}
}

// MarshalText implements encoding.TextMarshaler using the String form.
func (m MasterPolicy) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *MasterPolicy) UnmarshalText(text []byte) error {
	switch string(text) {
	case "majority", "":
		*m = MasterMajority
	case "first-source":
		*m = MasterFirstSource
	case "alternate":
		*m = MasterAlternate
	default:
		return fmt.Errorf("core: unknown master policy %q", text)
	}
	return nil
}

// bufferBlockCycles is how long the oldest unissued instruction must sit
// blocked purely on transfer-buffer space before an instruction-replay
// exception fires. Short, because the condition is exact: the blocking
// entries belong to younger instructions and can never drain first.
const bufferBlockCycles = 4

// SingleCluster8Way returns the paper's baseline: an eight-way issue,
// single-cluster processor with a 128-entry dispatch queue and 128+128
// physical registers.
func SingleCluster8Way() Config {
	return Config{
		Clusters:       1,
		Assignment:     isa.DefaultAssignment(),
		FetchWidth:     12,
		RetireWidth:    8,
		QueueSize:      128,
		IntRegs:        128,
		FPRegs:         128,
		Rules:          isa.SingleClusterRules(),
		OperandBuffer:  8,
		ResultBuffer:   8,
		ICache:         cache.Default64K(),
		DCache:         cache.Default64K(),
		Predictor:      bpred.DefaultConfig(),
		LoadDelaySlots: 1,
		ReplayWatchdog: 64,
		ReplayPenalty:  4,
	}
}

// DualCluster4Way returns the paper's dual-cluster processor: two four-way
// clusters with 64-entry dispatch queues, 64+64 physical registers, and
// eight-entry operand and result transfer buffers per cluster.
func DualCluster4Way() Config {
	cfg := SingleCluster8Way()
	cfg.Clusters = 2
	cfg.QueueSize = 64
	cfg.IntRegs = 64
	cfg.FPRegs = 64
	cfg.Rules = isa.DualClusterRules()
	return cfg
}

// SingleCluster4Way returns the four-way single-cluster configuration used
// alongside the Palacharla cycle-time anchors. Its aggregate resources
// match DualCluster2Way: a 64-entry queue and 96+96 physical registers
// (each two-way cluster needs at least ~34 registers to back the
// architectural state, so the aggregate register file cannot shrink all
// the way to 64).
func SingleCluster4Way() Config {
	cfg := SingleCluster8Way()
	cfg.QueueSize = 64
	cfg.IntRegs = 96
	cfg.FPRegs = 96
	cfg.Rules = isa.FourWaySingleRules()
	return cfg
}

// DualCluster2Way returns a dual-cluster machine of aggregate width four,
// resource-matched to SingleCluster4Way.
func DualCluster2Way() Config {
	cfg := DualCluster4Way()
	cfg.QueueSize = 32
	cfg.IntRegs = 48
	cfg.FPRegs = 48
	cfg.Rules = isa.TwoWayDualRules()
	return cfg
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Clusters != 1 && c.Clusters != 2 {
		return fmt.Errorf("core: Clusters must be 1 or 2, got %d", c.Clusters)
	}
	if c.FetchWidth <= 0 || c.RetireWidth <= 0 || c.QueueSize <= 0 {
		return fmt.Errorf("core: non-positive width/queue in %+v", c)
	}
	if err := c.Rules.Validate(); err != nil {
		return err
	}
	// Each cluster must back its visible architectural registers (its
	// locals plus the globals) with physical registers and leave headroom.
	minInt, minFP := 34, 34
	if c.IntRegs < minInt || c.FPRegs < minFP {
		return fmt.Errorf("core: physical register files too small (%d int, %d fp)", c.IntRegs, c.FPRegs)
	}
	if c.Clusters == 2 && (c.OperandBuffer <= 0 || c.ResultBuffer <= 0) {
		return fmt.Errorf("core: dual-cluster configuration needs transfer buffers")
	}
	// The majority policy guarantees at most one forwarded operand per
	// instruction; the ablation policies can demand two distinct ones,
	// which a single-entry buffer could never satisfy.
	if c.Clusters == 2 && c.MasterSelect != MasterMajority && c.OperandBuffer < 2 && !c.UnifiedBuffer {
		return fmt.Errorf("core: master policy %v needs an operand buffer of at least 2 entries", c.MasterSelect)
	}
	if c.ReplayWatchdog <= 0 {
		return fmt.Errorf("core: ReplayWatchdog must be positive")
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("core: negative MaxCycles %d", c.MaxCycles)
	}
	return nil
}
