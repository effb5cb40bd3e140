package sweep

// Batched sweeps: cells of one grid that share a compiled binary and a
// trace artifact — same benchmark, scheduler, window, seed, and budget,
// differing only in machine configuration — are grouped and prewarmed
// through experiment.CachedRunBatch before the individual cells run. The
// batch fills the run memo for every member from one shared trace walk,
// so the cells themselves become cache hits. Prewarming is purely an
// accelerator: cells never wait on it, and a prewarm failure just means
// the affected cells compute individually and report their own errors.

import (
	"encoding/json"

	"multicluster/internal/core"
	"multicluster/internal/experiment"
)

// batchGroup is one prewarmable set: the machine configurations of a grid
// that feed from a single trace artifact.
type batchGroup struct {
	key       string
	benchmark string
	scheduler string
	opts      experiment.Options
	cfgs      []core.Config
}

// batchGroups partitions a grid's specs by experiment.BatchGroupKey,
// keeping only groups where batching buys anything: at least two distinct
// machine configurations over the same artifact. Specs that cannot batch
// (invalid, or budgets beyond the materialization cap) are skipped — the
// cells themselves will report any errors.
func batchGroups(specs []JobSpec) []batchGroup {
	byKey := make(map[string]*batchGroup)
	var order []string
	seen := make(map[string]bool) // group key + machine config, JSON-canonical
	for _, spec := range specs {
		n, err := spec.Normalize()
		if err != nil {
			continue
		}
		cfg, opts, err := n.Resolve()
		if err != nil {
			continue
		}
		key := experiment.BatchGroupKey(n.Benchmark, n.Scheduler, opts)
		if key == "" {
			continue
		}
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			continue
		}
		member := key + "|" + string(cfgJSON)
		if seen[member] {
			continue
		}
		seen[member] = true
		g := byKey[key]
		if g == nil {
			g = &batchGroup{key: key, benchmark: n.Benchmark, scheduler: n.Scheduler, opts: opts}
			byKey[key] = g
			order = append(order, key)
		}
		g.cfgs = append(g.cfgs, cfg)
	}
	var groups []batchGroup
	for _, key := range order {
		if g := byKey[key]; len(g.cfgs) >= 2 {
			groups = append(groups, *g)
		}
	}
	return groups
}

// batchable reports whether prewarming through the experiment batch path
// is sound for this service: the execution kernel must be the real one
// (a test override would be bypassed), computation must be local (a
// cluster routes cells to their owners), and fault injection must be off
// (injected faults target the per-cell path).
func (s *Service) batchable() bool {
	return s.realExec && s.remote == nil && !s.inject.Enabled()
}

// prewarmBatches enqueues one pool task per batch group, attributed to the
// sweep's client with the group's size as its scheduling weight. Within a
// tenant the pool is FIFO, so a prewarm submitted before the cells runs
// before them and they hit the memo; under contention a cell may start
// first and simply join or redo one member's computation — correct either
// way, since batch and solo paths address identical memo entries.
func (s *Service) prewarmBatches(client string, specs []JobSpec) {
	if !s.batchable() {
		return
	}
	for _, g := range batchGroups(specs) {
		g := g
		fn := func() error {
			opts := g.opts
			opts.Probes = s.coreProbes
			// Errors are deliberately dropped: the batch is an accelerator,
			// and each failing member recomputes solo under its own cell
			// with full retry/error accounting.
			_, _ = experiment.CachedRunBatch(g.benchmark, g.scheduler, g.cfgs, opts)
			return nil
		}
		_ = s.pool.SubmitAs(client, len(g.cfgs), fn, nil)
	}
}
