package experiment

// This file is the batched half of the execution kernel: materialized
// trace artifacts cached next to compiles in the run memo, and
// CachedRunBatch — N machine configurations of one binary stepped over the
// shared artifact by core.RunBatch. Sweep cells that share a (workload,
// seed, budget) therefore share one trace-generation walk instead of
// paying for it per cell.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"multicluster/internal/core"
	"multicluster/internal/isa"
	"multicluster/internal/trace"
	"multicluster/internal/workload"
)

// artifactMaxInstrs caps the budget a trace is materialized at. An
// artifact costs ~9 bytes per dynamic instruction; past this cap runs fall
// back to live generation rather than holding tens of megabytes resident.
const artifactMaxInstrs = 2_000_000

// artifactCacheBound bounds how many artifacts stay resident in the run
// memo; the least recently used is forgotten (and regenerated on demand if
// a later run needs it again).
const artifactCacheBound = 32

// maxBatch caps how many sibling configurations one batch owner simulates
// inline. Larger groups split into several batches, each still sharing the
// cached artifact.
const maxBatch = 16

// traceKey addresses a materialized trace artifact: everything that
// determines the dynamic stream — the compiled binary (whose key carries
// the workload, seed, and profile budget) plus the instruction budget.
type traceKey struct {
	Kind    string     `json:"kind"` // "trace"
	Compile compileKey `json:"compile"`
	Instrs  int64      `json:"instructions"`
}

// traceGenerations counts full trace-generation walks, process-wide.
var traceGenerations atomic.Int64

// TraceGenerations returns how many trace-generation walks (artifact
// materializations) the process has performed — the observable behind "the
// trace is generated once per (workload, seed, budget), not once per
// cell", which the batching tests and benchmarks assert on.
func TraceGenerations() int64 { return traceGenerations.Load() }

// artifactLRU orders resident artifact keys, most recently used last, so
// the memo holds at most artifactCacheBound artifacts.
var artifactLRU struct {
	mu   sync.Mutex
	keys []string
}

// touchArtifact marks key most recently used and evicts beyond the bound.
func touchArtifact(key string) {
	l := &artifactLRU
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, k := range l.keys {
		if k == key {
			copy(l.keys[i:], l.keys[i+1:])
			l.keys[len(l.keys)-1] = key
			return
		}
	}
	l.keys = append(l.keys, key)
	for len(l.keys) > artifactCacheBound {
		runMemo.Forget(l.keys[0])
		l.keys = append(l.keys[:0], l.keys[1:]...)
	}
}

// cachedArtifact returns the materialized trace for (binary, budget),
// generating it at most once per key process-wide. A nil artifact with a
// nil error means the budget exceeds artifactMaxInstrs and the caller
// should fall back to a live generator.
func cachedArtifact(benchName string, ck compileKey, mp *isa.Program, opts Options) (*trace.Artifact, error) {
	if opts.Instructions > artifactMaxInstrs {
		return nil, nil
	}
	key := hashKey(traceKey{Kind: "trace", Compile: ck, Instrs: opts.Instructions})
	av, err, _ := runMemo.Do(key, func() (any, error) {
		traceGenerations.Add(1)
		b := workload.ByName(benchName)
		art, err := trace.Materialize(mp, b.NewDriver(opts.Seed), opts.Instructions)
		if err != nil {
			return nil, err
		}
		return art, nil
	})
	if err != nil {
		return nil, err
	}
	touchArtifact(key)
	return av.(*trace.Artifact), nil
}

// BatchGroupKey returns the content key of the trace artifact a run of
// (benchmark, scheduler, options) feeds from. Runs with equal keys share
// one compiled binary and one materialized trace, so a sweep batches them
// together. The empty string means the run cannot batch (unknown
// benchmark/scheduler, or a budget beyond the materialization cap).
func BatchGroupKey(benchName, schedName string, opts Options) string {
	opts = opts.withDefaults()
	if opts.Instructions > artifactMaxInstrs {
		return ""
	}
	if !workload.Known(benchName) {
		return ""
	}
	if _, err := SchedulerByName(schedName, opts.Window); err != nil {
		return ""
	}
	ck := buildCompileKey(benchName, schedName, opts)
	return hashKey(traceKey{Kind: "trace", Compile: ck, Instrs: opts.Instructions})
}

// CachedRunBatch is CachedRun over N machine configurations of one binary.
// Results are identical to N CachedRun calls (same memo keys, same
// byte-identical statistics) but cheaper: all members feed from one cached
// trace artifact (see core.RunBatch). Configurations already resident
// in the run memo are served from it, so interleaving CachedRun and
// CachedRunBatch never recomputes.
//
// opts.Probes, when set, observes every member simulated by this call —
// including members computed on behalf of a later configuration in cfgs —
// exactly as it observes every cell a sweep computes.
func CachedRunBatch(benchName, schedName string, cfgs []core.Config, opts Options) ([]RunResult, error) {
	opts = opts.withDefaults()
	if len(cfgs) == 0 {
		return nil, nil
	}
	if !workload.Known(benchName) {
		return nil, fmt.Errorf("experiment: unknown benchmark %q", benchName)
	}
	if _, err := SchedulerByName(schedName, opts.Window); err != nil {
		return nil, err
	}
	ck := buildCompileKey(benchName, schedName, opts)
	bin, err := cachedCompile(benchName, schedName, ck, opts)
	if err != nil {
		return nil, err
	}

	full := make([]core.Config, len(cfgs))
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.MaxCycles == 0 {
			cfg.MaxCycles = opts.Instructions * 40
		}
		full[i] = cfg
		keys[i] = hashKey(runKey{Kind: "run", Compile: ck, Machine: cfg, Instrs: opts.Instructions})
	}

	results := make([]RunResult, len(cfgs))
	for i := range full {
		i := i
		rv, err, _ := runMemo.Do(keys[i], func() (any, error) {
			return computeBatchFrom(i, full, keys, benchName, ck, bin, opts)
		})
		if err != nil {
			return nil, err
		}
		results[i] = RunResult{
			Stats:   rv.(core.Stats),
			Spilled: bin.alloc.Spilled,
			Demoted: bin.alloc.Demoted,
		}
	}
	return results, nil
}

// computeBatchFrom computes the run-memo entry for cfgs[i], batching in
// every sibling configuration not yet resident (capped at maxBatch) so one
// core.RunBatch pass fills their entries too. It runs under the memo's
// single flight for keys[i]; sibling results are Seeded, which is a no-op
// for any key another flight claimed in the meantime — at worst a sibling
// is computed twice, never wrongly.
func computeBatchFrom(i int, cfgs []core.Config, keys []string, benchName string, ck compileKey, bin compiledBinary, opts Options) (any, error) {
	art, err := cachedArtifact(benchName, ck, bin.mp, opts)
	if err != nil {
		return nil, err
	}
	if art == nil {
		// Budget beyond the materialization cap: no shared artifact to
		// batch over, simulate this member alone from a live generator.
		return simulateCell(benchName, ck, bin, cfgs[i], opts)
	}

	members := []int{i}
	seen := map[string]bool{keys[i]: true}
	for j := range cfgs {
		if len(members) >= maxBatch {
			break
		}
		if seen[keys[j]] {
			continue
		}
		if _, _, ok := runMemo.Get(keys[j]); ok {
			continue
		}
		seen[keys[j]] = true
		members = append(members, j)
	}

	mcfgs := make([]core.Config, len(members))
	for k, j := range members {
		mcfgs[k] = cfgs[j]
	}
	stats, err := core.RunBatchProbes(mcfgs, art, opts.Probes)
	if err != nil {
		// A sibling aborted the batch; recover this member alone so its
		// entry reflects only its own outcome.
		s, serr := SimulateReader(art.NewReader(), benchName, cfgs[i], opts)
		if serr != nil {
			return nil, serr
		}
		return s, nil
	}
	for k, j := range members[1:] {
		if s := stats[k+1]; s.Stop == core.StopTraceEnd {
			runMemo.Seed(keys[j], s)
		}
	}
	if stats[0].Stop != core.StopTraceEnd {
		return nil, fmt.Errorf("%s: simulation hit the cycle limit (%v)", benchName, stats[0])
	}
	return stats[0], nil
}
