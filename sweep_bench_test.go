// Sweep-cell throughput benchmarks: the same four-machine grid cell
// group measured through the two pipelines a sweep can take. Lazy is the
// pre-batching path — every cell re-walks the workload driver through its
// own trace generator. Batched is the artifact path — one materialized
// trace shared by all members, via experiment.CachedRunBatch. Both report cells/sec; scripts/sweepdiff
// runs them, gates the batched/lazy speedup, and writes BENCH_sweep.json.
//
// Each iteration draws a fresh seed from a private counter so the
// process-wide run memo can never serve a cached cell: the batched side
// must do its real work (compile, materialize, batch-simulate) every
// time, and the generation counter must advance exactly once per
// iteration — the benchmark asserts that.
package multicluster

import (
	"sync/atomic"
	"testing"

	"multicluster/internal/bpred"
	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/partition"
	"multicluster/internal/workload"
)

// sweepBenchSeed starts far outside the seed ranges any test or sweep
// uses, so benchmark cells never collide with other memo entries.
var sweepBenchSeed atomic.Int64

func init() { sweepBenchSeed.Store(7_000_000) }

// sweepBenchConfigs is the benchmark's machine axis: the four canonical
// machines plus the buffer-depth and master-policy ablation points — the
// shape of a real study grid, where one (workload, seed) row fans out
// over many machine variants that all share a compile and a trace.
func sweepBenchConfigs() []core.Config {
	shallow := core.DualCluster4Way()
	shallow.OperandBuffer = 4
	shallow.ResultBuffer = 4
	deep := core.DualCluster4Way()
	deep.OperandBuffer = 16
	deep.ResultBuffer = 16
	firstSrc := core.DualCluster4Way()
	firstSrc.MasterSelect = core.MasterFirstSource
	alternate := core.DualCluster4Way()
	alternate.MasterSelect = core.MasterAlternate
	bimodal := core.DualCluster4Way()
	bimodal.Predictor.Kind = bpred.BimodalOnly
	gshare := core.DualCluster4Way()
	gshare.Predictor.Kind = bpred.GshareOnly
	cfgs := []core.Config{
		core.SingleCluster8Way(),
		core.DualCluster4Way(),
		core.SingleCluster4Way(),
		core.DualCluster2Way(),
		shallow,
		deep,
		firstSrc,
		alternate,
		bimodal,
		gshare,
	}
	for i := range cfgs {
		cfgs[i].MaxCycles = benchInstrs * 200
	}
	return cfgs
}

// BenchmarkSweepCellsLazy is the pre-batching cell pipeline: one compile
// per (workload, seed), then each machine configuration simulates from
// its own trace generator, re-walking the driver per cell.
func BenchmarkSweepCellsLazy(b *testing.B) {
	w := workload.ByName("su2cor")
	cfgs := sweepBenchConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Seed = sweepBenchSeed.Add(1)
		mp, _, err := experiment.Compile(w, partition.Local{}, opts)
		if err != nil {
			b.Fatal(err)
		}
		for _, cfg := range cfgs {
			if _, err := experiment.Simulate(mp, w, cfg, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkSweepCellsBatched is the artifact pipeline: the same cell
// group through experiment.CachedRunBatch — one materialized trace walk
// feeding every machine configuration. The fresh per-iteration seed keeps the memo cold, and the
// generation counter proves the trace was produced exactly once per
// group.
func BenchmarkSweepCellsBatched(b *testing.B) {
	cfgs := sweepBenchConfigs()
	before := experiment.TraceGenerations()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := benchOpts()
		opts.Seed = sweepBenchSeed.Add(1)
		if _, err := experiment.CachedRunBatch("su2cor", "local", cfgs, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := experiment.TraceGenerations() - before; got != int64(b.N) {
		b.Fatalf("trace generated %d times across %d cell groups, want one per group", got, b.N)
	}
	b.ReportMetric(float64(len(cfgs))*float64(b.N)/b.Elapsed().Seconds(), "cells/sec")
}
