package core

import (
	"fmt"

	"multicluster/internal/trace"
)

// This file is the batch runner behind batched sweeps: N config-variant
// processors stepped over one shared, materialized trace
// (trace.Artifact). The saving is the trace: it is generated once and
// each member replays it through a zero-alloc cursor, instead of
// re-running the workload driver (map lookups, address synthesis) once
// per cell. Members run one after another, so the batch holds one
// member's instruction ring at a time.
//
// Each member simulates exactly as it would standalone, so the golden
// fixtures are byte-identical between the batch path and N independent
// runs.

// RunBatch simulates one processor per configuration, each reading the
// shared source through its own cursor, and returns the per-member
// statistics in input order. Results are byte-identical to running each
// configuration standalone over the same stream. Any member's simulation
// error (a machine deadlock, an invalid configuration) aborts the batch;
// callers that need per-member attribution re-run the failing member
// alone.
func RunBatch(cfgs []Config, src trace.Source) ([]Stats, error) {
	return RunBatchProbes(cfgs, src, nil)
}

// RunBatchProbes is RunBatch with an optional probe set installed on
// every member (probes observe without perturbing the simulation, so the
// batch stays fixture-identical).
func RunBatchProbes(cfgs []Config, src trace.Source, probes *Probes) ([]Stats, error) {
	stats := make([]Stats, len(cfgs))
	for i, cfg := range cfgs {
		p, err := New(cfg, src.NewReader())
		if err != nil {
			return nil, fmt.Errorf("core: batch member %d: %w", i, err)
		}
		if probes != nil {
			p.SetProbes(probes)
		}
		s, err := p.Run()
		if err != nil {
			return nil, fmt.Errorf("core: batch member %d: %w", i, err)
		}
		stats[i] = s
	}
	return stats, nil
}
