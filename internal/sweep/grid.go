package sweep

import (
	"context"
	"fmt"
	"sync"

	"multicluster/internal/workload"
)

// MaxGridCells caps the cells a grid may expand to (the largest grid in the
// repository, mcperf's sweep, has 144), so a small request body cannot
// expand into millions of jobs.
const MaxGridCells = 4096

// Grid is a sweep request: the cross product of benchmarks, machines,
// schedulers, windows, and seeds, each cell one JobSpec. Empty dimensions
// default to the paper's evaluation axes.
type Grid struct {
	// Benchmarks defaults to the six Table 2 workloads.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Machines defaults to [single, dual].
	Machines []string `json:"machines,omitempty"`
	// Schedulers defaults to [none, local].
	Schedulers []string `json:"schedulers,omitempty"`
	// Windows defaults to [0]; non-zero entries only vary the local
	// scheduler.
	Windows []int `json:"windows,omitempty"`
	// Seeds defaults to [42].
	Seeds []int64 `json:"seeds,omitempty"`
	// Instructions is the per-cell dynamic budget; 0 means 300k.
	Instructions int64 `json:"instructions,omitempty"`
	// PostSchedule applies the post-pass list scheduler in every cell.
	PostSchedule bool `json:"post_schedule,omitempty"`
}

// Expand enumerates the grid into normalized job specs, deduplicated by
// content hash (distinct cells can normalize to the same spec, e.g. two
// windows under a non-local scheduler), in deterministic order.
func (g Grid) Expand() ([]JobSpec, error) {
	benches := g.Benchmarks
	if len(benches) == 0 {
		benches = workload.Names()
	}
	machines := g.Machines
	if len(machines) == 0 {
		machines = []string{"single", "dual"}
	}
	scheds := g.Schedulers
	if len(scheds) == 0 {
		scheds = []string{"none", "local"}
	}
	windows := g.Windows
	if len(windows) == 0 {
		windows = []int{0}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{42}
	}
	// Size the cross product before normalizing any cell, one dimension
	// at a time so the product cannot overflow.
	cells := 1
	for _, n := range []int{len(benches), len(machines), len(scheds), len(windows), len(seeds)} {
		if cells > MaxGridCells/n {
			return nil, fmt.Errorf("%w: grid has more than %d cells", ErrLimit, MaxGridCells)
		}
		cells *= n
	}

	var specs []JobSpec
	seen := make(map[string]bool)
	for _, b := range benches {
		for _, m := range machines {
			for _, sc := range scheds {
				for _, w := range windows {
					for _, seed := range seeds {
						spec := JobSpec{
							Benchmark:    b,
							Machine:      m,
							Scheduler:    sc,
							Window:       w,
							Seed:         seed,
							Instructions: g.Instructions,
							PostSchedule: g.PostSchedule,
						}
						norm, hash, err := spec.normalizeHash()
						if err != nil {
							return nil, fmt.Errorf("sweep: cell %s: %w", spec, err)
						}
						if seen[hash] {
							continue
						}
						seen[hash] = true
						specs = append(specs, norm)
					}
				}
			}
		}
	}
	return specs, nil
}

// SweepRow is one completed cell of a sweep, delivered in completion
// order.
type SweepRow struct {
	// Index is the cell's position in the expanded grid (stable across
	// identical requests); Total is the grid size.
	Index int `json:"index"`
	Total int `json:"total"`
	// CacheHit reports whether the cell was served from the cache.
	CacheHit bool    `json:"cache_hit"`
	Result   *Result `json:"result,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// Sweep expands the grid and runs every cell through the pool and cache,
// streaming completed rows on the returned channel in completion order.
// The channel closes when every cell has been delivered or ctx is done.
// The int is the number of cells in the expanded grid.
func (s *Service) Sweep(ctx context.Context, g Grid) (<-chan SweepRow, int, error) {
	specs, err := g.Expand()
	if err != nil {
		return nil, 0, err
	}
	// Queue batch prewarms ahead of the cells (see prewarmBatches): cells
	// whose group was batched become cache hits.
	s.prewarmBatches(ClientIDFrom(ctx), specs)
	rows := make(chan SweepRow)
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec JobSpec) {
			defer wg.Done()
			res, hit, err := s.Run(ctx, spec)
			row := SweepRow{Index: i, Total: len(specs), CacheHit: hit, Result: res}
			if err != nil {
				row.Error = err.Error()
			}
			select {
			case rows <- row:
			case <-ctx.Done():
			}
		}(i, spec)
	}
	go func() {
		wg.Wait()
		close(rows)
	}()
	return rows, len(specs), nil
}
