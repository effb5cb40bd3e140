package sweep

import (
	"context"
	"fmt"
	"sync"

	"multicluster/internal/experiment"
	"multicluster/internal/workload"
)

// Table2Params parameterize the paper's headline table.
type Table2Params struct {
	// Instructions is the per-run dynamic budget; 0 means 300k.
	Instructions int64 `json:"instructions,omitempty"`
	// Seed is the behaviour-driver seed; 0 means 42.
	Seed int64 `json:"seed,omitempty"`
	// Window is the local scheduler's imbalance threshold.
	Window int `json:"window,omitempty"`
	// FourWay selects the four-way aggregate study (single4 vs dual2)
	// instead of the paper's eight-way machines.
	FourWay bool `json:"four_way,omitempty"`
}

// table2Cell is one of the three runs behind a Table 2 row.
type table2Cell struct {
	bench  string
	column int // 0 = single/none, 1 = dual/none, 2 = dual/local
	spec   JobSpec
}

// table2Cells expands the params into the eighteen cell specs (six
// benchmarks × three runs), in the paper's benchmark order.
func table2Cells(p Table2Params) []table2Cell {
	singleMachine, dualMachine := "single", "dual"
	if p.FourWay {
		singleMachine, dualMachine = "single4", "dual2"
	}
	var cells []table2Cell
	for _, name := range workload.Names() {
		base := JobSpec{
			Benchmark:    name,
			Seed:         p.Seed,
			Instructions: p.Instructions,
			Window:       p.Window,
		}
		single := base
		single.Machine, single.Scheduler = singleMachine, "none"
		none := base
		none.Machine, none.Scheduler = dualMachine, "none"
		local := base
		local.Machine, local.Scheduler = dualMachine, "local"
		cells = append(cells,
			table2Cell{name, 0, single},
			table2Cell{name, 1, none},
			table2Cell{name, 2, local},
		)
	}
	return cells
}

// Table2 reproduces the paper's Table 2 through the service: eighteen jobs
// (six benchmarks × three runs) scheduled on the pool, every one served
// from the content-addressed cache when available. Rows come back in the
// paper's benchmark order.
func (s *Service) Table2(ctx context.Context, p Table2Params) ([]experiment.Table2Row, error) {
	cells := table2Cells(p)
	// Normalize and hash here, so on a warm cache the fan-out's fresh
	// goroutines do little more than a lookup and their stacks never grow.
	specs := make([]JobSpec, len(cells))
	hashes := make([]string, len(cells))
	for i, c := range cells {
		var err error
		if specs[i], hashes[i], err = c.spec.normalizeHash(); err != nil {
			return nil, fmt.Errorf("sweep: table2 %s (%s): %w", c.bench, c.spec, err)
		}
	}

	results := make([]*Result, len(cells))
	errs := make([]error, len(cells))
	var wg sync.WaitGroup
	for i := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], _, errs[i] = s.runHashed(ctx, specs[i], hashes[i], true)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep: table2 %s (%s): %w", cells[i].bench, cells[i].spec, err)
		}
	}

	rows := make([]experiment.Table2Row, 0, len(cells)/3)
	for i := 0; i < len(cells); i += 3 {
		rows = append(rows, experiment.NewTable2Row(
			cells[i].bench,
			results[i].Stats.Stats,
			results[i+1].Stats.Stats,
			results[i+2].Stats.Stats,
		))
	}
	return rows, nil
}
