package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"multicluster/internal/codegen"
	"multicluster/internal/conc"
	"multicluster/internal/core"
	"multicluster/internal/experiment"
	"multicluster/internal/isa"
	"multicluster/internal/partition"
	"multicluster/internal/regalloc"
	"multicluster/internal/trace"
	"multicluster/internal/workload"
)

const (
	// table2Instr is the paper's per-simulation budget, mcreport's
	// default.
	table2Instr = 300_000
	// fixedOps is how many tables or sweeps every table2 or sweep run
	// computes whatever its time budget: its fixed work (see closedLoop).
	fixedOps = 2
	// setupRepeats is how many times a run sets up, for a median setup_s.
	setupRepeats = 5
)

// canonicalTable2 is Table 2 at seed 42 and 300k instructions, as
// EXPERIMENTS.md quotes it: the none and local percentages, rounded the
// way mcreport prints them.
var canonicalTable2 = map[string][2]string{
	"compress": {"-11", "-5"},
	"doduc":    {"-12", "-7"},
	"gcc1":     {"-5", "-1"},
	"ora":      {"-7", "-2"},
	"su2cor":   {"-4", "-0"},
	"tomcatv":  {"-9", "-19"},
}

// table2Seeds returns the simulation seed of each Table 2 the run
// computes: the canonical seed 42 first, so every run checks the paper's
// numbers, then seeds drawn from the run's seed.
func table2Seeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	seeds := []int64{42}
	for len(seeds) < 256 {
		seeds = append(seeds, 1000+rng.Int63n(1<<31))
	}
	return seeds
}

// runTable2 is the researcher's path: mcreport computing Table 2 in a
// cold process, one table after another. Set-up is mcreport's cold start
// on its cheapest output, and peak_rss_mb and cpu_ms_per_op are those of
// the mcreport processes.
func runTable2(ctx context.Context, cfg config) (*result, error) {
	r := newResult(cfg)
	setup, err := coldStarts(ctx, cfg.bin("mcreport"), "-only", "table1")
	if err != nil {
		return nil, err
	}
	r.set("setup_s", setup)

	n := cfg.budget(table2Instr)
	seeds := table2Seeds(cfg.seed)
	var cpu float64
	var rss []float64
	lr, err := closedLoop(ctx, r, cfg.phaseSeconds(), fixedOps, len(seeds), func(i int) (opResult, error) {
		cmd := exec.CommandContext(ctx, cfg.bin("mcreport"), "-only", "table2", "-format", "json",
			"-n", strconv.FormatInt(n, 10), "-seed", strconv.FormatInt(seeds[i], 10))
		out, err := cmd.Output()
		if err != nil {
			return opResult{}, fmt.Errorf("mcreport seed %d: %w", seeds[i], err)
		}
		ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
		cpu += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		rss = append(rss, float64(ru.Maxrss)/1024) // Linux reports kB
		var rows []experiment.RowExport
		if err := json.Unmarshal(out, &rows); err != nil {
			return opResult{}, fmt.Errorf("mcreport seed %d: %w", seeds[i], err)
		}
		if err := checkTable2(rows, seeds[i], n); err != nil {
			return opResult{}, err
		}
		return opResult{digest: tableDigest(out)}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	r.set("cpu_ms_per_op", 1000*cpu/float64(r.Attempted))
	r.set("peak_rss_mb", median(sortedCopy(rss)))
	if !cfg.trace {
		return r, nil
	}

	// The traced pass recomputes the same tables in this process, calling
	// each layer's public functions itself, and must reproduce mcreport's
	// output exactly.
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	rec := newRecorder()
	traced := retrace(r, lr, func(i int) (opResult, error) { return tracedOp(rec, seeds[i], n) })
	runtime.ReadMemStats(&mem1)
	r.set("runtime.gc_count", float64(mem1.NumGC-mem0.NumGC))
	r.set("runtime.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
	r.set("runtime.alloc_mb", float64(mem1.TotalAlloc-mem0.TotalAlloc)/(1<<20))
	var cells []cell
	for _, o := range traced {
		cells = append(cells, o.cells...)
	}
	setThroughput(r, cells, lr.elapsed)
	setSimMetrics(r, cells)
	spans := rec.snapshot()
	setTable2Layers(r, spans)
	setCoverage(r, spans)
	return r, writeSpans(cfg, rec)
}

// tableDigest is the digest of one Table 2 as mcreport's JSON encodes it.
func tableDigest(out []byte) string {
	sum := sha256.Sum256(bytes.TrimSpace(out))
	return hex.EncodeToString(sum[:])
}

// checkTable2 checks a Table 2 as mcreport exports it: every benchmark in
// the paper's order, every simulation finished, and at seed 42 and the
// paper's budget the numbers EXPERIMENTS.md quotes, rounded the way
// mcreport prints them.
func checkTable2(rows []experiment.RowExport, seed, n int64) error {
	if len(rows) != len(benchNames) {
		return fmt.Errorf("table2 seed %d: %d rows, want %d", seed, len(rows), len(benchNames))
	}
	for i, row := range rows {
		if row.Benchmark != benchNames[i] {
			return fmt.Errorf("table2 seed %d: row %d is %s, want %s", seed, i, row.Benchmark, benchNames[i])
		}
		if row.SingleCycles <= 0 || row.DualNoneCycles <= 0 || row.DualLocalCycles <= 0 {
			return fmt.Errorf("table2 seed %d %s: empty simulation", seed, row.Benchmark)
		}
		if seed != 42 || n != table2Instr {
			continue
		}
		got := [2]string{fmt.Sprintf("%+.0f", row.NonePct), fmt.Sprintf("%+.0f", row.LocalPct)}
		if want := canonicalTable2[row.Benchmark]; got != want {
			return fmt.Errorf("table2 seed 42 %s: none/local %s/%s, EXPERIMENTS.md has %s/%s", row.Benchmark, got[0], got[1], want[0], want[1])
		}
	}
	return nil
}

// tracedOp is one traced Table 2: computed through the layers, checked
// like mcreport's, and digested from the same JSON encoding.
func tracedOp(rec *recorder, seed, n int64) (opResult, error) {
	rows, err := tracedTable2(rec, seed, n)
	if err != nil {
		return opResult{}, err
	}
	var buf bytes.Buffer
	if err := experiment.WriteJSON(&buf, rows); err != nil {
		return opResult{}, err
	}
	var cells []cell
	exports := make([]experiment.RowExport, len(rows))
	for i, row := range rows {
		exports[i] = row.Export()
		for j, s := range []core.Stats{row.SingleStats, row.NoneStats, row.LocalStats} {
			if err := checkStats(s, n); err != nil {
				return opResult{}, fmt.Errorf("table2 seed %d %s %s: %w", seed, row.Benchmark, table2Configs[j], err)
			}
			cells = append(cells, cell{table2Configs[j], s})
		}
	}
	if err := checkTable2(exports, seed, n); err != nil {
		return opResult{}, err
	}
	return opResult{digest: tableDigest(buf.Bytes()), cells: cells}, nil
}

// tracedTable2 computes Table 2 the way experiment.Table2 does — one
// goroutine per benchmark under the process-wide CPU semaphore — but
// calls each layer itself, recording a span around every call. All spans
// of one row share a trace id.
func tracedTable2(rec *recorder, seed, n int64) ([]experiment.Table2Row, error) {
	benches := workload.All()
	rows := make([]experiment.Table2Row, len(benches))
	errs := make([]error, len(benches))
	var wg sync.WaitGroup
	for i, b := range benches {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			if errs[i] = conc.CPU.Acquire(context.Background()); errs[i] != nil {
				return
			}
			defer conc.CPU.Release()
			tr := fmt.Sprintf("table2/seed%d/%s", seed, name)
			id := rec.newID()
			start := time.Now()
			var single, none, local core.Stats
			single, none, local, errs[i] = tracedRow(rec, tr, id, name, seed, n)
			rec.add(tr, id, 0, "table2.row", start, time.Now(), map[string]any{"benchmark": name, "seed": seed})
			rows[i] = experiment.NewTable2Row(name, single, none, local)
		}(i, b.Name)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", benches[i].Name, err)
		}
	}
	return rows, nil
}

// tracedRow runs the three simulations behind one row: the native binary
// on the single- and dual-cluster machines, sharing one trace, and the
// local-scheduler binary on the dual-cluster machine.
func tracedRow(rec *recorder, tr string, parent int64, name string, seed, n int64) (single, none, local core.Stats, err error) {
	single8, dual := core.SingleCluster8Way(), core.DualCluster4Way()
	single8.MaxCycles, dual.MaxCycles = 40*n, 40*n
	art, err := tracedBuild(rec, tr, parent, name, nil, seed, n)
	if err != nil {
		return
	}
	if single, err = tracedRun(rec, tr, parent, name, "single8", single8, art); err != nil {
		return
	}
	if none, err = tracedRun(rec, tr, parent, name, "dual-none", dual, art); err != nil {
		return
	}
	if art, err = tracedBuild(rec, tr, parent, name, partition.Local{}, seed, n); err != nil {
		return
	}
	local, err = tracedRun(rec, tr, parent, name, "dual-local", dual, art)
	return
}

// tracedBuild is experiment.Compile followed by trace materialization:
// profile the workload, partition it (nil: the native binary), allocate
// registers, lower to machine code, and generate the dynamic trace.
func tracedBuild(rec *recorder, tr string, parent int64, name string, part partition.Partitioner, seed, n int64) (*trace.Artifact, error) {
	var b *workload.Benchmark
	rec.timed(tr, parent, "workload.build", nil, func() error {
		b = workload.ByName(name)
		return nil
	})
	rec.timed(tr, parent, "trace.profile", nil, func() error {
		trace.Profile(b.Program, b.NewDriver(seed), max(n/6, 1))
		return nil
	})
	var pr *partition.Result
	if part != nil {
		if err := rec.timed(tr, parent, "partition", nil, func() error {
			pr = part.Partition(b.Program)
			return pr.Validate(b.Program)
		}); err != nil {
			return nil, err
		}
	}
	var alloc *regalloc.Result
	if err := rec.timed(tr, parent, "regalloc", nil, func() (err error) {
		alloc, err = regalloc.Allocate(b.Program, pr, regalloc.Config{
			Assignment:        core.DualCluster4Way().Assignment,
			Clustered:         part != nil,
			OtherClusterSpill: true,
		})
		return err
	}); err != nil {
		return nil, err
	}
	var mp *isa.Program
	if err := rec.timed(tr, parent, "codegen", nil, func() (err error) {
		mp, err = codegen.Lower(alloc)
		return err
	}); err != nil {
		return nil, err
	}
	var art *trace.Artifact
	attrs := map[string]any{}
	err := rec.timed(tr, parent, "trace.materialize", attrs, func() (err error) {
		art, err = trace.Materialize(mp, b.NewDriver(seed), n)
		if err == nil {
			attrs["instructions"] = int64(art.Len())
		}
		return err
	})
	return art, err
}

// tracedRun simulates one configuration over a materialized trace.
func tracedRun(rec *recorder, tr string, parent int64, name, label string, cfg core.Config, art *trace.Artifact) (core.Stats, error) {
	var s core.Stats
	attrs := map[string]any{"benchmark": name, "config": label}
	err := rec.timed(tr, parent, "core.run", attrs, func() error {
		p, err := core.New(cfg, art.NewReader())
		if err != nil {
			return err
		}
		if s, err = p.Run(); err != nil {
			return err
		}
		attrs["instructions"], attrs["cycles"] = s.Instructions, s.Cycles
		return nil
	})
	return s, err
}

// setTable2Layers derives the per-layer metrics from the traced pass's
// spans: host time per layer and the simulator's host cost per simulated
// instruction and cycle.
func setTable2Layers(r *result, spans []span) {
	total := totalByName(spans)
	type key struct{ bench, config string }
	ns := make(map[key]int64)
	instr := make(map[key]int64)
	var cycles, traceInstr, generations int64
	for _, s := range spans {
		// A call that failed recorded no counts; the run reports it as a
		// problem, and its span adds time only.
		n, _ := s.Attrs["instructions"].(int64)
		switch s.Name {
		case "core.run":
			k := key{s.Attrs["benchmark"].(string), s.Attrs["config"].(string)}
			c, _ := s.Attrs["cycles"].(int64)
			ns[k] += s.End - s.Start
			instr[k] += n
			cycles += c
		case "trace.materialize":
			traceInstr += n
			generations++
		}
	}
	var singleNS, singleInstr, dualNS, dualInstr int64
	for k := range ns {
		r.set("core.ns_per_instr."+k.bench+"."+k.config, ratio(ns[k], instr[k]))
		if k.config == "single8" {
			singleNS, singleInstr = singleNS+ns[k], singleInstr+instr[k]
		} else {
			dualNS, dualInstr = dualNS+ns[k], dualInstr+instr[k]
		}
	}
	coreBusy := total["core.run"]
	r.set("core.busy_s", coreBusy.Seconds())
	r.set("core.dual_over_single", ratio(ratio(dualNS, dualInstr), ratio(singleNS, singleInstr)))
	r.set("core.ns_per_cycle", ratio(int64(coreBusy), cycles))
	r.set("trace.materialize_s", total["trace.materialize"].Seconds())
	r.set("trace.ns_per_instr", ratio(int64(total["trace.materialize"]), traceInstr))
	r.set("trace.profile_s", total["trace.profile"].Seconds())
	r.set("trace.generations", float64(generations))
	compile := total["workload.build"] + total["partition"] + total["regalloc"] + total["codegen"]
	r.set("workload.build_s", total["workload.build"].Seconds())
	r.set("partition.s", total["partition"].Seconds())
	r.set("regalloc.s", total["regalloc"].Seconds())
	r.set("codegen.s", total["codegen"].Seconds())
	r.set("compile.share", ratio(int64(compile), int64(total["table2.row"])))
}

// coldStarts runs bin with args setupRepeats times and returns the median
// wall time from start to exit in seconds.
func coldStarts(ctx context.Context, bin string, args ...string) (float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if err := exec.CommandContext(ctx, bin, args...).Run(); err != nil {
			return 0, fmt.Errorf("%s: %w", filepath.Base(bin), err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(sortedCopy(times)), nil
}

// writeSpans writes a traced run's spans under <workdir>/spans.
func writeSpans(cfg config, rec *recorder) error {
	dir := filepath.Join(cfg.workdir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return rec.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)))
}
