package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"multicluster/internal/core"
	"multicluster/internal/sweep"
	"multicluster/internal/workload"
)

const (
	// sweepInstr is the sweep workload's per-cell budget: a study-sized
	// grid of 144 cells then takes a few seconds on two workers.
	sweepInstr = 30_000
	// hotInstr and coldInstr are the per-cell budgets of serve-hot and
	// serve-cold: small, so they measure the service rather than the
	// simulator. At 5k instructions a serve-cold run sends well over the
	// 100 requests its p90 needs.
	hotInstr  = 10_000
	coldInstr = 5_000
	// hotRate is serve-hot's fixed arrival rate (requests/s): an
	// interactive load the service carries on two cores with p99 near
	// 10 ms, so the tail shows per-request cost rather than saturation.
	hotRate = 100.0
	// coldFixed is how many requests every serve-cold run sends whatever
	// its time budget: its fixed work (see closedLoop).
	coldFixed = 32
	// pollWindow bounds the job ids serve-hot polls to the most recent
	// submissions, well inside mcserved's default retention of 1024
	// finished jobs, so no poll can meet an evicted id.
	pollWindow = 512
)

var benchNames = func() []string {
	var names []string
	for _, b := range workload.All() {
		names = append(names, b.Name)
	}
	return names
}()

// coldStartServer starts mcserved and runs warm (nil: nothing to warm)
// setupRepeats times, each on a fresh process, and keeps the last server.
// It returns the median time from process start to the end of warm-up.
func coldStartServer(ctx context.Context, cfg config, hc *http.Client, warm func(*api) error) (*server, float64, error) {
	var times []float64
	var srv *server
	for i := 0; i < setupRepeats; i++ {
		srv.stop()
		t0 := time.Now()
		var err error
		if srv, err = startServer(ctx, cfg.bin("mcserved"), hc, nil); err != nil {
			return nil, 0, err
		}
		if warm != nil {
			if err := warm(&api{base: srv.base, hc: hc}); err != nil {
				srv.stop()
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return srv, median(sortedCopy(times)), nil
}

// runGrid is the study path through the API: create a sweep resource,
// then read its result stream, which blocks until every cell is done,
// and check the rows against the grid.
func runGrid(ctx context.Context, c *api, tr string, parent int64, grid sweep.Grid) ([]cell, error) {
	status, body, err := c.call(ctx, tr, parent, http.MethodPost, "/v1/sweeps", grid)
	if err != nil {
		return nil, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("POST /v1/sweeps: status %d: %.200s", status, body)
	}
	var view sweep.SweepView
	if err := c.decode(tr, parent, func() error { return json.Unmarshal(body, &view) }); err != nil {
		return nil, fmt.Errorf("POST /v1/sweeps: %w", err)
	}
	status, body, err = c.call(ctx, tr, parent, http.MethodGet, "/v1/sweeps/"+view.ID+"/results", nil)
	if err != nil {
		return nil, fmt.Errorf("GET sweep results: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET sweep results: status %d: %.200s", status, body)
	}
	var cells []cell
	err = c.decode(tr, parent, func() error {
		var rows []sweep.SweepResultRow
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			var row sweep.SweepResultRow
			if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
				return fmt.Errorf("sweep results row %d: %w", len(rows), err)
			}
			rows = append(rows, row)
		}
		if err := sc.Err(); err != nil {
			return err
		}
		cells, err = checkRows(grid, rows)
		return err
	})
	return cells, err
}

// checkRows checks a sweep's result stream against its grid: one ok row
// per cell, in grid order, each a complete simulation of that cell.
func checkRows(grid sweep.Grid, rows []sweep.SweepResultRow) ([]cell, error) {
	specs, err := grid.Expand()
	if err != nil {
		return nil, err
	}
	if len(rows) != len(specs) {
		return nil, fmt.Errorf("sweep returned %d rows, want %d", len(rows), len(specs))
	}
	cells := make([]cell, len(rows))
	for i, row := range rows {
		want := specs[i]
		if row.Index != i || row.Total != len(specs) || row.Error != "" || row.Result == nil {
			return nil, fmt.Errorf("sweep row %d: index %d/%d error %q", i, row.Index, row.Total, row.Error)
		}
		got := row.Result.Spec
		if got.Benchmark != want.Benchmark || got.Machine != want.Machine || got.Scheduler != want.Scheduler ||
			got.Seed != want.Seed || got.Instructions != want.Instructions {
			return nil, fmt.Errorf("sweep row %d is %s, want %s: rows out of grid order", i, got, want)
		}
		s := row.Result.Stats.Stats
		if s.Stop != core.StopTraceEnd || s.Instructions != want.Instructions {
			return nil, fmt.Errorf("sweep row %d (%s): stopped %q with %d instructions", i, want, s.Stop, s.Instructions)
		}
		cells[i] = cell{cellLabel(want.Machine, want.Scheduler), s}
	}
	return cells, nil
}

// rootOp adapts one workload operation to the load generator. When
// tracing, it records the operation as a root span from its due time,
// with the wait for a connection and then for the goroutine that sends
// it as its first children.
func rootOp(rec *recorder, name string, do func(ctx context.Context, tr string, parent int64, a arrival) error) opFunc {
	var n atomic.Int64
	return func(ctx context.Context, a arrival, due, slot time.Time) error {
		if rec == nil {
			return do(ctx, "", 0, a)
		}
		started := time.Now()
		tr := fmt.Sprintf("%s/%d", name, n.Add(1))
		id := rec.newID()
		rec.add(tr, 0, id, "client.conn_wait", due, slot, nil)
		rec.add(tr, 0, id, "client.dispatch", slot, started, nil)
		err := do(ctx, tr, id, a)
		rec.add(tr, id, 0, name, due, time.Now(), map[string]any{"kind": a.Kind})
		return err
	}
}

func scrape(ctx context.Context, r *result, srv *server, hc *http.Client) *sweep.ScrapedMetrics {
	m, err := srv.scrape(ctx, hc)
	if err != nil {
		r.problem("scraping /metrics: %v", err)
		m, _ = sweep.ParseMetricsText(bytes.NewReader(nil))
	}
	return m
}

// ---- sweep and serve-cold ----

var sweepMachines = []string{"single", "dual", "single4", "dual2"}

// sweepGrids draws the grid of each sweep a sweep run may create: every
// benchmark on every machine under both schedulers, for three fresh
// simulation seeds — 144 cells, every four of which share one trace.
func sweepGrids(seed int64, n int64) []sweep.Grid {
	rng := rand.New(rand.NewSource(seed))
	grids := make([]sweep.Grid, 64)
	for i := range grids {
		grids[i] = sweep.Grid{
			Benchmarks:   benchNames,
			Machines:     sweepMachines,
			Schedulers:   []string{"none", "local"},
			Seeds:        []int64{1 + rng.Int63n(1<<40), 1 + rng.Int63n(1<<40), 1 + rng.Int63n(1<<40)},
			Instructions: n,
		}
	}
	return grids
}

// coldGrids draws the never-seen sweep of each serve-cold request: all
// six benchmarks on the dual-cluster machine, native and local-scheduled,
// at one fresh simulation seed. Every request does the same mix of work,
// so its latency does not depend on which benchmark it drew (an ora cell
// costs about three times the others), and no two cells share a trace:
// cells that do are batched by a pre-warm task that races the cells
// themselves for the two workers, and which wins varies from run to run
// (the sweep workload measures batching).
func coldGrids(seed int64, n int64) []sweep.Grid {
	rng := rand.New(rand.NewSource(seed))
	grids := make([]sweep.Grid, 1024)
	for i := range grids {
		grids[i] = sweep.Grid{
			Benchmarks:   benchNames,
			Machines:     []string{"dual"},
			Schedulers:   []string{"none", "local"},
			Seeds:        []int64{1 + rng.Int63n(1<<40)},
			Instructions: n,
		}
	}
	return grids
}

// runSweepWorkload is the study path: one client creating 144-cell grid
// sweeps back to back and reading each result stream to its end.
func runSweepWorkload(ctx context.Context, cfg config) (*result, error) {
	return runGridWorkload(ctx, cfg, sweepGrids(cfg.seed, cfg.budget(sweepInstr)), fixedOps)
}

// runServeCold is the write side of the API: one client sending
// never-seen twelve-cell sweeps back to back, every cell missing every
// cache, so each pays compile, trace generation and simulation.
func runServeCold(ctx context.Context, cfg config) (*result, error) {
	return runGridWorkload(ctx, cfg, coldGrids(cfg.seed, cfg.budget(coldInstr)), coldFixed)
}

// runGridWorkload runs grids as sweeps, one after another, on a fresh
// mcserved. Every cell is new to the server, so none may hit its cache.
func runGridWorkload(ctx context.Context, cfg config, grids []sweep.Grid, fixed int) (*result, error) {
	r := newResult(cfg)
	hc := newHTTPClient()
	srv, setup, err := coldStartServer(ctx, cfg, hc, nil)
	if err != nil {
		return nil, err
	}
	defer func() { srv.stop() }()
	r.set("setup_s", setup)

	c := &api{base: srv.base, hc: hc}
	pid := srv.cmd.Process.Pid
	m0 := scrape(ctx, r, srv, hc)
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	lr, err := closedLoop(ctx, r, cfg.phaseSeconds(), fixed, len(grids), func(i int) (opResult, error) {
		return gridOp(ctx, c, "", 0, grids[i])
	}, func() error { return setRSS(r, srv) })
	if err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	r.set("cpu_ms_per_op", 1000*(cpu1-cpu0)/float64(r.Attempted))
	m1 := scrape(ctx, r, srv, hc)
	if hits := delta(m0, m1, "sweep_cache_hits_total"); hits != 0 {
		r.problem("%s hit the result cache %g times; every cell is new", cfg.workload, hits)
	}
	if !cfg.trace {
		return r, nil
	}
	cells := lr.cells()
	setThroughput(r, cells, lr.elapsed)
	setSimMetrics(r, cells)

	// Traced pass: the same sweeps on a fresh server, every request
	// tagged and joined to the server's access log and /metrics.
	srv.stop()
	log := newAccessLog()
	if srv, err = startServer(ctx, cfg.bin("mcserved"), hc, log); err != nil {
		return nil, err
	}
	rec := newRecorder()
	tc := &api{base: srv.base, hc: hc, rec: rec}
	before := scrape(ctx, r, srv, hc)
	retrace(r, lr, func(i int) (opResult, error) {
		tr := fmt.Sprintf("%s/%d", cfg.workload, i)
		id := rec.newID()
		start := time.Now()
		out, err := gridOp(ctx, tc, tr, id, grids[i])
		rec.add(tr, id, 0, "sweep", start, time.Now(), nil)
		return out, err
	})
	after := scrape(ctx, r, srv, hc)
	srv.stop() // flushes the access log
	setServerLayers(r, before, after)
	setHTTPLayers(r, rec, log, nil)
	setCoverage(r, rec.snapshot())
	return r, writeSpans(cfg, rec)
}

// gridOp runs one sweep and checks its result stream.
func gridOp(ctx context.Context, c *api, tr string, parent int64, grid sweep.Grid) (opResult, error) {
	cells, err := runGrid(ctx, c, tr, parent, grid)
	if err != nil {
		return opResult{}, err
	}
	return opResult{digest: digestOf(cells), cells: cells}, nil
}

func setRSS(r *result, srv *server) error {
	rss, err := srv.peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", rss)
	return nil
}

// ---- serve-hot ----

// serve-hot operation kinds and their mix: job submits and polls,
// cached Table 2 reads, and the sweep lifecycle (create a two-cell sweep,
// read its results).
const (
	opSubmit = iota
	opPoll
	opTable2
	opLifecycle
)

var hotMix = []int{opSubmit: 6, opPoll: 6, opTable2: 2, opLifecycle: 1}

// hot is serve-hot's client state on one server: the spec pool every
// request draws from, the warm-up's Table 2 body every later one must
// equal, and the recent job ids polls target.
type hot struct {
	pool   []sweep.JobSpec
	grid   sweep.Grid // the pool as one sweep
	n      int64
	table2 []byte
	cells  []cell // the warm-up sweep's results

	mu  sync.Mutex
	ids []string
}

func newHot(seed, n int64) *hot {
	rng := rand.New(rand.NewSource(seed))
	seeds := []int64{1 + rng.Int63n(1<<40), 1 + rng.Int63n(1<<40), 1 + rng.Int63n(1<<40), 1 + rng.Int63n(1<<40)}
	h := &hot{n: n, grid: sweep.Grid{
		Benchmarks: benchNames, Machines: []string{"single", "dual"}, Schedulers: []string{"none"},
		Seeds: seeds, Instructions: n,
	}}
	for _, b := range benchNames {
		for _, m := range h.grid.Machines {
			for _, s := range seeds {
				h.pool = append(h.pool, sweep.JobSpec{Benchmark: b, Machine: m, Scheduler: "none", Seed: s, Instructions: n})
			}
		}
	}
	return h
}

func (h *hot) table2Path() string { return fmt.Sprintf("/v1/table2?format=json&n=%d", h.n) }

// warm computes everything the plan can draw: the pool (as one sweep, and
// then as submitted jobs, whose ids seed the poll targets) and Table 2.
func (h *hot) warm(c *api) error {
	ctx := context.Background()
	var err error
	if h.cells, err = runGrid(ctx, c, "", 0, h.grid); err != nil {
		return err
	}
	h.ids = h.ids[:0]
	for _, spec := range h.pool {
		if err := h.submit(ctx, c, "", 0, spec); err != nil {
			return err
		}
	}
	status, body, err := c.call(ctx, "", 0, http.MethodGet, h.table2Path(), nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /v1/table2: status %d", status)
	}
	h.table2 = body
	return nil
}

func (h *hot) submit(ctx context.Context, c *api, tr string, parent int64, spec sweep.JobSpec) error {
	status, body, err := c.call(ctx, tr, parent, http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return err
	}
	if status != http.StatusAccepted {
		return fmt.Errorf("POST /v1/jobs: status %d: %.200s", status, body)
	}
	return c.decode(tr, parent, func() error {
		var v sweep.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("POST /v1/jobs: %w", err)
		}
		h.mu.Lock()
		defer h.mu.Unlock()
		h.ids = append(h.ids, v.ID)
		if len(h.ids) > pollWindow {
			h.ids = h.ids[len(h.ids)-pollWindow:]
		}
		return nil
	})
}

func (h *hot) do(ctx context.Context, c *api, tr string, parent int64, a arrival) error {
	spec := h.pool[a.Arg%int64(len(h.pool))]
	switch a.Kind {
	case opSubmit:
		return h.submit(ctx, c, tr, parent, spec)
	case opPoll:
		h.mu.Lock()
		id := h.ids[a.Arg%int64(len(h.ids))]
		h.mu.Unlock()
		status, _, err := c.call(ctx, tr, parent, http.MethodGet, "/v1/jobs/"+id, nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /v1/jobs/%s: status %d", id, status)
		}
		return err
	case opTable2:
		status, body, err := c.call(ctx, tr, parent, http.MethodGet, h.table2Path(), nil)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET /v1/table2: status %d", status)
		}
		if err != nil {
			return err
		}
		return c.decode(tr, parent, func() error {
			if !bytes.Equal(body, h.table2) {
				return fmt.Errorf("GET /v1/table2: body differs from the warm-up's")
			}
			return nil
		})
	default:
		grid := sweep.Grid{Benchmarks: []string{spec.Benchmark}, Machines: []string{"single", "dual"},
			Schedulers: []string{"none"}, Seeds: []int64{spec.Seed}, Instructions: h.n}
		_, err := runGrid(ctx, c, tr, parent, grid)
		return err
	}
}

// runServeHot is the interactive API with a warm cache: open-loop traffic
// at a fixed rate, every request a cache hit, so no simulation runs.
func runServeHot(ctx context.Context, cfg config) (*result, error) {
	r := newResult(cfg)
	hc := newHTTPClient()
	n := cfg.budget(hotInstr)
	var h *hot
	srv, setup, err := coldStartServer(ctx, cfg, hc, func(c *api) error {
		h = newHot(cfg.seed, n)
		return h.warm(c)
	})
	if err != nil {
		return nil, err
	}
	defer func() { srv.stop() }()
	r.set("setup_s", setup)
	r.StatsDigest = digestOf(h.cells)

	c := &api{base: srv.base, hc: hc}
	pid := srv.cmd.Process.Pid
	plan := openLoopPlan(cfg.seed, hotRate, cfg.phaseSeconds(), hotMix)
	m0 := scrape(ctx, r, srv, hc)
	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	timings := runOpenLoop(ctx, plan, maxConns, rootOp(nil, "", func(ctx context.Context, tr string, parent int64, a arrival) error {
		return h.do(ctx, c, tr, parent, a)
	}))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	lats := make([]float64, len(timings))
	for i, t := range timings {
		lats[i] = ms(t.latency())
		r.Attempted++
		if t.Err != nil {
			r.Failed++
			r.problem("%v", t.Err)
		}
	}
	r.setLatency(summarize(lats))
	r.set("cpu_ms_per_op", 1000*(cpu1-cpu0)/float64(len(timings)))
	if err := setRSS(r, srv); err != nil {
		return nil, err
	}
	m1 := scrape(ctx, r, srv, hc)
	if misses := delta(m0, m1, "sweep_cache_misses_total"); misses != 0 {
		r.problem("serve-hot missed the result cache %g times; every request should hit", misses)
	}
	if cycles := delta(m0, m1, "core_cycles_total"); cycles != 0 {
		r.problem("serve-hot simulated %g cycles; every request should be served from cache", cycles)
	}
	if !cfg.trace {
		return r, nil
	}

	// Traced pass: the same plan on a fresh, identically warmed
	// server.
	srv.stop()
	log := newAccessLog()
	if srv, err = startServer(ctx, cfg.bin("mcserved"), hc, log); err != nil {
		return nil, err
	}
	traced := newHot(cfg.seed, n)
	if err := traced.warm(&api{base: srv.base, hc: hc}); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	if d := digestOf(traced.cells); d != r.StatsDigest {
		r.problem("traced warm-up stats digest %.16s differs from the untraced %.16s", d, r.StatsDigest)
	}
	rec := newRecorder()
	tc := &api{base: srv.base, hc: hc, rec: rec}
	before := scrape(ctx, r, srv, hc)
	ttimings := runOpenLoop(ctx, plan, maxConns, rootOp(rec, "serve-hot", func(ctx context.Context, tr string, parent int64, a arrival) error {
		return traced.do(ctx, tc, tr, parent, a)
	}))
	after := scrape(ctx, r, srv, hc)
	srv.stop()
	for _, t := range ttimings {
		if t.Err != nil {
			r.problem("traced: %v", t.Err)
		}
	}
	setServerLayers(r, before, after)
	setHTTPLayers(r, rec, log, ttimings)
	setCoverage(r, rec.snapshot())
	var a, b []float64
	for i := range ttimings {
		a = append(a, ms(timings[i].latency()))
		b = append(b, ms(ttimings[i].latency()))
	}
	setOverhead(r, a, b)
	return r, writeSpans(cfg, rec)
}
