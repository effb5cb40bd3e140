package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"multicluster/internal/core"
	"multicluster/internal/obs"
	"multicluster/internal/sweep"
	"multicluster/internal/workload"
)

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares (a test keeps the two in step).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, printed by an
// untraced run. Every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// table2Configs labels the three simulations behind a Table 2 row.
var table2Configs = []string{"single8", "dual-none", "dual-local"}

// routes are the API operations whose server-side handler time is
// reported per route.
var routes = []string{"jobs_submit", "jobs_get", "table2", "sweeps_create", "sweeps_results"}

var stallCauses = []string{"icache_miss", "mispredict", "queue_full", "regs_full", "replay"}

// perLayer are the metrics a traced run prints: one group per layer of
// the system. A metric that does not apply to a workload reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{{"core.busy_s", "s"}}
	for _, b := range workload.All() {
		for _, c := range table2Configs {
			defs = append(defs, metricDef{"core.ns_per_instr." + b.Name + "." + c, "ns"})
		}
	}
	defs = append(defs,
		metricDef{"core.dual_over_single", "ratio"},
		metricDef{"core.ns_per_cycle", "ns"},
		metricDef{"core.sim_cycles", "cycles"},
	)
	for _, c := range table2Configs {
		defs = append(defs, metricDef{"core.ipc." + c, "instr/cycle"})
	}
	defs = append(defs, metricDef{"core.stall_frac", "frac"})
	for _, c := range stallCauses {
		defs = append(defs, metricDef{"core.fetch_stall." + c, "cycles"})
	}
	defs = append(defs,
		metricDef{"core.retired_over_fetched", "ratio"},
		metricDef{"core.dual_dist_frac", "frac"},
		metricDef{"trace.materialize_s", "s"},
		metricDef{"trace.ns_per_instr", "ns"},
		metricDef{"trace.profile_s", "s"},
		metricDef{"trace.generations", "count"},
		metricDef{"workload.build_s", "s"},
		metricDef{"partition.s", "s"},
		metricDef{"regalloc.s", "s"},
		metricDef{"codegen.s", "s"},
		metricDef{"compile.share", "frac"},
		metricDef{"cells_per_s", "1/s"},
		metricDef{"sim_minstr_per_s", "Minstr/s"},
		metricDef{"cpu_ms_per_op", "ms"},
	)
	for _, r := range routes {
		defs = append(defs,
			metricDef{"sweep.handler_ms." + r + ".p50", "ms"},
			metricDef{"sweep.handler_ms." + r + ".p99", "ms"})
	}
	return append(defs,
		metricDef{"sweep.cache_hit_ratio", "frac"},
		metricDef{"sweep.core_cycles", "cycles"},
		metricDef{"sweep.pool_completed", "count"},
		metricDef{"sweep.shed", "count"},
		metricDef{"transport.ms.p50", "ms"},
		metricDef{"transport.ms.p99", "ms"},
		metricDef{"client.conn_wait_ms.p99", "ms"},
		metricDef{"client.gen_lag_ms.p99", "ms"},
		metricDef{"runtime.gc_count", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.alloc_mb", "MB"},
		metricDef{"trace_overhead_frac", "frac"},
		metricDef{"span_coverage", "frac"},
	)
}()

func metricDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

var units = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		m[d.Name] = d.Unit
	}
	return m
}()

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	panic("mcperf: undeclared metric " + name) // a bug: every metric is declared above
}

// cell is one simulation's outcome, labelled with its Table 2 role when it
// has one (single8, dual-none, dual-local), else "".
type cell struct {
	label string
	stats core.Stats
}

func cellLabel(machine, scheduler string) string {
	switch {
	case machine == "single" && scheduler == "none":
		return "single8"
	case machine == "dual" && scheduler == "none":
		return "dual-none"
	case machine == "dual" && scheduler == "local":
		return "dual-local"
	}
	return ""
}

// digestOf is the SHA-256 of the cells' simulated statistics, in order.
func digestOf(cells []cell) string {
	h := sha256.New()
	for _, c := range cells {
		data, _ := json.Marshal(c.stats) // plain data: cannot fail
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkStats reports a simulation that did not run its whole trace.
func checkStats(s core.Stats, instr int64) error {
	if s.Stop != core.StopTraceEnd || s.Cycles <= 0 || s.Instructions != instr {
		return fmt.Errorf("stopped %q after %d cycles with %d of %d instructions", s.Stop, s.Cycles, s.Instructions, instr)
	}
	return nil
}

// setSimMetrics reports the simulated (host-independent) statistics of
// cells: these may change only when the modelled machine does.
func setSimMetrics(r *result, cells []cell) {
	var cycles, instr, fetched, dual, dist int64
	var stalls [5]int64
	labelInstr := make(map[string]int64)
	labelCycles := make(map[string]int64)
	for _, c := range cells {
		s := c.stats
		cycles += s.Cycles
		instr += s.Instructions
		fetched += s.Fetched
		dual += s.DualDist
		dist += s.SingleDist + s.DualDist
		for i, v := range []int64{s.Fetch.ICacheMiss, s.Fetch.Mispredict, s.Fetch.QueueFull, s.Fetch.RegsFull, s.Fetch.Replay} {
			stalls[i] += v
		}
		labelInstr[c.label] += s.Instructions
		labelCycles[c.label] += s.Cycles
	}
	r.set("core.sim_cycles", float64(cycles))
	for _, l := range table2Configs {
		r.set("core.ipc."+l, ratio(labelInstr[l], labelCycles[l]))
	}
	var stalled int64
	for i, c := range stallCauses {
		r.set("core.fetch_stall."+c, float64(stalls[i]))
		stalled += stalls[i]
	}
	r.set("core.stall_frac", ratio(stalled, cycles))
	r.set("core.retired_over_fetched", ratio(instr, fetched))
	r.set("core.dual_dist_frac", ratio(dual, dist))
}

func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// setThroughput reports the simulation throughput of a phase.
func setThroughput(r *result, cells []cell, elapsed time.Duration) {
	var instr int64
	for _, c := range cells {
		instr += c.stats.Instructions
	}
	r.set("cells_per_s", float64(len(cells))/elapsed.Seconds())
	r.set("sim_minstr_per_s", float64(instr)/1e6/elapsed.Seconds())
}

// setCoverage checks that the children of every root span account for
// it (see coverage) and reports the share of root time they cover.
func setCoverage(r *result, spans []span) {
	share, roots, unreconciled := coverage(spans)
	r.set("span_coverage", share)
	switch {
	case roots == 0:
		r.problem("traced run recorded no root spans")
	case unreconciled > 0 || share < 0.9:
		r.problem("child spans cover %.1f%% of root time and leave %d of %d roots more than 10%% and 1 ms uncovered", 100*share, unreconciled, roots)
	}
}

// setOverhead reports traced over untraced time for the same operations,
// minus one.
func setOverhead(r *result, untraced, traced []float64) {
	var a, b float64
	for _, v := range untraced {
		a += v
	}
	for _, v := range traced {
		b += v
	}
	r.set("trace_overhead_frac", ratio(b, a)-1)
}

// setServerLayers reports what the server's /metrics counted between two
// scrapes: cache effectiveness, core work, pool work and admission.
func setServerLayers(r *result, before, after *sweep.ScrapedMetrics) {
	hits, misses := delta(before, after, "sweep_cache_hits_total"), delta(before, after, "sweep_cache_misses_total")
	r.set("sweep.cache_hit_ratio", ratio(hits, hits+misses))
	r.set("sweep.core_cycles", delta(before, after, "core_cycles_total"))
	r.set("sweep.pool_completed", delta(before, after, "sweep_pool_completed_total"))
	r.set("sweep.shed", delta(before, after, "sweep_jobs_shed_total"))
}

func delta(before, after *sweep.ScrapedMetrics, name string, labels ...obs.Label) float64 {
	b, _ := before.Value(name, labels...)
	a, _ := after.Value(name, labels...)
	return a - b
}

// setHTTPLayers joins the traced requests to the server's access log and
// splits their time into server handler time and everything else
// (transport: the network stack, HTTP framing and the client), and
// reports the generator's own waiting.
func setHTTPLayers(r *result, rec *recorder, log *accessLog, timings []timing) {
	handler := make(map[string][]float64)
	var transport []float64
	for _, s := range rec.snapshot() {
		if s.Name != "http" {
			continue
		}
		id, _ := s.Attrs["request_id"].(string)
		e, ok := log.lookup(id)
		if !ok {
			r.problem("request %s missing from the server's access log", id)
			continue
		}
		rt := route(e.Method, e.Path)
		handler[rt] = append(handler[rt], e.DurMS)
		transport = append(transport, float64(s.dur())/1e6-e.DurMS)
		// The log gives the handler's duration, not its start; the span
		// is placed to end with the request, where the handler finishes
		// writing the response.
		end := rec.epoch.Add(time.Duration(s.End))
		rec.add(s.Trace, 0, s.ID, "server.handler", end.Add(-time.Duration(e.DurMS*1e6)), end, map[string]any{"route": rt})
	}
	for _, rt := range routes {
		r.set("sweep.handler_ms."+rt+".p50", percentile(handler[rt], 50))
		r.set("sweep.handler_ms."+rt+".p99", percentile(handler[rt], 99))
	}
	r.set("transport.ms.p50", percentile(transport, 50))
	r.set("transport.ms.p99", percentile(transport, 99))
	var wait, lag []float64
	for _, t := range timings {
		wait = append(wait, ms(t.connWait()))
		lag = append(lag, ms(t.lag()))
	}
	r.set("client.conn_wait_ms.p99", percentile(wait, 99))
	r.set("client.gen_lag_ms.p99", percentile(lag, 99))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
