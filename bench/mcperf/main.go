// Command mcperf is the repository's end-to-end benchmark. It runs one
// workload in a fresh process, checks the workload's outputs, and prints
// every metric by name with its unit; the last line of its output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
// Usage (from the repository root, after building with bench/run.sh):
//
//	bash bench/run.sh --workload table2 --seed 1 --seconds 20 --trace 0
//	mcperf -compare DIR_A DIR_B
//
// The workloads are table2 (mcreport computing the paper's Table 2 in a
// cold process), sweep (grid studies through mcserved), serve-hot (the
// cached interactive API under open-loop traffic) and serve-cold
// (never-seen sweeps sent back to back); bench/README.md says why each
// exists and what each metric measures. With --trace 1 a run measures the workload untraced
// and then again with spans recorded around every layer call, and prints
// the per-layer metrics instead of the end-to-end ones.
//
// Every run also writes its full result (metrics, sample counts, stats
// digest, environment) under <workdir>/results, which is what -compare
// reads, and a traced run writes its spans under <workdir>/spans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// config is one run's parameters. Everything but the flags' values comes
// from the workload's defaults; the smoke test shrinks instr to keep the
// whole suite small.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // holds bin/ (the built programs); results/ and spans/ are written here
	instr    int64  // per-simulation instruction budget; 0 selects the workload's default
}

func (c config) bin(name string) string { return filepath.Join(c.workdir, "bin", name) }

// budget is the instruction budget: the workload's default unless the
// config overrides it.
func (c config) budget(def int64) int64 {
	if c.instr > 0 {
		return c.instr
	}
	return def
}

// phaseSeconds is how long each measured phase may run: the whole run
// length, or half of it in a traced run, which measures twice.
func (c config) phaseSeconds() time.Duration {
	d := time.Duration(c.seconds * float64(time.Second))
	if c.trace {
		d /= 2
	}
	return d
}

var workloads = map[string]func(context.Context, config) (*result, error){
	"table2":     runTable2,
	"sweep":      runSweepWorkload,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: table2, sweep, serve-hot, serve-cold")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input of the run is drawn from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the measured phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 = also record per-layer spans and print the per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory holding bin/ with the built mcserved and mcreport")
	compare := flag.Bool("compare", false, "compare two directories of result files: mcperf -compare DIR_A DIR_B")
	benchFile := flag.String("benchmark", "BENCHMARK.json", "benchmark definition holding the metrics' bounds (for -compare)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: mcperf -compare DIR_A DIR_B")
		}
		if err := runCompare(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fatalf("usage: mcperf --workload {table2|sweep|serve-hot|serve-cold} --seed N --seconds S --trace 0|1")
	}
	cfg.trace = *traceFlag == 1

	// The benchmark must end within three minutes whatever happens; a
	// signal ends it early. Either way every server it started is stopped
	// before it exits.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := run(ctx, cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res.finish(cfg)
	if err := res.save(cfg); err != nil {
		fatalf("%v", err)
	}
	res.print(os.Stdout, cfg.trace)
	if !res.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mcperf: "+format+"\n", args...)
	os.Exit(2)
}

// result is everything one run measured. The metrics named in
// BENCHMARK.json are in Metrics; the rest is for people and -compare.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Problems lists every failed output check.
	Problems []string          `json:"problems,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	// LatencySamples is the number of operations behind p50_ms and
	// tail_ms, and TailPercentile the percentile tail_ms is (50 when the
	// run has too few operations for p90).
	LatencySamples int     `json:"latency_samples"`
	TailPercentile float64 `json:"tail_percentile"`
	// StatsDigest is SHA-256 over every simulated statistic of the run's
	// fixed-work part (see README), in grid order: equal digests mean the
	// simulator produced identical results.
	StatsDigest string `json:"stats_digest"`
	Env         env    `json:"env"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult(cfg config) *result {
	return &result{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Metrics: make(map[string]metric),
	}
}

func (r *result) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// problem records a failed output check.
func (r *result) problem(format string, args ...any) {
	if len(r.Problems) < 50 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// setLatency records an operation-latency summary as the p50_ms and
// tail_ms metrics.
func (r *result) setLatency(l latency) {
	r.set("p50_ms", l.P50)
	r.set("tail_ms", l.Tail)
	r.LatencySamples, r.TailPercentile = l.N, 100*l.TailQ
}

// finish fills in every metric the run could not measure with 0 (per-layer
// metrics that do not apply to the workload), stamps the environment, and
// decides correctness.
func (r *result) finish(cfg config) {
	for _, d := range metricDefs(cfg.trace) {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.set(d.Name, 0)
		}
	}
	r.Env = currentEnv()
	r.Correct = len(r.Problems) == 0 && r.Failed == 0 && r.Attempted > 0
}

func (r *result) save(cfg config) error {
	dir := filepath.Join(cfg.workdir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, trace)
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// print writes a human-readable summary and then, as the last line, one
// JSON object with the keys correct, attempted, failed and metrics: the
// end-to-end metrics, or the per-layer ones for a traced run.
func (r *result) print(w io.Writer, traced bool) {
	fmt.Fprintf(w, "mcperf %s seed=%d seconds=%g trace=%v: attempted=%d failed=%d correct=%v digest=%.16s\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.Attempted, r.Failed, r.Correct, r.StatsDigest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "  latency samples n=%d, tail_ms is p%g\n", r.LatencySamples, r.TailPercentile)

	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]metric)}
	for _, d := range metricDefs(traced) {
		line.Metrics[d.Name] = r.Metrics[d.Name]
	}
	data, _ := json.Marshal(line) // plain data: cannot fail
	fmt.Fprintf(w, "%s\n", data)
}

// env is the environment stamped into every result, so two result sets
// are only compared knowingly across machines or toolchains.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Time       string `json:"time"`
}

func currentEnv() env {
	return env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

// gitCommit reads the checked-out commit from .git without running git;
// a source tree that is not a git checkout reports "unknown".
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}
