package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestWorkloadsInMiniature runs every workload, traced, at 2k
// instructions per simulation and one-second phases: both passes, every
// output check, the span reconciliation and the result line.
func TestWorkloadsInMiniature(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs mcserved and mcreport")
	}
	workdir := t.TempDir()
	build := exec.Command("go", "build", "-o", filepath.Join(workdir, "bin")+string(filepath.Separator),
		"./cmd/mcserved", "./cmd/mcreport")
	build.Dir = filepath.Join("..", "..")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the programs: %v\n%s", err, out)
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := config{workload: name, seed: 5, seconds: 1, trace: true, workdir: workdir, instr: 2000}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			res, err := workloads[name](ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res.finish(cfg)
			if !res.Correct {
				t.Fatalf("incorrect: attempted %d failed %d problems %v", res.Attempted, res.Failed, res.Problems)
			}
			if res.StatsDigest == "" || res.Metrics["span_coverage"].Value < 0.9 {
				t.Errorf("digest %q, span coverage %g", res.StatsDigest, res.Metrics["span_coverage"].Value)
			}
			for _, d := range endToEnd {
				if v := res.Metrics[d.Name].Value; v <= 0 {
					t.Errorf("end-to-end metric %s = %g, want > 0", d.Name, v)
				}
			}
			if _, err := os.Stat(filepath.Join(workdir, "spans", name+"-seed5.json")); err != nil {
				t.Errorf("spans not written: %v", err)
			}

			var out bytes.Buffer
			res.print(&out, true)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("last line is not JSON: %v", err)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(last) != 4 || len(metrics) != len(perLayer) {
				t.Errorf("result line has keys %d (want 4) and %d metrics (want %d)", len(last), len(metrics), len(perLayer))
			}
		})
	}
}

// BENCHMARK.json declares exactly the workloads and metrics mcperf runs
// and prints.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, mcperf %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not one mcperf runs", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, mcperf %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), mcperf %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
}
